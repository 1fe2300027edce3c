/**
 * @file
 * Shared helpers for the bench binaries: the harness mechanics
 * (command-line parsing, best-of-N timing, structured JSON emission,
 * banners and CSV export) and the domain fixtures (trained tasks,
 * synthetic attention KBs) that every harness would otherwise
 * re-implement, so smoke flags and JSON layout stay uniform.
 *
 * Conventions baked in:
 *  - Options are `--name value` or `--name=value`; bare `--name` is a
 *    flag. Unrecognized arguments are fatal at Args::finish(), so a
 *    typo'd sweep never silently measures the defaults.
 *  - Timing is min-of-N after warmup (see minSeconds): the engines are
 *    deterministic, so the fastest repetition is the one least
 *    disturbed by preemption and co-tenant cache traffic, and a fixed
 *    noise quantum biases ratios against short runs — the estimator
 *    the precision ablation documents, now shared.
 *  - JSON goes only to the explicit path in MNNFAST_BENCH_JSON
 *    (requireJsonPath); a harness run without it exits 2 before
 *    measuring, so no run can overwrite a committed BENCH_*.json by
 *    writing to the current directory.
 */

#ifndef MNNFAST_BENCH_BENCH_COMMON_HH
#define MNNFAST_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/knowledge_base.hh"
#include "data/babi.hh"
#include "stats/csv.hh"
#include "train/model.hh"
#include "train/trainer.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace mnnfast::bench {

/** Print a uniform harness banner. */
inline void
banner(const char *figure, const char *description)
{
    std::printf("==============================================================\n");
    std::printf("%s\n%s\n", figure, description);
    std::printf("==============================================================\n");
}

/**
 * Optional CSV export: when the MNNFAST_CSV_DIR environment variable
 * is set, harnesses write their data series to <dir>/<name>.csv for
 * external plotting. Returns nullptr (no export) otherwise.
 */
inline std::unique_ptr<stats::CsvWriter>
maybeCsv(const char *name)
{
    const char *dir = std::getenv("MNNFAST_CSV_DIR");
    if (!dir)
        return nullptr;
    return std::make_unique<stats::CsvWriter>(
        std::string(dir) + "/" + name + ".csv");
}

/** A trained model together with its task context. */
struct TrainedTask
{
    std::unique_ptr<data::Vocabulary> vocab;
    std::unique_ptr<data::BabiGenerator> gen;
    std::unique_ptr<train::MemNnModel> model;
    double trainAccuracy = 0.0;
};

/**
 * Train a MemNN on one synthetic bAbI task. Sizes are chosen so a
 * single harness trains in a few seconds while still producing the
 * sparse attention the paper's Figs. 6-7 rely on.
 */
inline TrainedTask
trainTask(data::TaskType task, size_t ed, size_t hops, size_t story_len,
          size_t examples, size_t epochs, uint64_t seed,
          float learning_rate = 0.05f)
{
    TrainedTask t;
    t.vocab = std::make_unique<data::Vocabulary>();
    t.gen = std::make_unique<data::BabiGenerator>(task, *t.vocab, seed);
    const data::Dataset train_set =
        t.gen->generateSet(examples, story_len);

    train::ModelConfig mc;
    mc.vocabSize = t.vocab->size();
    mc.embeddingDim = ed;
    mc.hops = hops;
    mc.maxStory = story_len + 2;
    t.model = std::make_unique<train::MemNnModel>(mc, seed + 1);

    train::TrainConfig tc;
    tc.epochs = epochs;
    tc.learningRate = learning_rate;
    const auto result = train::trainModel(*t.model, train_set, tc);
    t.trainAccuracy = result.trainAccuracy;
    return t;
}

/**
 * Build a knowledge base whose attention profile mimics a trained
 * memory network: `hot_fraction` of the rows correlate strongly with
 * the probe question (dot ~ hot_dot) and the rest are background
 * (dot ~ cold_dot). Used by the FPGA/energy harnesses, which need
 * paper-scale databases (ns = 1000) that exceed the trainer's story
 * length.
 */
inline core::KnowledgeBase
makeAttentionKb(size_t ns, size_t ed, const float *u,
                double hot_fraction, float hot_dot, float cold_dot,
                uint64_t seed)
{
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(seed);

    // Normalize u once; rows are target_dot * u / |u|^2 + orthogonal
    // noise, so u . row ~ target_dot.
    double norm2 = 0.0;
    for (size_t e = 0; e < ed; ++e)
        norm2 += double(u[e]) * u[e];
    if (norm2 == 0.0)
        norm2 = 1.0;

    std::vector<float> min_row(ed), mout_row(ed);
    for (size_t i = 0; i < ns; ++i) {
        const bool hot = rng.uniform() < hot_fraction;
        const float target = hot ? hot_dot : cold_dot;
        for (size_t e = 0; e < ed; ++e) {
            const float noise = rng.uniformRange(-0.05f, 0.05f);
            min_row[e] =
                static_cast<float>(target * u[e] / norm2) + noise;
            mout_row[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(min_row.data(), mout_row.data());
    }
    return kb;
}


/**
 * Minimal command-line parser for bench harnesses. Construct over
 * argv, pull typed options, then call finish() — any argument no call
 * consumed is a user error (fatal), so misspelled options fail loudly
 * instead of running the default configuration.
 */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            tokens.emplace_back(argv[i]);
        consumed.assign(tokens.size(), false);
    }

    /** True when bare `--name` appears. */
    bool flag(const char *name)
    {
        const std::string want = std::string("--") + name;
        for (size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i] == want) {
                consumed[i] = true;
                return true;
            }
        }
        return false;
    }

    /** `--name N` / `--name=N` as size_t, else `def`. */
    size_t sizeOpt(const char *name, size_t def)
    {
        const char *v = rawOpt(name);
        if (!v)
            return def;
        char *end = nullptr;
        const unsigned long long n = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0')
            fatal("--%s expects an unsigned integer, got '%s'", name, v);
        return static_cast<size_t>(n);
    }

    /** `--name X` / `--name=X` as double, else `def`. */
    double floatOpt(const char *name, double def)
    {
        const char *v = rawOpt(name);
        if (!v)
            return def;
        char *end = nullptr;
        const double x = std::strtod(v, &end);
        if (end == v || *end != '\0')
            fatal("--%s expects a number, got '%s'", name, v);
        return x;
    }

    /** `--name S` / `--name=S`, else `def`. */
    const char *strOpt(const char *name, const char *def)
    {
        const char *v = rawOpt(name);
        return v ? v : def;
    }

    /** Fatal if any argument was never consumed by an accessor. */
    void finish() const
    {
        for (size_t i = 0; i < tokens.size(); ++i)
            if (!consumed[i])
                fatal("unrecognized argument '%s'", tokens[i].c_str());
    }

  private:
    /** Locate the value of `--name`, marking its tokens consumed. */
    const char *rawOpt(const char *name)
    {
        const std::string want = std::string("--") + name;
        const std::string pre = want + "=";
        for (size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i] == want && i + 1 < tokens.size()) {
                consumed[i] = consumed[i + 1] = true;
                return tokens[i + 1].c_str();
            }
            if (tokens[i].compare(0, pre.size(), pre) == 0) {
                consumed[i] = true;
                return tokens[i].c_str() + pre.size();
            }
        }
        return nullptr;
    }

    std::vector<std::string> tokens;
    std::vector<bool> consumed;
};

/**
 * Minimum seconds of `reps` calls to `fn`, after `warmups` untimed
 * calls (page in buffers, grow arenas, settle the LLC set). See the
 * file header for why min-of-N and not the median.
 */
template <typename Fn>
double
minSeconds(size_t reps, Fn &&fn, size_t warmups = 2)
{
    for (size_t w = 0; w < warmups; ++w)
        fn();
    double best = 0.0;
    Timer t;
    for (size_t rep = 0; rep < reps; ++rep) {
        t.reset();
        fn();
        const double s = t.seconds();
        if (rep == 0 || s < best)
            best = s;
    }
    return best;
}

/**
 * The harness's JSON output path, from MNNFAST_BENCH_JSON. Without it
 * prints a usage line naming `harness` and exits 2; call it before
 * measuring so a missing path costs nothing.
 */
inline const char *
requireJsonPath(const char *harness)
{
    const char *env = std::getenv("MNNFAST_BENCH_JSON");
    if (!env || env[0] == '\0') {
        std::fprintf(stderr, "usage: MNNFAST_BENCH_JSON=<path> %s\n",
                     harness);
        std::exit(2);
    }
    return env;
}

/**
 * Structured JSON emitter: nesting-aware comma/indent tracking so
 * harness code never hand-manages `first_point` booleans. Values are
 * written eagerly (no buffering); numbers use enough digits to
 * round-trip. The writer does not validate completeness — close what
 * you open — but unbalanced nesting trips an assert in endObject /
 * endArray.
 */
class JsonWriter
{
  public:
    /** Opens `path` for writing; failure is fatal (a bench with no
     *  output is a silently wasted run). */
    explicit JsonWriter(const std::string &path) : path_(path)
    {
        f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot open %s for writing", path.c_str());
    }

    ~JsonWriter()
    {
        if (f)
            std::fclose(f);
    }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** Key introducing a nested object/array: key("x"); beginArray(). */
    void key(const char *k)
    {
        separate();
        std::fprintf(f, "\"%s\": ", k);
        pendingKey = true;
    }

    void field(const char *k, size_t v)
    {
        key(k);
        std::fprintf(f, "%zu", v);
        pendingKey = false;
    }

    void field(const char *k, double v)
    {
        key(k);
        std::fprintf(f, "%.9g", v);
        pendingKey = false;
    }

    void field(const char *k, const char *v)
    {
        key(k);
        std::fprintf(f, "\"%s\"", v);
        pendingKey = false;
    }

    void field(const char *k, bool v)
    {
        key(k);
        std::fprintf(f, v ? "true" : "false");
        pendingKey = false;
    }

    /** Bare array element. */
    void value(double v)
    {
        separate();
        std::fprintf(f, "%.9g", v);
    }

    const std::string &path() const { return path_; }

  private:
    void open(char c)
    {
        separate();
        pendingKey = false;
        std::fprintf(f, "%c", c);
        needComma.push_back(false);
    }

    void close(char c)
    {
        mnn_assert(!needComma.empty(), "JsonWriter close without open");
        needComma.pop_back();
        std::fprintf(f, "\n%*s%c", int(2 * needComma.size()), "", c);
        if (needComma.empty())
            std::fprintf(f, "\n");
    }

    /** Comma + newline + indent before a sibling; nothing after a
     *  key (the value belongs on the key's line). */
    void separate()
    {
        if (pendingKey) {
            pendingKey = false;
            return;
        }
        if (needComma.empty())
            return;
        if (needComma.back())
            std::fprintf(f, ",");
        needComma.back() = true;
        std::fprintf(f, "\n%*s", int(2 * needComma.size()), "");
    }

    FILE *f = nullptr;
    std::string path_;
    std::vector<bool> needComma;
    bool pendingKey = false;
};

} // namespace mnnfast::bench

#endif // MNNFAST_BENCH_BENCH_COMMON_HH
