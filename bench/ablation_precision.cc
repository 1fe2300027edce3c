/**
 * @file
 * Ablation: knowledge-base storage precision (DESIGN.md §7, §10). The
 * column-dataflow engines are memory-bound on the M_IN/M_OUT stream
 * at small batch sizes, so storing the knowledge base in bfloat16
 * halves — and in int8 quarters — the streamed bytes, which should
 * translate into wall-clock speedup wherever the stream (not the
 * arithmetic) is the bottleneck.
 *
 * For each (ns, ed) geometry and engine configuration the same random
 * knowledge base is built in fp32, bf16 and int8 and timed end to
 * end; the per-chunk effective bandwidth (KB bytes / batch seconds)
 * and the speedups relative to fp32 are reported, together with the
 * maximum deviation of the answer scores from the fp32 result per
 * reduced precision — the accuracy cost of the compressed storage,
 * which DESIGN.md §7 (bf16) and §10 (int8) bound analytically.
 *
 * Writes its JSON only to the explicit path in the MNNFAST_BENCH_JSON
 * environment variable (e.g. MNNFAST_BENCH_JSON=BENCH_precision.json
 * to refresh the committed file) and exits 2 without one, so a run
 * from the repo root never overwrites the committed results by
 * accident.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/column_engine.hh"
#include "stats/table.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace mnnfast;

namespace {

struct EngineSpec
{
    const char *label;
    bool streaming;
    float skipThreshold;
};

struct Geometry
{
    size_t ns;
    size_t ed;
};

constexpr float kScale = 0.3f;

core::KnowledgeBase
buildKb(size_t ns, size_t ed, core::Precision prec)
{
    core::KnowledgeBase kb(ed, prec);
    kb.reserve(ns);
    XorShiftRng rng(1);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-kScale, kScale);
            b[e] = rng.uniformRange(-kScale, kScale);
        }
        kb.addSentence(a.data(), b.data());
    }
    return kb;
}

/**
 * Minimum seconds of one inferBatch call over `reps` repetitions.
 * The minimum, not the median: the engines are single-threaded and
 * deterministic, so the fastest repetition is the one least disturbed
 * by scheduler preemption and co-tenant cache traffic — the median
 * would fold that external noise into the reported number, and it
 * biases the RATIOS too, because a fixed preemption quantum costs a
 * short (compressed-KB) run proportionally more than a long one. The
 * same estimator is applied to every precision and engine.
 */
double
measure(core::ColumnEngine &engine, const float *u, size_t nq, float *o,
        size_t reps)
{
    engine.inferBatch(u, nq, o); // warmup: page in KB, grow arenas
    engine.inferBatch(u, nq, o); // second pass settles the LLC set
    double best = 0.0;
    Timer t;
    for (size_t rep = 0; rep < reps; ++rep) {
        t.reset();
        engine.inferBatch(u, nq, o);
        const double s = t.seconds();
        if (rep == 0 || s < best)
            best = s;
    }
    return best;
}

double
maxDeviation(const std::vector<float> &ref, const std::vector<float> &o)
{
    double dev = 0.0;
    for (size_t i = 0; i < ref.size(); ++i)
        dev = std::max(dev, std::abs(double(ref[i]) - o[i]));
    return dev;
}

} // namespace

int
main()
{
    const char *json_path = std::getenv("MNNFAST_BENCH_JSON");
    if (!json_path || json_path[0] == '\0') {
        std::fprintf(stderr, "usage: MNNFAST_BENCH_JSON=<path> "
                             "ablation_precision\n");
        return 2;
    }

    bench::banner("Ablation: knowledge-base storage precision",
                  "fp32 vs bf16 (half the bytes) vs int8 (a quarter), "
                  "per engine and geometry, with the answer-score "
                  "deviation cost of each compressed format.");

    // The largest geometry (64 MiB fp32 KB at ns=65536, ed=128) far
    // exceeds any LLC, so the engines run from the DRAM stream there:
    // that point is where the bandwidth scaling must show end to end.
    const Geometry geoms[] = {{16384, 64}, {16384, 256}, {65536, 128}};
    const size_t nq = 1; // most bandwidth-bound point: no batch reuse
    const size_t reps = 9;

    const EngineSpec specs[] = {
        {"column", false, 0.f},
        {"column+zskip", false, 1e-4f},
        {"mnnfast", true, 1e-4f},
    };

    FILE *json = std::fopen(json_path, "w");
    if (!json) {
        std::fprintf(stderr, "cannot open %s for writing\n", json_path);
        return 1;
    }
    std::fprintf(json, "{\n  \"nq\": %zu,\n  \"threads\": 0,\n"
                       "  \"configs\": [",
                 nq);

    stats::Table table({"ns", "ed", "engine", "f32 ms", "bf16 ms",
                        "i8 ms", "bf16 x", "i8 x", "i8/bf16",
                        "dev bf16", "dev i8"});
    auto csv = bench::maybeCsv("ablation_precision");
    if (csv)
        csv->writeRow({"ns", "ed", "engine", "f32_seconds",
                       "bf16_seconds", "i8_seconds", "speedup_bf16",
                       "speedup_i8", "max_deviation_bf16",
                       "max_deviation_i8"});

    // Acceptance tracking at the DRAM-bound geometry (mnnfast engine):
    // int8 must beat bf16 by >= 1.4x and fp32 by >= 2.5x there.
    double mnnfast_i8_vs_f32_large = 0.0;
    double mnnfast_i8_vs_bf16_large = 0.0;
    double bf16_speedup_large = 0.0;
    double max_dev_bf16 = 0.0;
    double max_dev_i8 = 0.0;
    bool first_cfg = true;
    for (const Geometry &g : geoms) {
        const size_t chunk = std::min<size_t>(512, g.ns);
        constexpr size_t kNSpecs = 3;
        constexpr core::Precision precs[] = {core::Precision::F32,
                                             core::Precision::BF16,
                                             core::Precision::I8};

        XorShiftRng rng(2);
        std::vector<float> u(nq * g.ed);
        for (float &x : u)
            x = rng.uniformRange(-kScale, kScale);

        // Precision-major measurement with the knowledge base scoped
        // to its own precision's runs: a serving process hosts ONE
        // knowledge base, so timing each format with the other two
        // formats' copies resident would pollute the cache hierarchy
        // with up to 7x extra bytes and distort exactly the
        // bandwidth-bound regime this ablation exists to measure.
        double secs[kNSpecs][3] = {};
        double devs[kNSpecs][3] = {};
        size_t kb_bytes[3] = {};
        std::vector<float> ref[kNSpecs];
        std::vector<float> o(nq * g.ed);
        for (size_t pi = 0; pi < 3; ++pi) {
            const core::KnowledgeBase kb =
                buildKb(g.ns, g.ed, precs[pi]);
            kb_bytes[pi] = kb.bytes();
            for (size_t si = 0; si < kNSpecs; ++si) {
                core::EngineConfig cfg;
                cfg.chunkSize = chunk;
                cfg.threads = 0; // inline: isolate the stream
                cfg.streaming = specs[si].streaming;
                cfg.skipThreshold = specs[si].skipThreshold;
                core::ColumnEngine eng(kb, cfg);
                secs[si][pi] =
                    measure(eng, u.data(), nq, o.data(), reps);
                if (pi == 0)
                    ref[si] = o;
                else
                    devs[si][pi] = maxDeviation(ref[si], o);
            }
        }

        std::fprintf(json,
                     "%s\n    {\n      \"ns\": %zu,\n      \"ed\": %zu,"
                     "\n      \"chunk\": %zu,\n"
                     "      \"kb_bytes_f32\": %zu,\n"
                     "      \"kb_bytes_bf16\": %zu,\n"
                     "      \"kb_bytes_i8\": %zu,\n"
                     "      \"engines\": [",
                     first_cfg ? "" : ",", g.ns, g.ed, chunk,
                     kb_bytes[0], kb_bytes[1], kb_bytes[2]);
        first_cfg = false;

        bool first_engine = true;
        for (size_t si = 0; si < kNSpecs; ++si) {
            const EngineSpec &spec = specs[si];
            const double t32 = secs[si][0];
            const double t16 = secs[si][1];
            const double t8 = secs[si][2];
            // Effective per-chunk stream bandwidth: every chunk's
            // M_IN/M_OUT bytes are read once per batch (an upper
            // bound under zero-skipping, which reads less).
            const double gbps32 = double(kb_bytes[0]) / t32 / 1e9;
            const double gbps16 = double(kb_bytes[1]) / t16 / 1e9;
            const double gbps8 = double(kb_bytes[2]) / t8 / 1e9;
            const double speedup16 = t32 / t16;
            const double speedup8 = t32 / t8;
            const double i8_over_bf16 = t16 / t8;

            const double dev16 = devs[si][1];
            const double dev8 = devs[si][2];
            max_dev_bf16 = std::max(max_dev_bf16, dev16);
            max_dev_i8 = std::max(max_dev_i8, dev8);
            if (g.ns * g.ed >= 65536 * 128) {
                bf16_speedup_large =
                    std::max(bf16_speedup_large, speedup16);
                if (std::string(spec.label) == "mnnfast") {
                    mnnfast_i8_vs_f32_large = speedup8;
                    mnnfast_i8_vs_bf16_large = i8_over_bf16;
                }
            }

            table.addRow({std::to_string(g.ns), std::to_string(g.ed),
                          spec.label, stats::Table::num(t32 * 1e3, 3),
                          stats::Table::num(t16 * 1e3, 3),
                          stats::Table::num(t8 * 1e3, 3),
                          stats::Table::num(speedup16, 3),
                          stats::Table::num(speedup8, 3),
                          stats::Table::num(i8_over_bf16, 3),
                          stats::Table::num(dev16, 6),
                          stats::Table::num(dev8, 6)});
            if (csv)
                csv->writeRow({std::to_string(g.ns),
                               std::to_string(g.ed),
                               std::string(spec.label),
                               std::to_string(t32), std::to_string(t16),
                               std::to_string(t8),
                               std::to_string(speedup16),
                               std::to_string(speedup8),
                               std::to_string(dev16),
                               std::to_string(dev8)});
            std::fprintf(json,
                         "%s\n        {\"name\": \"%s\", "
                         "\"f32_seconds\": %.9f, "
                         "\"bf16_seconds\": %.9f, "
                         "\"i8_seconds\": %.9f, "
                         "\"f32_gbps\": %.4f, \"bf16_gbps\": %.4f, "
                         "\"i8_gbps\": %.4f, "
                         "\"speedup_bf16\": %.4f, "
                         "\"speedup_i8\": %.4f, "
                         "\"i8_over_bf16\": %.4f, "
                         "\"max_abs_deviation_bf16\": %.9f, "
                         "\"max_abs_deviation_i8\": %.9f}",
                         first_engine ? "" : ",", spec.label, t32, t16,
                         t8, gbps32, gbps16, gbps8, speedup16, speedup8,
                         i8_over_bf16, dev16, dev8);
            first_engine = false;
        }
        std::fprintf(json, "\n      ]\n    }");
    }

    // Analytic deviation bounds for the measured geometry family
    // (DESIGN.md §7 and §10). bf16 rounding is <= 2^-8 relative per
    // stored element; the int8 per-chunk affine code over data in
    // [-kScale, kScale] has step <= 2*kScale/255, so its half-step
    // error is also <= kScale * 2^-8 per element. Either way every
    // inner product shifts by at most ed * kScale^2 * 2^-8 and every
    // output element by the direct M_OUT rounding plus the softmax
    // reweighting of the dot shifts — the same bound covers both
    // reduced precisions.
    const double max_ed = 256.0;
    const double dot_shift =
        max_ed * double(kScale) * double(kScale) * 0x1p-8;
    const double dev_bound =
        0.1 * double(kScale) + 2.0 * dot_shift + 1e-3;
    std::fprintf(json,
                 "\n  ],\n  \"max_deviation_bf16\": %.9f,\n"
                 "  \"max_deviation_i8\": %.9f,\n"
                 "  \"deviation_bound\": %.9f,\n"
                 "  \"speedup_large_kb\": %.4f,\n"
                 "  \"mnnfast_i8_vs_f32_large\": %.4f,\n"
                 "  \"mnnfast_i8_vs_bf16_large\": %.4f\n}\n",
                 max_dev_bf16, max_dev_i8, dev_bound,
                 bf16_speedup_large, mnnfast_i8_vs_f32_large,
                 mnnfast_i8_vs_bf16_large);
    std::fclose(json);

    table.print();
    std::printf("\nwrote %s; at the large geometry the mnnfast engine "
                "ran int8 %.2fx over fp32 and %.2fx over bf16 "
                "(bf16 %.2fx over fp32); max answer-score deviation "
                "bf16 %.2e, i8 %.2e (bound %.2e)\n",
                json_path, mnnfast_i8_vs_f32_large,
                mnnfast_i8_vs_bf16_large, bf16_speedup_large,
                max_dev_bf16, max_dev_i8, dev_bound);
    return (max_dev_bf16 <= dev_bound && max_dev_i8 <= dev_bound) ? 0
                                                                  : 1;
}
