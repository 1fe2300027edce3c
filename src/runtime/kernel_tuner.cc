#include "runtime/kernel_tuner.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "blas/kernels.hh"
#include "util/aligned_buffer.hh"
#include "util/bf16.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace mnnfast::runtime {

namespace {

/** Cache-line size assumed by the prefetch pacing (as the engines). */
constexpr size_t kLineBytes = 64;

/**
 * Byte target for each half of the double-buffered measurement block.
 * Large enough to overflow any per-core L2 (typically 0.5–4 MiB), so
 * candidates are timed against the last-level-cache / DRAM stream the
 * engines actually sweep at serving scale — a tiny L2-resident block
 * would systematically pick plans that underperform out of cache
 * (e.g. prefetch off, because prefetch only pays when the rows are
 * far away).
 */
constexpr size_t kTuneHalfBytes = 4u << 20;

/** Row-count bounds for the synthetic measurement block. */
constexpr size_t kTuneRowsMin = 256;
constexpr size_t kTuneRowsMax = 32768;

/**
 * Validate an imported (strip_rows, prefetch_stride) pair before it
 * can reach an engine: strips must be positive multiples of 4 (the
 * kernels' register-group width — and strip 0 would wedge the
 * engines' `s0 += strip` sweeps) and both values must sit inside the
 * candidate grid the tuner itself sweeps, so a hand-edited or
 * corrupted cache file can never smuggle in a plan the tuner could
 * not have produced.
 */
bool
importedPlanValid(double strip, double pf)
{
    const auto inGrid = [](double v, const size_t *set, size_t n) {
        for (size_t i = 0; i < n; ++i)
            if (v == double(set[i]))
                return true;
        return false;
    };
    return inGrid(strip, kStripRowsCandidates,
                  std::size(kStripRowsCandidates))
        && inGrid(pf, kPrefetchStrideCandidates,
                  std::size(kPrefetchStrideCandidates));
}

/** Timed passes per candidate; the best is kept. */
constexpr int kReps = 2;

struct Key
{
    std::string precision;
    size_t ed;
    size_t nq;
    bool operator<(const Key &o) const
    {
        return std::tie(precision, ed, nq)
             < std::tie(o.precision, o.ed, o.nq);
    }
};

struct Stored
{
    KernelPlan plan;
    double seconds = 0.0;
    PlanOrigin origin = PlanOrigin::Default;
    size_t passes = 0;
};

struct Table
{
    std::mutex mu;
    std::map<Key, Stored> entries;
    size_t measured = 0;
    bool importedFromEnv = false;
};

Table &
table()
{
    static Table t;
    return t;
}

bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    return env && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

size_t
edBucket(size_t ed)
{
    if (ed <= 64)
        return 64;
    if (ed <= 128)
        return 128;
    if (ed <= 256)
        return 256;
    return 512;
}

size_t
nqBucket(size_t nq)
{
    if (nq <= 1)
        return 1;
    if (nq <= 8)
        return 4;
    return 16;
}

/** Issue a prefetch every `stride` lines over [p, p + bytes). */
inline void
prefetchPaced(const void *p, size_t bytes, size_t stride)
{
    if (stride == 0)
        return;
    const char *c = reinterpret_cast<const char *>(p);
    for (size_t off = 0; off < bytes; off += stride * kLineBytes)
        __builtin_prefetch(c + off, 0, 3);
}

/**
 * Synthetic measurement state for one (precision, ed, nq) bucket:
 * deterministic pseudo-random queries and a row block in the target
 * precision, double-buffered so the "next chunk" prefetch target
 * exists like in the engine sweep.
 */
struct Workbench
{
    size_t ed, nq;
    size_t rows; // rows per half-block, L2-overflowing (kTuneHalfBytes)
    size_t rowBytes;
    std::vector<float> queries;
    std::vector<float> out;
    AlignedBuffer<float> rows32;
    AlignedBuffer<float> rows32b; ///< "bound" hi rows (rows32 = lo)
    AlignedBuffer<uint16_t> rows16;
    AlignedBuffer<int8_t> rows8;
    /** The KB-shaped block's row 0 (unused by "bound"). */
    blas::Rows block{static_cast<const float *>(nullptr)};

    Workbench(const std::string &precision, size_t ed_, size_t nq_)
        : ed(ed_), nq(nq_)
    {
        // "bound" streams a lo+hi fp32 pair per summarized chunk.
        rowBytes = ed
                 * (precision == "bound" ? 8
                    : precision == "f32" ? 4
                    : precision == "bf16" ? 2
                                          : 1);
        rows = std::clamp(kTuneHalfBytes / rowBytes, kTuneRowsMin,
                          kTuneRowsMax);
        rows = rows / 4 * 4;
        XorShiftRng rng(12345);
        queries.resize(nq * ed);
        for (float &v : queries)
            v = rng.uniformRange(-1.f, 1.f);
        out.resize(nq * rows);
        const size_t elems = 2 * rows * ed;
        if (precision == "f32" || precision == "bound") {
            rows32.allocate(elems);
            for (size_t i = 0; i < elems; ++i)
                rows32.data()[i] = rng.uniformRange(-1.f, 1.f);
            block = blas::Rows(rows32.data());
            if (precision == "bound") {
                rows32b.allocate(elems);
                for (size_t i = 0; i < elems; ++i)
                    rows32b.data()[i] = rng.uniformRange(-1.f, 1.f);
            }
        } else if (precision == "bf16") {
            rows16.allocate(elems);
            for (size_t i = 0; i < elems; ++i)
                rows16.data()[i] =
                    bf16FromFloat(rng.uniformRange(-1.f, 1.f));
            block = blas::Rows(rows16.data());
        } else {
            rows8.allocate(elems);
            for (size_t i = 0; i < elems; ++i)
                rows8.data()[i] = static_cast<int8_t>(
                    static_cast<int>(rng.below(255)) - 127);
            block = blas::Rows(rows8.data(), 0.01f, 0.5f);
        }
    }

    /** Bytes of the KB-shaped block from row r on. */
    const char *
    rowAt(size_t r) const
    {
        return static_cast<const char *>(block.data) + r * rowBytes;
    }

    /**
     * One phase-1-shaped pass: strip sweep over half the block with
     * the other half prefetched strip-by-strip, exactly the engine's
     * loop structure. Returns wall seconds.
     */
    double
    pass(const std::string &precision, const KernelPlan &plan)
    {
        Timer timer;
        for (size_t half = 0; half < 2; ++half) {
            const size_t base = half * rows;
            const size_t next = (1 - half) * rows;
            for (size_t s0 = 0; s0 < rows; s0 += plan.stripRows) {
                const size_t s1 = std::min(s0 + plan.stripRows, rows);
                float *o = out.data() + s0;
                if (precision == "bound") {
                    for (size_t i = s0; i < s1; ++i) {
                        prefetchPaced(rows32.data() + (next + i) * ed,
                                      rowBytes / 2, plan.prefetchStride);
                        prefetchPaced(rows32b.data() + (next + i) * ed,
                                      rowBytes / 2, plan.prefetchStride);
                    }
                    blas::chunkBoundBatch(
                        queries.data(), nq, ed,
                        rows32.data() + (base + s0) * ed,
                        rows32b.data() + (base + s0) * ed, s1 - s0, ed,
                        ed, o, rows);
                } else {
                    for (size_t i = s0; i < s1; ++i)
                        prefetchPaced(rowAt(next + i), rowBytes,
                                      plan.prefetchStride);
                    blas::Rows strip = block;
                    strip.data = rowAt(base + s0);
                    blas::dotBatchMulti(queries.data(), nq, ed, strip,
                                        s1 - s0, ed, ed, o, rows);
                }
            }
        }
        return timer.seconds();
    }
};

/**
 * Coordinate descent over the candidate grid: sweep the strip rows at
 * the default prefetch stride, then the prefetch stride at the best
 * strip (the pair already timed is not re-run). With one untimed
 * warm-up pass that is 1 + 2 * (6 + 2) = 17 passes per bucket, where
 * the exhaustive 18-candidate sweep at 3 reps took 55.
 */
Stored
measure(const Key &key)
{
    Workbench wb(key.precision, key.ed, key.nq);
    Stored best;
    best.origin = PlanOrigin::Measured;
    best.seconds = -1.0;
    // One untimed pass warms the block into cache-steady state.
    wb.pass(key.precision, KernelPlan{});
    best.passes = 1;
    const auto tryPlan = [&](const KernelPlan &plan) {
        double t = wb.pass(key.precision, plan);
        for (int rep = 1; rep < kReps; ++rep)
            t = std::min(t, wb.pass(key.precision, plan));
        best.passes += kReps;
        if (best.seconds < 0.0 || t < best.seconds) {
            best.plan = plan;
            best.seconds = t;
        }
    };
    const size_t pf0 = KernelPlan{}.prefetchStride;
    for (size_t strip : kStripRowsCandidates)
        tryPlan({strip, pf0});
    const size_t strip = best.plan.stripRows;
    for (size_t pf : kPrefetchStrideCandidates)
        if (pf != pf0)
            tryPlan({strip, pf});
    return best;
}

// --- minimal JSON scanning for the exportJson schema ----------------

/** Find `"key":` after `from` in `s`; npos when absent. */
size_t
findKey(const std::string &s, const char *key, size_t from)
{
    const std::string pat = std::string("\"") + key + "\"";
    size_t at = s.find(pat, from);
    if (at == std::string::npos)
        return at;
    at = s.find(':', at + pat.size());
    return at == std::string::npos ? at : at + 1;
}

bool
scanString(const std::string &s, const char *key, size_t from,
           size_t until, std::string &out)
{
    size_t at = findKey(s, key, from);
    if (at == std::string::npos || at >= until)
        return false;
    const size_t open = s.find('"', at);
    if (open == std::string::npos || open >= until)
        return false;
    const size_t close = s.find('"', open + 1);
    if (close == std::string::npos || close >= until)
        return false;
    out = s.substr(open + 1, close - open - 1);
    return true;
}

bool
scanNumber(const std::string &s, const char *key, size_t from,
           size_t until, double &out)
{
    const size_t at = findKey(s, key, from);
    if (at == std::string::npos || at >= until)
        return false;
    try {
        out = std::stod(s.substr(at, until - at));
    } catch (...) {
        return false;
    }
    return true;
}

/**
 * Merge the entries of an exportJson()-shaped `text` into `t`, whose
 * lock the caller holds. Existing keys win (they were measured or
 * imported first) and invalid entries are skipped. Returns the number
 * merged, or -1 when `text` has no "entries" list.
 */
int
mergeJson(Table &t, const std::string &text)
{
    size_t from = text.find("\"entries\"");
    if (from == std::string::npos)
        return -1;
    int merged = 0;
    while (true) {
        const size_t open = text.find('{', from);
        if (open == std::string::npos)
            break;
        const size_t close = text.find('}', open);
        if (close == std::string::npos)
            break;
        from = close + 1;
        std::string prec;
        double edv, nqv, strip, pf, secs;
        if (!scanString(text, "precision", open, close, prec)
            || !scanNumber(text, "ed", open, close, edv)
            || !scanNumber(text, "nq", open, close, nqv)
            || !scanNumber(text, "strip_rows", open, close, strip)
            || !scanNumber(text, "prefetch_stride", open, close, pf)
            || !importedPlanValid(strip, pf))
            continue;
        Stored st;
        st.plan.stripRows = static_cast<size_t>(strip);
        st.plan.prefetchStride = static_cast<size_t>(pf);
        if (scanNumber(text, "seconds", open, close, secs))
            st.seconds = secs;
        st.origin = PlanOrigin::Imported;
        const Key key{prec, static_cast<size_t>(edv),
                      static_cast<size_t>(nqv)};
        merged += t.entries.emplace(key, st).second;
    }
    return merged;
}

/** A whole file's contents; false if it cannot be opened. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

} // namespace

const char *
planOriginName(PlanOrigin o)
{
    switch (o) {
      case PlanOrigin::Default: return "default";
      case PlanOrigin::Measured: return "measured";
      case PlanOrigin::Imported: return "imported";
    }
    panic("unknown PlanOrigin %d", static_cast<int>(o));
}

KernelTuner &
KernelTuner::instance()
{
    static KernelTuner tuner;
    return tuner;
}

KernelPlan
KernelTuner::plan(const char *precision, size_t ed, size_t nq)
{
    if (envFlag("MNNFAST_NO_TUNER"))
        return KernelPlan{};
    Key key{precision, edBucket(ed), nqBucket(nq)};
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    if (!t.importedFromEnv) {
        // Seed once per process from MNNFAST_TUNER_CACHE if set; a
        // missing or malformed file just means we measure.
        t.importedFromEnv = true;
        std::string text;
        if (const char *path = std::getenv("MNNFAST_TUNER_CACHE");
            path && path[0] != '\0' && readFile(path, text))
            mergeJson(t, text);
    }
    auto it = t.entries.find(key);
    if (it == t.entries.end()) {
        it = t.entries.emplace(key, measure(key)).first;
        ++t.measured;
    }
    return it->second.plan;
}

std::vector<KernelTuner::Entry>
KernelTuner::entries() const
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    std::vector<Entry> out;
    out.reserve(t.entries.size());
    for (const auto &[key, stored] : t.entries) {
        Entry e;
        e.precision = key.precision;
        e.ed = key.ed;
        e.nq = key.nq;
        e.plan = stored.plan;
        e.seconds = stored.seconds;
        e.origin = stored.origin;
        e.passes = stored.passes;
        out.push_back(std::move(e));
    }
    return out;
}

size_t
KernelTuner::measuredCount() const
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    return t.measured;
}

std::string
KernelTuner::exportJson() const
{
    const std::vector<Entry> all = entries();
    std::ostringstream os;
    os << "{\"backend\": \"" << blas::kernelBackendName()
       << "\", \"entries\": [";
    for (size_t i = 0; i < all.size(); ++i) {
        const Entry &e = all[i];
        if (i > 0)
            os << ",";
        os << "\n  {\"precision\": \"" << e.precision
           << "\", \"ed\": " << e.ed << ", \"nq\": " << e.nq
           << ", \"strip_rows\": " << e.plan.stripRows
           << ", \"prefetch_stride\": " << e.plan.prefetchStride
           << ", \"seconds\": " << e.seconds << ", \"origin\": \""
           << planOriginName(e.origin) << "\"}";
    }
    os << "\n]}";
    return os.str();
}

bool
KernelTuner::exportJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("kernel tuner: cannot write %s", path.c_str());
        return false;
    }
    out << exportJson() << "\n";
    return bool(out);
}

int
KernelTuner::importJson(const std::string &text)
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    return mergeJson(t, text);
}

int
KernelTuner::importJsonFile(const std::string &path)
{
    std::string text;
    return readFile(path, text) ? importJson(text) : -1;
}

void
KernelTuner::clear()
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    t.entries.clear();
    t.measured = 0;
    // Re-arm the one-shot MNNFAST_TUNER_CACHE seeding (see header).
    t.importedFromEnv = false;
}

} // namespace mnnfast::runtime
