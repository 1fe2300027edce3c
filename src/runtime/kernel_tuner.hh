/**
 * @file
 * Startup kernel autotuner for the fused knowledge-base sweeps.
 *
 * The column/baseline engines sweep M_IN/M_OUT in strips, pacing
 * software prefetch across the strip loop. The best (strip rows,
 * prefetch stride) pair depends on the storage precision (bytes per
 * row), the embedding dimension, and the batch size — a measured
 * artifact, not a hard-coded guess. KernelTuner searches a small
 * candidate grid over a synthetic row block at first use of each
 * (precision, ed, nq) bucket, caches the winner in a process-wide
 * table, and hands engines the tuned plan; later engine constructions
 * (e.g. one engine per serving worker) hit the cache and never
 * re-measure. The table round-trips through JSON (exportJson /
 * importJson) so benchmark artifacts can embed it and a process can
 * be seeded from a file via MNNFAST_TUNER_CACHE.
 *
 * Correctness is independent of the tuner: every candidate plan
 * yields bit-identical engine output, because a plan only changes how
 * a row sweep is split into kernel calls (at multiples of the
 * kernels' 4-row register group) and how far apart prefetch
 * instructions land — never the per-(query, row) accumulation order
 * the kernels pin down. MNNFAST_NO_TUNER=1 skips measurement and
 * returns the default plan everywhere (the pre-tuner behaviour).
 */

#ifndef MNNFAST_RUNTIME_KERNEL_TUNER_HH
#define MNNFAST_RUNTIME_KERNEL_TUNER_HH

#include <cstddef>
#include <string>
#include <vector>

namespace mnnfast::runtime {

/**
 * One tuned pick for the fused KB sweeps. stripRows is the number of
 * rows per kernel call in the phase-1/phase-3 strip loops (always a
 * multiple of 4, the kernels' register-group width, so strip
 * boundaries never change accumulation grouping); prefetchStride is
 * the pacing of software prefetch in cache lines (a prefetch
 * instruction every `prefetchStride` lines, 0 = no prefetch). The
 * defaults reproduce the pre-tuner engine constants.
 */
struct KernelPlan
{
    size_t stripRows = 16;
    size_t prefetchStride = 2;
};

/**
 * The candidate grid the tuner sweeps — every plan it can ever hand
 * out draws stripRows from kStripRowsCandidates and prefetchStride
 * from kPrefetchStrideCandidates. Exposed so engines can validate
 * pinned EngineConfig overrides against the same set (a pin outside
 * the grid would make pinned and tuned runs incomparable) and so
 * import paths can reject out-of-range table entries.
 */
inline constexpr size_t kStripRowsCandidates[] = {8,  16,  32,
                                                  64, 128, 256};
inline constexpr size_t kPrefetchStrideCandidates[] = {0, 2, 4};

/** Where a table entry came from (JSON `origin` field). */
enum class PlanOrigin {
    Default,  ///< MNNFAST_NO_TUNER or measurement unavailable
    Measured, ///< swept in this process
    Imported, ///< loaded from JSON
};

/** Name of a PlanOrigin: "default", "measured" or "imported". */
const char *planOriginName(PlanOrigin o);

/**
 * Process-wide tuning table (singleton: one table per process, shared
 * by every engine). Thread-safe; a miss measures under the table lock
 * so concurrent constructions of identical engines measure once.
 */
class KernelTuner
{
  public:
    /** The process-wide instance. */
    static KernelTuner &instance();

    /**
     * Tuned plan for a fused sweep over rows of `precision` ("f32",
     * "bf16", "i8", or "bound" — the chunk-summary bound sweep, whose
     * row payload is a lo+hi fp32 pair per summarized chunk),
     * embedding dimension `ed`, and `nq` concurrent queries. ed and
     * nq are bucketed (ed to {64, 128, 256, 512}, nq to {1, 4, 16})
     * so the table stays small and unit tests with many geometries
     * re-measure rarely. First call per bucket searches the candidate
     * grid by coordinate descent — strip rows at the default prefetch
     * stride, then prefetch stride at the best strip, best of 2 timed
     * passes each, 17 kernel passes in all (DESIGN.md §10). Every
     * pass streams an L2-overflowing block, so a bucket costs about
     * 20-150 ms at ed=64 on a 4-core Xeon host; later calls are a
     * locked map lookup. With MNNFAST_NO_TUNER=1 returns the default
     * plan without measuring or caching.
     */
    KernelPlan plan(const char *precision, size_t ed, size_t nq);

    /** One table entry, as reported by entries(). */
    struct Entry
    {
        std::string precision;
        size_t ed = 0;
        size_t nq = 0;
        KernelPlan plan;
        double seconds = 0.0; ///< best candidate's measured seconds
        PlanOrigin origin = PlanOrigin::Default;
        /** Kernel passes the search ran, warm-up included (0 unless
         *  measured in this process; not part of the JSON table). */
        size_t passes = 0;
    };

    /** Snapshot of the table, sorted by (precision, ed, nq). */
    std::vector<Entry> entries() const;

    /** Number of entries measured in this process (cache-hit tests). */
    size_t measuredCount() const;

    /**
     * The table as a JSON object:
     * {"backend": "...", "entries": [{"precision": "i8", "ed": 128,
     *  "nq": 16, "strip_rows": 32, "prefetch_stride": 2,
     *  "seconds": 1.2e-3, "origin": "measured"}, ...]}.
     * Schema documented in DESIGN.md §10.
     */
    std::string exportJson() const;

    /** Write exportJson() to a file; false (with a warning) on error. */
    bool exportJsonFile(const std::string &path) const;

    /**
     * Merge entries parsed from an exportJson()-shaped string into
     * the table (existing keys keep their current plan; imported
     * entries satisfy later plan() calls without measuring). Returns
     * the number of entries merged, or -1 on a parse error.
     */
    int importJson(const std::string &text);

    /** importJson over a file's contents; -1 if unreadable. */
    int importJsonFile(const std::string &path);

    /**
     * Test hook: drop every entry (later plan() calls re-measure) and
     * re-arm the one-shot MNNFAST_TUNER_CACHE seeding, so tests can
     * point the env var at a fresh file and exercise the import path
     * again in the same process.
     */
    void clear();

  private:
    KernelTuner() = default;
    // All state is process-wide and lives behind a lock in the
    // translation unit (the class is a stateless handle).
};

} // namespace mnnfast::runtime

#endif // MNNFAST_RUNTIME_KERNEL_TUNER_HH
