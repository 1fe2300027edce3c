/**
 * @file
 * The column-based MnnFast inference dataflow (paper Fig. 5b),
 * query-blocked across the batch.
 *
 * The knowledge base is processed in chunks of `chunkSize` sentences.
 * For each chunk the engine computes the inner products, applies the
 * exponential, and immediately accumulates the weighted sum — the
 * softmax division is deferred to a single final pass over the ed-
 * sized output ("lazy softmax"), so per-question temporaries shrink
 * from O(ns) to O(chunkSize) and every chunk's M_IN/M_OUT rows are
 * touched exactly once while hot.
 *
 * The dataflow is *query-blocked*: each chunk is swept in small row
 * strips, and every strip is driven through the whole question batch
 * before the sweep advances — phase 1 is one dotBatchMulti call per
 * strip (a packed GEMM whose register tile reuses each M_IN load
 * across queries) and phase 3 is one weightedSumSkipMulti call per
 * strip (a kept M_OUT row is loaded once and axpy'd into every
 * question's accumulator). A strip therefore streams from DRAM once
 * per *batch* rather than once per question, which is the serving
 * model's t(n) = base + n*per assumption made real. Streaming
 * prefetch of the next chunk is issued strip-by-strip during the
 * phase-1 sweep — exactly once per chunk, independent of the batch
 * size.
 *
 * Skip decisions in phase 3 remain per-(question, row) scalar double
 * arithmetic inside the kernels, so the SIMD and scalar backends make
 * identical decisions and the query-blocked sweep is bit-identical to
 * the per-question path (see kernels.hh).
 *
 * All engine scratch lives in persistent runtime::ScratchArena
 * instances — one per worker slot for the chunk-local e-value tiles,
 * one for the per-group partial accumulators — so repeated
 * inferBatch calls at a steady batch size perform no heap allocation
 * (arena spans are recycled by reset(), never freed).
 *
 * Parallel execution decomposes the chunks into a fixed sequence of
 * contiguous chunk *groups* (cfg.scheduleGroups; default 4x workers).
 * Each group accumulates into its own partial slot and the slots are
 * merged in group order, so results are bit-identical whichever worker
 * ran a group and whenever it ran. Workers pull groups off a shared
 * cursor (dynamic scheduling), which keeps all workers busy when
 * zero-skipping makes per-chunk cost data-dependent.
 *
 * Options on top of the plain column dataflow:
 *  - streaming:     software-prefetch the next chunk while computing
 *                   the current one (the paper's data streaming).
 *  - skipThreshold: zero-skipping — drop weighted-sum rows whose
 *                   probability is provably below the threshold. The
 *                   single-pass test `e_i < th * S_running` is
 *                   conservative: S_running <= S_final, so every
 *                   skipped row satisfies p_i < th exactly; some rows
 *                   below threshold are kept (never the reverse), so
 *                   accuracy can only be better than the paper's
 *                   post-hoc skip at equal threshold.
 *  - onlineNormalize: numerically-safe running-max rescaling (see
 *                   EngineConfig).
 *  - routePolicy:   coarse-then-fine candidate selection (DESIGN.md
 *                   §11). A lazily built ChunkSummaryIndex gives every
 *                   chunk a per-dimension [lo, hi] envelope; before a
 *                   chunk group streams, the fused chunkBoundBatch
 *                   kernel scores each chunk's max-inner-product upper
 *                   bound for every question, and the policy (top-k or
 *                   bound-threshold, per group — see RoutePolicy)
 *                   picks the candidate set. Chunks no question
 *                   selected are bypassed entirely (no stream, no
 *                   prefetch, no observer); chunks a strict subset
 *                   selected run the same three phases over a
 *                   *compacted* question sub-batch (gather the
 *                   selected questions' state, run the kernels at the
 *                   sub-batch size, scatter back) — exact per
 *                   question, because the kernels fix a per-
 *                   (question, row) accumulation order that is
 *                   independent of which other questions share the
 *                   call. Selection only decides which chunks stream;
 *                   it never changes the value a streamed chunk
 *                   contributes, so a selection that keeps every
 *                   chunk (k >= group chunks, or threshold 0) is
 *                   bit-identical to RoutePolicy::None.
 */

#ifndef MNNFAST_CORE_COLUMN_ENGINE_HH
#define MNNFAST_CORE_COLUMN_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/chunk_summary_index.hh"
#include "core/config.hh"
#include "core/engine.hh"
#include "runtime/kernel_tuner.hh"
#include "runtime/parallel_for.hh"
#include "runtime/scratch_arena.hh"
#include "runtime/thread_pool.hh"

namespace mnnfast::core {

/**
 * The merged online-softmax state of one engine pass over (a shard
 * of) the knowledge base, *before* the lazy-softmax division: per
 * question a (rescaled) weighted-sum accumulator, a (rescaled)
 * running exp-sum, and the running maximum the rescaling is relative
 * to (-inf when onlineNormalize is off — the plain paper form never
 * shifts). Partials from disjoint sentence ranges merge exactly:
 *
 *   m  = max(m_a, m_b)
 *   S  = S_a * e^(m_a - m) + S_b * e^(m_b - m)
 *   o  = o_a * e^(m_a - m) + o_b * e^(m_b - m)
 *
 * which is the same algebra ColumnEngine applies to its per-group
 * partials — one merge routine serves both. Produced by
 * ColumnEngine::inferPartial and consumed by mergeStreamPartials.
 */
struct StreamPartial
{
    std::vector<float> o;       ///< nq x ed weighted-sum accumulators
    std::vector<double> expSum; ///< nq running exp sums
    std::vector<float> runMax;  ///< nq running maxima
    size_t nq = 0;              ///< questions this partial covers
};

/**
 * Merge StreamPartials — in the order given, which must be the
 * canonical shard order for bit-identity — with the online-softmax
 * algebra, and apply the single deferred lazy-softmax division. This
 * is the gather of partials that crossed the wire
 * (net::ClusterFrontEnd). It runs the very merge ColumnEngine applies
 * to its chunk groups, so per-shard partials gathered here agree
 * bit-for-bit with one engine whose group s is shard s (see
 * sharded_engine.hh).
 *
 * Every partial must cover `nq` questions of dimension `ed`.
 * `onlineNormalize` must match the engine config the partials were
 * produced under (it decides whether runMax rescaling applies).
 */
void mergeStreamPartials(const StreamPartial *const *parts,
                         size_t nParts, size_t nq, size_t ed,
                         bool onlineNormalize, float *o);

/** Column-based (chunked, lazy-softmax) engine. See file header. */
class ColumnEngine : public InferenceEngine
{
  public:
    /**
     * @param kb  Knowledge base; must outlive the engine.
     * @param cfg Engine tunables (chunk size, streaming, skipping,
     *            threads, scheduling, online normalization). The
     *            chunk size is clamped to the KB size at construction
     *            (when the KB is non-empty) and must be nonzero.
     */
    ColumnEngine(const KnowledgeBase &kb, const EngineConfig &cfg);

    void inferBatch(const float *u, size_t nq, float *o) override;

    /**
     * Run the same chunked pass as inferBatch but stop before the
     * lazy-softmax division, leaving the merged online-softmax state
     * in `out` (buffers resized as needed; reused capacity makes the
     * steady state allocation-free). This is the scatter half of
     * sharded inference: partials from engines over disjoint shards
     * merge exactly (see StreamPartial), and the gather side applies
     * the single deferred division.
     *
     * When this engine's group decomposition has exactly one group
     * (scheduleGroups = 1), `out` *is* that group's accumulator state
     * bit-for-bit — the property the cluster's per-shard nodes build
     * their bit-identity guarantee on.
     */
    void inferPartial(const float *u, size_t nq, StreamPartial &out);

    const char *name() const override;

    /** The effective chunk size after clamping to the KB size. */
    size_t chunkSize() const { return cfg.chunkSize; }

  private:
    /** Zero-skip and routing totals of a pass (or of one group). */
    struct RunTotals
    {
        uint64_t kept = 0;
        uint64_t skipped = 0;
        /** (question, row) pairs streamed in phase 1 (routing only). */
        uint64_t routedRows = 0;
        /** Chunks bypassed because no question selected them. */
        uint64_t bypassed = 0;
    };

    /**
     * Per-group accumulation state for a span of chunks. The buffers
     * are arena spans claimed at the start of each inferBatch (valid
     * for that call only); the struct itself is reused across calls.
     * The totals and phase seconds are written once, when the group
     * finishes: neighbouring groups run on other workers, and per-row
     * or per-chunk writes to adjacent slots would share cache lines.
     */
    struct Partial
    {
        float *o = nullptr;       ///< nq x ed weighted-sum accumulator
        double *psum = nullptr;   ///< nq running sums of exp values
        float *runmax = nullptr;  ///< nq running maxima (online mode)
        RunTotals totals;         ///< this group's skip/routing totals
        double tInner = 0.0;      ///< seconds in inner products
        double tSoftmax = 0.0;    ///< seconds in exp/rescale
        double tWsum = 0.0;       ///< seconds in weighted sum
    };

    /**
     * Stream the chunks of rows [row_begin, row_end) into `out`,
     * including its totals and phase times. `sel`, when non-null, is
     * this group's routing mask — sel[q * sel_stride + ci] for
     * group-local chunk ci. The caller resets `scratch` before any
     * claims tied to this group.
     */
    void processChunks(const float *u, size_t nq, size_t row_begin,
                       size_t row_end, const runtime::KernelPlan &plan,
                       Partial &out, size_t worker,
                       runtime::ScratchArena &scratch,
                       const uint8_t *sel, size_t sel_stride) const;

    /** True when a coarse selection policy is configured. */
    bool routingActive() const
    {
        return cfg.routePolicy != RoutePolicy::None;
    }

    /**
     * Score one chunk group's summaries for the batch and apply the
     * selection policy; returns the nq x (group chunk count) mask,
     * claimed from `scratch` (valid until its next reset).
     */
    const uint8_t *selectGroup(const float *u, size_t nq,
                               runtime::Range chunks,
                               const runtime::KernelPlan &plan,
                               runtime::ScratchArena &scratch) const;

    /**
     * The (strip rows, prefetch stride) plan for a batch of nq
     * questions: config overrides where set, the process-wide tuned
     * plan otherwise. Resolved once per runGroups call, outside the
     * worker loops, so the tuner lock is never taken on the hot path.
     */
    runtime::KernelPlan resolvePlan(size_t nq) const;

    /** Group decomposition for the current KB size (cached). */
    const std::vector<runtime::Range> &chunkGroups(size_t n_chunks);

    /**
     * The shared pass: schedule every chunk group across the pool,
     * leaving per-group accumulators in `partials`. inferBatch merges
     * them with the final division; inferPartial merges them into a
     * StreamPartial without it.
     */
    void runGroups(const float *u, size_t nq);

    /**
     * Merge `partials` in group order into o (nq x ed). With
     * expSum/runMax given, store the merged state and leave o
     * undivided; with both null, apply the lazy-softmax division.
     */
    void mergeGroups(size_t nq, float *o, double *expSum,
                     float *runMax) const;

    /** Phase-time/counter accounting shared by both entry points. */
    void recordRunStats(size_t nq, double wall_seconds);

    const KnowledgeBase &kb;
    EngineConfig cfg;
    runtime::ThreadPool pool;

    // Persistent serving-loop state: sized once (or on KB growth),
    // recycled every call — see "scratch arena" in the file header.
    std::vector<runtime::ScratchArena> workerArenas; ///< chunk tiles
    runtime::ScratchArena partialArena;              ///< group partials
    std::vector<Partial> partials;
    std::vector<runtime::Range> groupCache;
    size_t groupCacheChunks = 0; ///< n_chunks groupCache was built for

    // Coarse routing state: the chunk-summary index, built lazily on
    // the first routed pass and rebuilt when the KB grows (the index
    // is a snapshot of routeIndexRows rows).
    std::unique_ptr<ChunkSummaryIndex> routeIndex;
    size_t routeIndexRows = 0;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_COLUMN_ENGINE_HH
