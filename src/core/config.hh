/**
 * @file
 * Configuration types shared by the inference engines.
 */

#ifndef MNNFAST_CORE_CONFIG_HH
#define MNNFAST_CORE_CONFIG_HH

#include <cstddef>
#include <functional>

namespace mnnfast::core {

/** Which inference dataflow to run. */
enum class EngineKind {
    /** Layer-at-a-time with full intermediate vectors (paper Fig 5a). */
    Baseline,
    /** Column-based lazy-softmax chunking (paper Fig 5b). */
    Column,
    /** Column-based plus chunk streaming (prefetch). */
    ColumnStreaming,
    /** Column + streaming + zero-skipping: full MnnFast. */
    MnnFast,
};

/** Human-readable engine name. */
const char *engineKindName(EngineKind kind);

/**
 * Coarse-then-fine candidate selection over KB chunks (DESIGN.md §11).
 *
 * When enabled, the column engine builds a core::ChunkSummaryIndex
 * over M_IN (lazily, rebuilt when the KB grows) and scores every chunk
 * per question with the envelope's max-inner-product upper bound
 * before streaming; only selected (question, chunk) pairs run the
 * fused phase-1..3 kernels. Selection is *per chunk group* (the same
 * fixed group decomposition the scheduler uses), which is what makes
 * routing compose bit-identically with sharding: an engine over shard
 * s sees exactly group s's rows and therefore makes exactly group s's
 * selection. With threads = 0 and scheduleGroups defaulted, one group
 * spans the whole KB and selection is global.
 */
enum class RoutePolicy {
    /** Stream every chunk (exact attention; the default). */
    None,
    /**
     * Per question, stream the routeTopK highest-bound chunks of each
     * chunk group (ties broken toward the lower chunk index). k >=
     * group chunk count streams everything — bit-identical to None.
     */
    TopK,
    /**
     * Per question, stream chunks whose bound is within
     * ln(routeBoundThreshold) of the group's best bound — i.e. chunks
     * that could still hold a row with softmax weight at least
     * routeBoundThreshold times the (bound-estimated) max. Threshold
     * 0 keeps every chunk — bit-identical to None.
     */
    BoundThreshold,
};

/** Human-readable routing-policy name. */
const char *routePolicyName(RoutePolicy policy);

/** Tunables of a single inference engine instance. */
struct EngineConfig
{
    /** Sentences per chunk (column-based engines). Paper: 1000. */
    size_t chunkSize = 1000;
    /**
     * Zero-skipping threshold on the normalized probability; 0
     * disables skipping. Paper: 0.1.
     */
    float skipThreshold = 0.0f;
    /** Enable software prefetch of the next chunk (streaming). */
    bool streaming = false;
    /**
     * Number of worker threads (0 = run inline on the caller).
     * Column engines parallelize across chunks; the baseline engine
     * parallelizes each layer step across rows, as in the paper's
     * PThread implementation.
     */
    size_t threads = 0;
    /**
     * Online max-rescaling inside the lazy softmax. The paper's
     * single-pass formulation divides by sum(e^{x_i}) without a max
     * guard; enabling this keeps the single-pass/streaming property
     * but rescales accumulators when a new running max appears, which
     * is algebraically equivalent and numerically safe for large
     * logits. Off by default for paper fidelity.
     */
    bool onlineNormalize = false;
    /**
     * Rows per kernel call in the column engine's strip sweeps. 0
     * (the default) defers to the autotuned plan from
     * runtime::KernelTuner. A nonzero override must be a positive
     * multiple of 4 — the kernels' register-group width — and is
     * validated at engine construction (fatal otherwise): a silently
     * rounded pin would run a different strip size than the caller
     * benchmarked. Any valid override yields output bit-identical to
     * every other strip choice.
     */
    size_t stripRows = 0;
    /**
     * Streaming-prefetch pacing: one prefetch instruction every this
     * many cache lines of the next chunk's rows. -1 (the default)
     * defers to the autotuned plan; 0 issues no prefetches. Positive
     * pins must come from the tuner's candidate set
     * (runtime::kPrefetchStrideCandidates), validated at engine
     * construction (fatal otherwise) so pinned configurations stay
     * comparable with tuned ones. Pacing never affects results, only
     * wall-clock.
     */
    int prefetchStride = -1;
    /**
     * Number of chunk groups the column engine decomposes the KB into
     * (clamped to the chunk count). 0 = auto: 4x the worker count, so
     * dynamic scheduling has slack to rebalance while per-group merge
     * state stays small. Must be equal between two runs for their
     * outputs to be bit-identical.
     */
    size_t scheduleGroups = 0;
    /**
     * Optional instrumentation hook, invoked from worker threads once
     * per processed chunk with the executing worker slot (unique among
     * concurrent workers) and the global chunk index. Used by tests to
     * observe scheduling behaviour and by callers that want progress
     * reporting; must be thread-safe. Leave empty to disable.
     */
    std::function<void(size_t worker, size_t chunk)> chunkObserver;
    /**
     * Coarse-then-fine candidate selection policy (see RoutePolicy).
     * None streams the full KB; TopK/BoundThreshold score chunks with
     * the summary-index bound and stream only candidates. Routing
     * composes with every other knob (precision, zskip, streaming,
     * threads, sharding).
     */
    RoutePolicy routePolicy = RoutePolicy::None;
    /**
     * Chunks streamed per question *per chunk group* under
     * RoutePolicy::TopK. 0 under TopK is a configuration error
     * (fatal at construction); values >= the group's chunk count
     * stream everything.
     */
    size_t routeTopK = 0;
    /**
     * Relative bound threshold in [0, 1] under
     * RoutePolicy::BoundThreshold: a chunk streams iff its bound
     * score >= group best bound + ln(threshold). 1 keeps only chunks
     * tied with the best bound; 0 keeps everything (ln 0 = -inf —
     * exact attention); values outside [0, 1] are fatal at
     * construction.
     */
    float routeBoundThreshold = 0.0f;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_CONFIG_HH
