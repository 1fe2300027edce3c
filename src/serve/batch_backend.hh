/**
 * @file
 * The serving-side contract for a batch execution backend — the one
 * seam every serve::LiveServer mode runs through, which also lets the
 * server dispatch to a remote cluster front end without the serve
 * library depending on net/.
 *
 * A BatchBackend executes question batches on a fixed number of
 * *lanes*. LiveServer runs one worker-pull loop per lane: the loop
 * pops a batch only when its lane is free and answers it with one
 * synchronous inferBatch(lane, ...) call, so at most lanes() batches
 * are out of the admission queue at any instant.
 *
 * Implementations:
 *
 *  - LiveServer's private in-process backend: `workers` lanes over
 *    one full-KB ColumnEngine each (replicated mode), or one lane
 *    over a ColumnEngine with one chunk group per shard (sharded
 *    mode);
 *  - net::ClusterFrontEnd: pipelineDepth lanes sharing one in-flight
 *    window, so W lanes keep W batches scattered at once and the
 *    scatter of batch k+1 overlaps the gather of batch k. Its
 *    lossless path is bit-identical to an in-process ShardedEngine
 *    over the same partition.
 *
 * Threading contract: each lane is driven by at most one thread at a
 * time; distinct lanes may be driven concurrently. countersInto() may
 * be called from any thread while lanes run.
 */

#ifndef MNNFAST_SERVE_BATCH_BACKEND_HH
#define MNNFAST_SERVE_BATCH_BACKEND_HH

#include <cstddef>
#include <cstdint>

#include "serve/latency_recorder.hh"

namespace mnnfast::serve {

/** Outcome of one batch. */
struct BatchResult
{
    /** Every shard contributed (bit-identity holds iff true). */
    bool complete = false;
    /** Shards merged into the answer; 0 means the batch failed and
     *  the output buffer was not written. */
    uint32_t shardsAnswered = 0;
    /** Bit s set = remote shard s contributed to the merged answer;
     *  zero for in-process execution. */
    uint32_t shardMask = 0;
};

/** Lane-parallel synchronous batch executor. See header. */
class BatchBackend
{
  public:
    virtual ~BatchBackend() = default;

    /** Lanes that may run batches concurrently (>= 1). */
    virtual size_t lanes() const = 0;

    /**
     * Answer one batch on `lane` (< lanes()): `u` holds nq x ed
     * questions row-major, `o` receives nq x ed answers and is
     * written iff the result's shardsAnswered > 0. Blocks until the
     * batch settled.
     */
    virtual BatchResult inferBatch(size_t lane, const float *u,
                                   size_t nq, size_t ed, float *o) = 0;

    /**
     * Fold the backend's *counters* — per-shard RPC counters, partial
     * answers, failed batches — into `acc` without touching its
     * histograms, so a serving layer can compose a snapshot from a
     * recorder of different histogram geometry. Thread-safe.
     */
    virtual void countersInto(LatencyRecorder &acc) const = 0;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_BATCH_BACKEND_HH
