/**
 * @file
 * Serving-side observability: per-worker latency histograms and
 * monotonic counters, merged into a service-wide snapshot.
 *
 * Each engine worker owns one LatencyRecorder and updates it without
 * synchronization (a worker is the only writer of its recorder while
 * the server runs). Three latency axes are tracked per completed
 * request — queue wait (enqueue -> batch dispatch), service (the
 * engine call, shared by the batch), and end-to-end (enqueue ->
 * completion) — in identical-geometry stats::Histograms so snapshots
 * can merge them across workers with Histogram::merge and read
 * p50/p95/p99 off Histogram::quantile. Counters follow the
 * stats::Counter idiom: arrived / completed / rejected at admission,
 * batches and batched-question totals per worker.
 *
 * LatencySnapshot is plain data plus a toJson() serializer, so benches
 * and examples export the same numbers the tests assert on.
 */

#ifndef MNNFAST_SERVE_LATENCY_RECORDER_HH
#define MNNFAST_SERVE_LATENCY_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/histogram.hh"

namespace mnnfast::serve {

/**
 * Per-shard RPC accounting for cluster serving (net::ClusterFrontEnd
 * writes these; zero and absent for in-process serving). Counters
 * follow the stats::Counter idiom: monotone, merged by addition.
 */
struct RpcShardCounters
{
    uint64_t rpcs = 0;           ///< scatter sends (incl. retries/hedges)
    uint64_t hedgesFired = 0;    ///< backup requests launched
    uint64_t hedgeWins = 0;      ///< responses won by the backup
    uint64_t failovers = 0;      ///< replica switches (timeout/disconnect)
    uint64_t deadlineMisses = 0; ///< batches this shard never answered

    void
    addFrom(const RpcShardCounters &o)
    {
        rpcs += o.rpcs;
        hedgesFired += o.hedgesFired;
        hedgeWins += o.hedgeWins;
        failovers += o.failovers;
        deadlineMisses += o.deadlineMisses;
    }
};

/** Merged quantile view of one latency axis. */
struct LatencyQuantiles
{
    uint64_t count = 0;
    double mean = 0.0; ///< seconds
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0; ///< largest recorded sample (exact, not binned)
};

/** Service-wide view at one instant; see LiveServer::snapshot(). */
struct LatencySnapshot
{
    uint64_t arrived = 0;  ///< submit() calls, accepted or not
    /**
     * Total refusals (== rejectedFull + rejectedShutdown). Kept so
     * existing consumers see one number; the split below is what
     * overload analysis should read — a clean shutdown refusing
     * late submissions is not backpressure.
     */
    uint64_t rejected = 0;
    uint64_t rejectedFull = 0;     ///< bounded queue at capacity
    uint64_t rejectedShutdown = 0; ///< server was draining
    uint64_t completed = 0;        ///< futures fulfilled
    uint64_t batches = 0;   ///< engine dispatches
    double meanBatchSize = 0.0;

    LatencyQuantiles queueWait;
    LatencyQuantiles service;
    LatencyQuantiles endToEnd;

    /**
     * Cluster RPC accounting: slot s = shard s. Empty for in-process
     * serving (the JSON export then omits the "rpc" block entirely,
     * keeping existing consumers unchanged).
     */
    std::vector<RpcShardCounters> rpcShards;
    /** Questions answered from a strict subset of the shards. */
    uint64_t partialAnswers = 0;
    /**
     * Batches that failed closed (no shard subset merged, output
     * untouched). Their timings are deliberately *absent* from the
     * latency histograms above: a deadline-capped failure recorded as
     * a "completion" would pin the success quantiles at the deadline
     * exactly when the tail matters most.
     */
    uint64_t failedBatches = 0;

    /** Sum of rpcShards (all shards). */
    RpcShardCounters rpcTotals() const;

    /** Serialize every field as one pretty-printed JSON object. */
    std::string toJson(int indent = 0) const;
};

/**
 * One worker's latency record. Not thread-safe: a recorder has exactly
 * one writer (its worker); aggregation happens after the workers have
 * quiesced or via mergeInto on a caller-synchronized copy.
 */
class LatencyRecorder
{
  public:
    /**
     * @param maxSeconds Histogram range upper bound; samples at or
     *                   above it land in the overflow bucket (and clamp
     *                   quantiles to maxSeconds).
     * @param bins       Histogram resolution.
     */
    explicit LatencyRecorder(double maxSeconds = 1.0, size_t bins = 4096);

    /** Record one completed request's three latency axes (seconds). */
    void recordRequest(double queue_wait, double service,
                       double end_to_end);

    /** Record one dispatched batch of n requests. */
    void recordBatch(size_t n);

    /**
     * Mutable RPC counters of shard `s` (the vector grows on demand).
     * Single-writer like the histograms: the recorder's owner
     * updates, aggregation happens via mergeInto.
     */
    RpcShardCounters &rpcShard(size_t s);

    /** Record `n` questions answered without every shard. */
    void recordPartialAnswers(uint64_t n) { partialAnswerCount += n; }

    /** Record one batch that failed closed (kept out of the latency
     *  histograms — see LatencySnapshot::failedBatches). */
    void recordFailedBatch() { ++failedBatchCount; }

    /** Fold this recorder into an accumulating snapshot builder.
     *  Histogram geometries must match (Histogram::merge checks). */
    void mergeInto(LatencyRecorder &acc) const;

    /**
     * Fold only the monotone counters — per-shard RPC counters,
     * partial answers, failed batches — into `acc`, leaving its
     * histograms and batch totals untouched. This is how a serving
     * layer composes a snapshot from a backend whose recorder has a
     * different histogram geometry (see BatchBackend::countersInto).
     */
    void mergeCountersInto(LatencyRecorder &acc) const;

    /** Render the merged quantile views. */
    LatencySnapshot snapshot() const;

    uint64_t batches() const { return batchCount; }
    uint64_t batchedQuestions() const { return questionCount; }

  private:
    static LatencyQuantiles quantilesOf(const stats::Histogram &h,
                                        double max_sample);

    stats::Histogram queueWaitHist;
    stats::Histogram serviceHist;
    stats::Histogram endToEndHist;
    double queueWaitMax = 0.0;
    double serviceMax = 0.0;
    double endToEndMax = 0.0;
    uint64_t batchCount = 0;
    uint64_t questionCount = 0;
    std::vector<RpcShardCounters> rpcShardCounters;
    uint64_t partialAnswerCount = 0;
    uint64_t failedBatchCount = 0;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_LATENCY_RECORDER_HH
