/**
 * @file
 * The live QA serving runtime: a real, multi-threaded counterpart of
 * the discrete-event simulator in qa_server.hh.
 *
 *   clients --submit()--> RequestQueue --popBatch()--> lanes --> BatchBackend
 *                         (bounded,      (size cap +    (one pull  (replicated,
 *                          rejects        oldest-Q       loop per   sharded or
 *                          when full)     timeout)       lane)      cluster)
 *
 * Admission. submit() copies the question vector, stamps it, and
 * offers it to a bounded queue. A full (or closing) queue rejects the
 * request immediately — backpressure by refusal, never by blocking
 * the client — and the rejection is counted, split by cause
 * (queue-full vs. shutdown) so overload metrics are not polluted by
 * clean shutdowns. An accepted request returns a std::future<Answer>
 * that is guaranteed to become ready: shutdown drains the queue
 * before the workers exit, so every accepted request is answered
 * exactly once (tested).
 *
 * Batching. Lanes pull batches with RequestQueue::popBatch, whose
 * dispatch rule — release at `maxBatch` pending or when the oldest
 * pending request has waited `batchTimeout` — is the same policy the
 * simulator implements in simulated time. This is deliberate: the
 * serving claim inherited from the paper is that a batch shares one
 * streaming pass over the knowledge base (t(n) = base + n * slope),
 * and keeping the policies identical lets bench/serving_live replay
 * one workload through both and compare the model against wall-clock
 * reality.
 *
 * Execution: one serving loop over N lanes. Every mode runs the same
 * worker-pull loop on each lane of a BatchBackend
 * (serve/batch_backend.hh): the loop pops a batch only when its lane
 * is free, answers it with one synchronous
 * BatchBackend::inferBatch(lane, ...) call, fulfills the batch's
 * promises and records it. Modes differ only in the backend:
 *
 *  - Replicated (shards <= 1): a private in-process backend with
 *    `workers` lanes, each owning a ColumnEngine over the whole
 *    (read-only) KB, so concurrent batches proceed independently —
 *    but N lanes stream the KB N times, paying redundant bandwidth
 *    (the paper's §6 scalability critique).
 *  - Sharded (shards >= 2): one lane drives one ColumnEngine over the
 *    whole KB with scheduleGroups = shards and a `workers`-thread
 *    pool: each chunk group is a chunk-aligned shard, the pool
 *    streams one shard per worker, and the engine's group merge
 *    gathers the online-softmax partials in canonical shard order —
 *    the in-process scatter/gather a core::ShardedEngine names. One
 *    batch at a time, each KB byte streamed once per batch — and the
 *    answers are bit-identical to a replicated lane configured with
 *    engine.scheduleGroups = shards (see sharded_engine.hh).
 *  - Cluster (the BatchBackend constructor): the backend is supplied
 *    by the caller — canonically a net::ClusterFrontEnd over shard
 *    node processes, whose lanes are its in-flight window W, so W
 *    lanes keep W batches scattered while batches retire in FIFO
 *    order. Its lossless path is bit-identical to the sharded mode
 *    over the same partition. A batch the backend fails closed still
 *    fulfills its futures — with Answer::failed set and an empty
 *    output — so accepted-request conservation holds under every
 *    fault. Per-shard RPC counters, partial-answer and failed-batch
 *    totals are threaded into snapshot() via
 *    BatchBackend::countersInto.
 *
 * Because a lane pops only when free, at most lanes x maxBatch
 * accepted requests are outside the bounded queue in every mode —
 * the physical bound snapshot() documents. Engines hold scratch state
 * and are not thread-safe, but each lane drives its own, and the KB
 * is immutable while serving, so lanes scale without locking. Lane
 * threads come from a runtime::ThreadPool; per-engine ScratchArenas
 * reach steady state after the first batch, so the serving loop is
 * allocation-quiet.
 *
 * Observability. Each lane updates a private LatencyRecorder
 * (queue-wait / service / end-to-end histograms + batch counters)
 * under a per-slot mutex that snapshot() also takes, so a live
 * snapshot is always consistent; admission counters (arrived,
 * rejectedFull, rejectedShutdown) are atomics on the submit path.
 * snapshot() latches the admission counters *before* merging the
 * completion histograms — see LiveServer::snapshot for the ordering
 * guarantee that buys.
 */

#ifndef MNNFAST_SERVE_LIVE_SERVER_HH
#define MNNFAST_SERVE_LIVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hh"
#include "core/knowledge_base.hh"
#include "runtime/thread_pool.hh"
#include "serve/batch_backend.hh"
#include "serve/latency_recorder.hh"
#include "serve/request_queue.hh"

namespace mnnfast::serve {

/** Outcome of one submit() call. */
enum class SubmitStatus {
    Accepted,     ///< queued; the ticket's future will become ready
    Rejected,     ///< bounded queue full — backpressure, try later
    ShuttingDown, ///< server is draining; no new admissions
};

/** A completed request: the response vector plus its timings. */
struct Answer
{
    std::vector<float> o;          ///< ed-dimensional response
    size_t batchSize = 0;          ///< size of the batch it rode in
    double queueWaitSeconds = 0.0; ///< enqueue -> batch dispatch
    double serviceSeconds = 0.0;   ///< the backend call (batch-shared)
    /** The backend failed the batch closed (BatchResult::shardsAnswered
     *  was 0) and `o` is empty. Only a cluster backend fails; the
     *  in-process backend always answers. */
    bool failed = false;
    /** BatchResult::shardMask of the batch: bit s set = remote shard s
     *  contributed to `o`. Zero for in-process modes and failed
     *  batches. */
    uint32_t shardMask = 0;
};

/** submit() result: a status and, when accepted, the answer future. */
struct Ticket
{
    SubmitStatus status = SubmitStatus::Rejected;
    std::future<Answer> answer; ///< valid only when accepted()

    bool accepted() const { return status == SubmitStatus::Accepted; }
};

/** Live-runtime tunables; the batching fields mirror ServerConfig. */
struct LiveServerConfig
{
    /** Maximum questions per dispatched batch. */
    size_t maxBatch = 32;
    /** Dispatch a partial batch once its oldest question waited this
     *  long (seconds). Zero means dispatch immediately when nonempty. */
    double batchTimeout = 2.0e-3;
    /** Engine workers. Replicated mode: independent lanes, each
     *  owning a private full-KB ColumnEngine. Sharded mode: the
     *  thread count of the single lane's grouped ColumnEngine. */
    size_t workers = 1;
    /** Knowledge-base shards for scatter/gather dispatch. 0 or 1
     *  keeps the replicated mode; >= 2 splits the KB into that many
     *  chunk groups (boundaries aligned to engine.chunkSize) and
     *  scatters every batch across the worker pool, one shard per
     *  worker. See the file header. */
    size_t shards = 0;
    /** Bounded-queue capacity; submissions beyond it are rejected. */
    size_t queueCapacity = 1024;
    /** Per-worker engine tunables (threads=0 keeps engines inline —
     *  parallelism comes from serving concurrent batches or, in
     *  sharded mode, from the scatter pool; nested pools would
     *  oversubscribe the cores). Coarse routing flows through here
     *  too: set engine.routePolicy / routeTopK / routeBoundThreshold
     *  and every lane routes — replicated lanes select per chunk
     *  group of their engine (globally by default), sharded scatter
     *  selects per shard, i.e. per group of its grouped engine (see
     *  sharded_engine.hh). */
    core::EngineConfig engine;
    /** Latency histogram range; samples above land in overflow (and
     *  clamp quantiles to the range — the exact max is still kept). */
    double histogramMaxSeconds = 0.5;
    /** Latency histogram resolution. The default (~7.6 us bins over
     *  0.5 s) resolves microsecond-scale engine latencies while still
     *  covering deep-overload queueing; 3 histograms x 8 B bins is
     *  ~1.5 MiB per lane. */
    size_t histogramBins = 65536;
};

/** The live serving runtime. See file header. */
class LiveServer
{
  public:
    /**
     * In-process modes: start one lane per replicated worker, or one
     * sharded lane (see file header). The knowledge base must be
     * non-empty, must not be mutated while the server runs, and must
     * outlive it.
     */
    LiveServer(const core::KnowledgeBase &kb,
               const LiveServerConfig &cfg);

    /**
     * Cluster mode: run backend.lanes() lanes through `backend`
     * (canonically a net::ClusterFrontEnd) instead of in-process
     * engines. The backend must outlive the server and be used by
     * nothing else while serving (the server drives its lanes).
     * `embedding_dim` is the question width submit() expects;
     * cfg.workers/shards/engine are ignored (execution lives behind
     * the backend).
     */
    LiveServer(BatchBackend &backend, size_t embedding_dim,
               const LiveServerConfig &cfg);

    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    /** Drains and stops (equivalent to shutdown()). */
    ~LiveServer();

    /**
     * Submit one question (ed floats, copied). Never blocks: returns
     * Rejected when the bounded queue is full and ShuttingDown once
     * shutdown began.
     */
    Ticket submit(const float *u);

    /**
     * Stop admissions, serve every already-accepted request, and join
     * the lanes. Idempotent; after it returns, every accepted future
     * is ready and the counters are final.
     */
    void shutdown();

    /**
     * Consistent service-wide statistics (callable while serving).
     *
     * Ordering guarantee: the admission counters (arrived, then the
     * rejection split) are latched *before* the completion histograms
     * are merged, and submit() counts an arrival only once it is
     * queued or its refusal is counted. Every admitted request lives
     * in the bounded queue or a lane's batch until its completion is
     * recorded, so the apparent backlog `arrived - rejected -
     * completed` never exceeds queueCapacity + engineSlots * maxBatch
     * — a snapshot can show a
     * just-completed request as completed-but-not-yet-arrived
     * (transiently *under*-counting the backlog) but never reports
     * phantom in-flight requests (the artifact of the reverse order).
     * After shutdown(), arrived == rejected + completed exactly.
     */
    LatencySnapshot snapshot() const;

    /** Embedding dimension submit() expects. */
    size_t embeddingDim() const { return ed; }

    /** False once shutdown has begun. */
    bool accepting() const { return !stopping.load(); }

    /** True when batches are scattered across a sharded KB. */
    bool sharded() const { return cfg.shards >= 2; }

    /** True when batches run on a caller-supplied BatchBackend. */
    bool remote() const { return local == nullptr; }

    /** Lanes, i.e. batches that can be out of the queue at once:
     *  cfg.workers replicated, 1 sharded, the window W over a
     *  cluster front end. */
    size_t engineSlots() const { return lanes.size(); }

    const LiveServerConfig &config() const { return cfg; }

  private:
    struct Request
    {
        std::vector<float> u;
        std::promise<Answer> promise;
    };

    /** One lane's privately-written recorder. */
    struct Lane
    {
        explicit Lane(const LiveServerConfig &cfg)
            : recorder(cfg.histogramMaxSeconds, cfg.histogramBins)
        {}

        LatencyRecorder recorder;
        std::mutex recorderMutex; ///< lane writes vs snapshot reads
    };

    /** Both public constructors land here: `local` owns the
     *  in-process backend, or is null and `external` is used. */
    LiveServer(std::unique_ptr<BatchBackend> local,
               BatchBackend *external, size_t embedding_dim,
               const LiveServerConfig &cfg);

    void laneLoop(size_t lane);

    std::unique_ptr<BatchBackend> local; ///< null in cluster mode
    BatchBackend &backend;
    size_t ed; ///< question width
    LiveServerConfig cfg;
    std::chrono::nanoseconds timeoutNs;

    RequestQueue<Request> queue;
    std::vector<std::unique_ptr<Lane>> lanes;

    std::atomic<uint64_t> arrived{0};
    std::atomic<uint64_t> rejectedFull{0};
    std::atomic<uint64_t> rejectedShutdown{0};
    std::atomic<bool> stopping{false};
    std::once_flag shutdownOnce;

    // Declared last so the pool (and its lane loops, which touch
    // every member above) is torn down first.
    runtime::ThreadPool pool;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_LIVE_SERVER_HH
