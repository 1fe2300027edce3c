#include "serve/live_server.hh"

#include <cstring>
#include <utility>

#include "core/column_engine.hh"
#include "util/logging.hh"

namespace mnnfast::serve {

namespace {

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * The in-process backend: one lane per replicated ColumnEngine, or
 * one lane over a ColumnEngine with one chunk group per shard, whose
 * `workers`-thread pool scatters each batch across the shards (see
 * the file header of live_server.hh).
 */
class LocalBackend final : public BatchBackend
{
  public:
    LocalBackend(const core::KnowledgeBase &kb,
                 const LiveServerConfig &cfg)
    {
        if (cfg.workers == 0)
            fatal("live server needs a nonzero worker count");
        if (kb.size() == 0)
            fatal("live server needs a non-empty knowledge base");
        core::EngineConfig ecfg = cfg.engine;
        size_t lanes = cfg.workers;
        if (cfg.shards >= 2) {
            // One lane; it blocks inside the scatter, so the active
            // thread count matches the replicated mode's.
            ecfg.threads = cfg.workers;
            ecfg.scheduleGroups = cfg.shards;
            lanes = 1;
        }
        engines.reserve(lanes);
        for (size_t i = 0; i < lanes; ++i)
            engines.push_back(
                std::make_unique<core::ColumnEngine>(kb, ecfg));
    }

    size_t lanes() const override { return engines.size(); }

    BatchResult
    inferBatch(size_t lane, const float *u, size_t nq, size_t /*ed*/,
               float *o) override
    {
        engines[lane]->inferBatch(u, nq, o);
        // The whole KB answered: in-process execution never fails.
        return BatchResult{true, 1, 0};
    }

    void countersInto(LatencyRecorder & /*acc*/) const override {}

  private:
    std::vector<std::unique_ptr<core::ColumnEngine>> engines;
};

} // namespace

LiveServer::LiveServer(const core::KnowledgeBase &kb,
                       const LiveServerConfig &cfg)
    : LiveServer(std::make_unique<LocalBackend>(kb, cfg), nullptr,
                 kb.dim(), cfg)
{
}

LiveServer::LiveServer(BatchBackend &backend_, size_t embedding_dim,
                       const LiveServerConfig &cfg)
    : LiveServer(nullptr, &backend_, embedding_dim, cfg)
{
}

LiveServer::LiveServer(std::unique_ptr<BatchBackend> local_,
                       BatchBackend *external, size_t embedding_dim,
                       const LiveServerConfig &cfg)
    : local(std::move(local_)), backend(local ? *local : *external),
      ed(embedding_dim), cfg(cfg),
      timeoutNs(std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(cfg.batchTimeout))),
      queue(cfg.queueCapacity), pool(backend.lanes())
{
    if (cfg.maxBatch == 0)
        fatal("live server needs a nonzero batch cap");
    if (cfg.batchTimeout < 0.0)
        fatal("batch timeout must be non-negative");
    if (ed == 0)
        fatal("live server needs a nonzero embedding dim");

    lanes.reserve(backend.lanes());
    for (size_t i = 0; i < backend.lanes(); ++i)
        lanes.push_back(std::make_unique<Lane>(cfg));
    for (size_t i = 0; i < lanes.size(); ++i)
        pool.submit([this, i] { laneLoop(i); });
}

LiveServer::~LiveServer()
{
    shutdown();
}

Ticket
LiveServer::submit(const float *u)
{
    // An arrival is counted only after its outcome — queued, or its
    // refusal counted — so a snapshot never sees an arrival that is
    // neither refused nor physically queued (see snapshot()).
    const auto refuse = [this](std::atomic<uint64_t> &cause,
                               SubmitStatus status) {
        cause.fetch_add(1, std::memory_order_relaxed);
        arrived.fetch_add(1, std::memory_order_release);
        Ticket refused;
        refused.status = status;
        return refused;
    };
    if (stopping.load(std::memory_order_acquire))
        return refuse(rejectedShutdown, SubmitStatus::ShuttingDown);

    Request req;
    req.u.assign(u, u + ed);
    std::future<Answer> answer = req.promise.get_future();
    if (!queue.tryPush(std::move(req))) {
        // Full queue or a close that raced with the stopping check;
        // either way the request was not admitted and the (unused)
        // promise dies with `req`. Attribute the refusal to its cause
        // so backpressure metrics stay clean of shutdown noise.
        if (queue.isClosed())
            return refuse(rejectedShutdown, SubmitStatus::ShuttingDown);
        return refuse(rejectedFull, SubmitStatus::Rejected);
    }
    arrived.fetch_add(1, std::memory_order_release);
    Ticket ticket;
    ticket.status = SubmitStatus::Accepted;
    ticket.answer = std::move(answer);
    return ticket;
}

void
LiveServer::laneLoop(size_t lane)
{
    Lane &l = *lanes[lane];
    std::vector<RequestQueue<Request>::Entry> batch;
    std::vector<float> uflat;
    std::vector<float> oflat;
    std::vector<double> waits;

    // The dispatch critical path — everything between popBatch and
    // the last set_value — is kept lean: single-request batches (the
    // serial policy, and any low-load partial dispatch) infer straight
    // from the request's question buffer into the answer's, skipping
    // the flatten/unflatten copies; queue waits are computed once into
    // a reused buffer; and the recorder update runs only after every
    // waiting client has been released, off the critical path.
    while (queue.popBatch(cfg.maxBatch, timeoutNs, batch)) {
        const auto dispatched = std::chrono::steady_clock::now();
        const size_t n = batch.size();
        waits.resize(n);
        for (size_t i = 0; i < n; ++i)
            waits[i] = secondsBetween(batch[i].enqueued, dispatched);

        std::vector<float> single; // n == 1: the answer buffer itself
        const float *u = batch[0].item.u.data();
        float *o;
        if (n == 1) {
            single.resize(ed);
            o = single.data();
        } else {
            uflat.resize(n * ed);
            oflat.resize(n * ed);
            for (size_t i = 0; i < n; ++i)
                std::memcpy(uflat.data() + i * ed,
                            batch[i].item.u.data(), ed * sizeof(float));
            u = uflat.data();
            o = oflat.data();
        }
        const BatchResult r = backend.inferBatch(lane, u, n, ed, o);
        const double service =
            secondsBetween(dispatched, std::chrono::steady_clock::now());

        // A failed batch still fulfills every future (empty output,
        // Answer::failed set), so accepted-request conservation holds
        // under every backend fault.
        const bool failed = r.shardsAnswered == 0;
        for (size_t i = 0; i < n; ++i) {
            Answer a;
            if (!failed && n == 1)
                a.o = std::move(single);
            else if (!failed)
                a.o.assign(o + i * ed, o + (i + 1) * ed);
            a.batchSize = n;
            a.queueWaitSeconds = waits[i];
            a.serviceSeconds = service;
            a.failed = failed;
            a.shardMask = r.shardMask;
            batch[i].item.promise.set_value(std::move(a));
        }

        // Every fulfilled future is a completion — failed batches
        // included, so `completed + rejected == arrived` holds exactly
        // after shutdown (Answer::failed carries the quality signal;
        // a cluster backend's own recorder keeps fail-closed timings
        // out of its success histograms).
        {
            std::lock_guard<std::mutex> lock(l.recorderMutex);
            l.recorder.recordBatch(n);
            for (size_t i = 0; i < n; ++i)
                l.recorder.recordRequest(waits[i], service,
                                         waits[i] + service);
        }
    }
}

void
LiveServer::shutdown()
{
    std::call_once(shutdownOnce, [this] {
        // Order matters: refuse new admissions, then wake the lanes
        // so they drain the queue as immediate partial batches, then
        // wait for the last batch to complete. popBatch returns false
        // only once the queue is closed *and* empty, so no accepted
        // request can be left behind.
        stopping.store(true, std::memory_order_release);
        queue.close();
        pool.waitIdle();
    });
}

LatencySnapshot
LiveServer::snapshot() const
{
    // Latch the admission counters *before* merging the completion
    // histograms — arrived first (acquire: every refusal and every
    // queue push counted in it is visible below), then the rejection
    // split. See the header for the backlog guarantee this buys.
    const uint64_t a = arrived.load(std::memory_order_acquire);
    const uint64_t rf = rejectedFull.load(std::memory_order_relaxed);
    const uint64_t rs =
        rejectedShutdown.load(std::memory_order_relaxed);

    LatencyRecorder merged(cfg.histogramMaxSeconds, cfg.histogramBins);
    for (const auto &l : lanes) {
        std::lock_guard<std::mutex> lock(l->recorderMutex);
        l->recorder.mergeInto(merged);
    }
    backend.countersInto(merged);
    LatencySnapshot s = merged.snapshot();
    s.arrived = a;
    s.rejectedFull = rf;
    s.rejectedShutdown = rs;
    s.rejected = rf + rs;
    return s;
}

} // namespace mnnfast::serve
