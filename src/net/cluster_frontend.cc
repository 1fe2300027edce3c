#include "net/cluster_frontend.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "util/logging.hh"

namespace mnnfast::net {

namespace detail {

/**
 * Per-shard fetch state, owned by one fetch thread (single writer).
 * Holds the connection, replica cursor, hedge latency model, and the
 * shard's job queue (guarded by the front end's mutex).
 */
struct ShardFetcher
{
    size_t shard = 0;
    std::vector<std::string> replicas;
    size_t current = 0; ///< replica cursor (advanced by failover)

    std::unique_ptr<Channel> channel;      ///< current replica
    std::unique_ptr<Channel> hedgeChannel; ///< outstanding backup
    size_t hedgeReplica = 0;

    /** Observed RPC latencies; drives the hedge delay quantile. */
    stats::Histogram rpcLatency;
    static constexpr uint64_t kMinSamplesForQuantile = 16;

    /** Pending batches for this shard, oldest first (front-end mutex
     *  guards it; the fetch thread drains it serially). */
    std::deque<void *> jobs;

    /**
     * Send-ahead bookkeeping (fetch-thread private). Queued jobs are
     * pushed onto the current channel as soon as it is idle —
     * `sentAhead` maps their requestId to the send instant — so the
     * node computes batch k+1 while the gather of batch k is still in
     * flight; that overlap is what keeps the round trip off the
     * pipeline's critical path. The node answers a channel's requests
     * in FIFO order, so a response that arrives while an earlier job
     * is draining belongs to a send-ahead: it is stashed in `early`
     * (keyed by requestId, latency sampled at arrival) until its job
     * becomes active. Both maps die with the connection (`sentAhead`
     * — the requests were lost with it) or once their id retires
     * (`early`).
     */
    std::map<uint64_t, NetClock::time_point> sentAhead;
    std::map<uint64_t, core::StreamPartial> early;

    explicit ShardFetcher(double timeout_seconds)
        : rpcLatency(0.0, std::max(timeout_seconds, 1e-3), 512)
    {
    }
};

} // namespace detail

namespace {

/** Recv slice while racing a primary against a hedge connection. */
constexpr double kHedgeRaceSliceSeconds = 1e-3;

/** Batch-latency histogram resolution. */
constexpr size_t kRecorderBins = 4096;

/**
 * Batch-latency histogram range: a batch's submit-to-retire time is
 * bounded by its own fetch deadline plus up to (window - 1) deadlines
 * of the batches queued ahead of it on the slowest shard, so the
 * range scales with both — a fixed 1 s ceiling would saturate the
 * top bin (and clamp every quantile) exactly when latency matters.
 */
double
derivedHistogramMax(const ClusterConfig &cfg)
{
    const double depth =
        static_cast<double>(std::max<size_t>(cfg.pipelineDepth, 1));
    return std::max(1e-3, cfg.requestTimeoutSeconds * (depth + 1.0));
}

} // namespace

ClusterFrontEnd::ClusterFrontEnd(Transport &transport_,
                                 const ClusterConfig &cfg_)
    : transport(transport_), cfg(cfg_),
      histogramMaxSeconds(derivedHistogramMax(cfg_)),
      recorder(histogramMaxSeconds, kRecorderBins)
{
    if (cfg.replicas.empty())
        fatal("cluster front end needs at least one shard");
    if (cfg.replicas.size() > 32)
        fatal("cluster front end supports at most 32 shards (got %zu)",
              cfg.replicas.size());
    for (size_t s = 0; s < cfg.replicas.size(); ++s)
        if (cfg.replicas[s].empty())
            fatal("shard %zu has no replica endpoints", s);
    if (cfg.pipelineDepth == 0)
        cfg.pipelineDepth = 1; // serial

    fetchers.reserve(cfg.replicas.size());
    for (size_t s = 0; s < cfg.replicas.size(); ++s) {
        auto f = std::make_unique<detail::ShardFetcher>(
            cfg.requestTimeoutSeconds);
        f->shard = s;
        f->replicas = cfg.replicas[s];
        fetchers.push_back(std::move(f));
    }
    threads.reserve(fetchers.size());
    for (size_t s = 0; s < fetchers.size(); ++s)
        threads.emplace_back([this, s] { fetchLoop(s); });
}

ClusterFrontEnd::~ClusterFrontEnd()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        mnn_assert(window.empty(),
                   "cluster front end destroyed with unretired "
                   "batches: wait every submitted ticket first");
        stopping = true;
    }
    workCv.notify_all();
    for (std::thread &t : threads)
        t.join();
}

size_t
ClusterFrontEnd::shardCount() const
{
    return fetchers.size();
}

size_t
ClusterFrontEnd::pipelineDepth() const
{
    return cfg.pipelineDepth;
}

/**
 * Run one shard's fetch state machine for one job: connect/failover,
 * send once per connection, hedge at the latency quantile, dedup by
 * requestId, until a valid response or the job deadline. Static
 * free-function shape keeps the locking story obvious: everything
 * here touches only the fetcher (single-owner), the local counters,
 * and the transport (thread-safe connect).
 */
namespace {

struct FetchContext
{
    Transport &transport;
    const ClusterConfig &cfg;
    const float *u;
    size_t nq;
    size_t ed;
    uint64_t requestId;
    NetClock::time_point deadline;
};

ScatterRequest
buildRequest(const FetchContext &ctx, uint32_t shard)
{
    ScatterRequest req;
    req.requestId = ctx.requestId;
    req.shard = shard;
    req.nq = static_cast<uint32_t>(ctx.nq);
    req.ed = static_cast<uint32_t>(ctx.ed);
    req.u.assign(ctx.u, ctx.u + ctx.nq * ctx.ed);
    return req;
}

/** Connect to replica `r` within the connect budget and deadline. */
std::unique_ptr<Channel>
connectReplica(const FetchContext &ctx, detail::ShardFetcher &f,
               size_t r)
{
    const NetClock::time_point connectDeadline = std::min(
        ctx.deadline, deadlineIn(ctx.cfg.connectTimeoutSeconds));
    return ctx.transport.connect(f.replicas[r % f.replicas.size()],
                                 connectDeadline);
}

/** The hedge delay: a quantile of observed latencies, floored. */
double
hedgeDelaySeconds(const ClusterConfig &cfg,
                  const detail::ShardFetcher &f)
{
    if (f.rpcLatency.count()
        < detail::ShardFetcher::kMinSamplesForQuantile)
        return cfg.hedgeMinSeconds;
    return std::max(cfg.hedgeMinSeconds,
                    f.rpcLatency.quantile(cfg.hedgeQuantile));
}

double
secondsSince(NetClock::time_point start)
{
    return std::chrono::duration<double>(NetClock::now() - start)
        .count();
}

/**
 * Try to pull a valid response for `ctx.requestId` off `ch` before
 * `until`. Returns Ok only for the matching id. A response for a
 * *send-ahead* request (a later job already on the wire) is stashed
 * in f.early — with its latency sampled at arrival — for its own job
 * to consume; anything else with a foreign id (earlier batches still
 * draining, settled hedges) is stale and discarded, and the wait
 * continues. Timeout/Closed/Corrupt pass through for the caller's
 * failover logic.
 */
RecvStatus
recvResponse(const FetchContext &ctx, detail::ShardFetcher &f,
             Channel &ch, NetClock::time_point until,
             core::StreamPartial &out)
{
    Frame frame;
    for (;;) {
        const RecvStatus st = ch.recv(frame, until);
        if (st != RecvStatus::Ok)
            return st;
        if (frame.type != FrameType::PartialResponse)
            return RecvStatus::Corrupt; // protocol violation
        PartialResponse resp;
        if (decodePartialResponse(frame, resp) != WireStatus::Ok)
            return RecvStatus::Corrupt;
        if (resp.requestId != ctx.requestId) {
            const auto sa = f.sentAhead.find(resp.requestId);
            if (sa != f.sentAhead.end() && resp.shard == f.shard) {
                f.rpcLatency.add(secondsSince(sa->second));
                f.early[resp.requestId] = std::move(resp.partial);
            }
            continue; // send-ahead stashed, or stale: keep waiting
        }
        if (resp.shard != f.shard || resp.nq != ctx.nq
            || resp.ed != ctx.ed)
            return RecvStatus::Corrupt; // wrong shard or shape
        out = std::move(resp.partial);
        return RecvStatus::Ok;
    }
}

/**
 * One shard's fetch for one job; true when a partial landed in `out`.
 * Counters accumulate into `c` (a thread-local scratch the caller
 * publishes under the front-end mutex afterwards).
 *
 * Send policy: the request goes out exactly once per connection —
 * tracked by sentOnPrimary/sentOnHedge, cleared only when that
 * connection is replaced. When the primary dies while a hedge is
 * outstanding, the hedge is *promoted* to primary (connection, replica
 * cursor, outstanding-request state, and attempt timer move over)
 * instead of reconnecting and resending: the request is still live on
 * the hedge, so a third copy would only duplicate shard work and
 * inflate the rpc count.
 *
 * Timing policy: every attempt gets its own stopwatch, reset at its
 * own send. A sample therefore never includes a previous attempt's
 * connect or wait time — which used to inflate the hedge-delay
 * quantile after any failover and suppress hedges right after an
 * incident.
 */
bool
fetchShard(const FetchContext &ctx, detail::ShardFetcher &f,
           serve::RpcShardCounters &c, core::StreamPartial &out)
{
    // A send-ahead response may already be in hand (it arrived while
    // an earlier job was draining this channel).
    {
        const auto it = f.early.find(ctx.requestId);
        if (it != f.early.end()) {
            if (it->second.nq == ctx.nq
                && it->second.o.size() == ctx.nq * ctx.ed) {
                out = std::move(it->second);
                f.early.erase(it);
                return true;
            }
            f.early.erase(it); // defensive: wrong shape, refetch
        }
    }

    const Frame reqFrame =
        encodeScatterRequest(buildRequest(ctx, f.shard));
    NetClock::time_point primarySentAt{};
    NetClock::time_point hedgeSentAt{};
    bool sentOnPrimary = false;
    bool sentOnHedge = false;
    // The active job may itself have been sent ahead on the current
    // connection: the request is outstanding, so re-arm the attempt
    // clock from its actual send instead of sending again.
    {
        const auto it = f.sentAhead.find(ctx.requestId);
        if (it != f.sentAhead.end()) {
            sentOnPrimary = true;
            primarySentAt = it->second;
        }
    }

    // Abandon an outstanding hedge (response won by the primary, or
    // job over): close so the node's late answer has nowhere to go.
    const auto settleHedge = [&] {
        if (f.hedgeChannel) {
            f.hedgeChannel->close();
            f.hedgeChannel.reset();
        }
        sentOnHedge = false;
    };
    // The primary connection died: promote an outstanding hedge if
    // there is one, otherwise advance the replica cursor for a fresh
    // connect+send at the top of the outer loop. Either way every
    // unanswered send-ahead died with the connection.
    const auto failPrimary = [&] {
        f.channel.reset();
        f.sentAhead.clear();
        sentOnPrimary = false;
        ++c.failovers;
        if (sentOnHedge) {
            f.channel = std::move(f.hedgeChannel);
            f.current = f.hedgeReplica;
            sentOnPrimary = true;
            sentOnHedge = false;
            primarySentAt = hedgeSentAt; // the attempt keeps its clock
        } else {
            f.current = (f.current + 1) % f.replicas.size();
        }
    };

    // Outer loop: one iteration per primary connection state.
    while (NetClock::now() < ctx.deadline) {
        // Ensure a primary connection, failing over on dead replicas.
        // The short sleep keeps an all-replicas-down shard from
        // spinning through its deadline (loopback connects to a
        // missing endpoint fail instantly).
        if (!f.channel) {
            f.channel = connectReplica(ctx, f, f.current);
            sentOnPrimary = false;
            if (!f.channel) {
                f.current = (f.current + 1) % f.replicas.size();
                ++c.failovers;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                continue;
            }
        }
        // Send exactly once per connection. A kept-alive connection
        // from an earlier job re-arms here (new requestId); a
        // promoted hedge does not (its request is outstanding).
        if (!sentOnPrimary) {
            if (!f.channel->send(reqFrame)) {
                failPrimary();
                continue;
            }
            sentOnPrimary = true;
            ++c.rpcs;
            primarySentAt = NetClock::now();
        }

        // Phase 1: wait on the primary alone until the hedge point
        // (skipped when a hedge is already outstanding).
        const bool canHedge =
            ctx.cfg.hedging && f.replicas.size() > 1 && !sentOnHedge;
        NetClock::time_point hedgeAt = ctx.deadline;
        if (canHedge)
            hedgeAt = std::min(
                ctx.deadline, deadlineIn(hedgeDelaySeconds(ctx.cfg, f)));

        const RecvStatus first = recvResponse(
            ctx, f, *f.channel,
            sentOnHedge ? NetClock::now() : hedgeAt, out);
        if (first == RecvStatus::Ok) {
            f.rpcLatency.add(secondsSince(primarySentAt));
            settleHedge();
            return true;
        }
        if (first == RecvStatus::Closed || first == RecvStatus::Corrupt) {
            failPrimary();
            continue;
        }

        // Phase 2: fire the hedge and race both connections with
        // short alternating recv slices until the deadline.
        if (canHedge && NetClock::now() >= hedgeAt) {
            f.hedgeReplica = (f.current + 1) % f.replicas.size();
            f.hedgeChannel = connectReplica(ctx, f, f.hedgeReplica);
            if (f.hedgeChannel) {
                if (f.hedgeChannel->send(reqFrame)) {
                    sentOnHedge = true;
                    ++c.hedgesFired;
                    ++c.rpcs;
                    hedgeSentAt = NetClock::now();
                } else {
                    f.hedgeChannel.reset();
                }
            }
        }
        while (NetClock::now() < ctx.deadline) {
            const RecvStatus pst = recvResponse(
                ctx, f, *f.channel,
                std::min(ctx.deadline,
                         deadlineIn(kHedgeRaceSliceSeconds)),
                out);
            if (pst == RecvStatus::Ok) {
                f.rpcLatency.add(secondsSince(primarySentAt));
                settleHedge();
                return true;
            }
            if (pst == RecvStatus::Closed || pst == RecvStatus::Corrupt) {
                // Promote the hedge or advance the cursor; the outer
                // loop then waits on the promoted connection or
                // reconnects and re-arms the send.
                failPrimary();
                break;
            }
            if (!sentOnHedge)
                continue;
            const RecvStatus hst = recvResponse(
                ctx, f, *f.hedgeChannel,
                std::min(ctx.deadline,
                         deadlineIn(kHedgeRaceSliceSeconds)),
                out);
            if (hst == RecvStatus::Ok) {
                // Hedge win: promote the backup replica to primary.
                // The primary connection is dropped, and any
                // send-aheads on it with it.
                f.rpcLatency.add(secondsSince(hedgeSentAt));
                ++c.hedgeWins;
                if (f.channel)
                    f.channel->close();
                f.sentAhead.clear();
                f.channel = std::move(f.hedgeChannel);
                f.current = f.hedgeReplica;
                return true;
            }
            if (hst == RecvStatus::Closed || hst == RecvStatus::Corrupt) {
                f.hedgeChannel.reset();
                sentOnHedge = false;
            }
        }
    }

    ++c.deadlineMisses;
    settleHedge();
    return false;
}

} // namespace

void
ClusterFrontEnd::fetchLoop(size_t s)
{
    detail::ShardFetcher &f = *fetchers[s];
    std::vector<InFlight *> lookahead;
    for (;;) {
        InFlight *fl = nullptr;
        lookahead.clear();
        {
            std::unique_lock<std::mutex> lock(mutex);
            workCv.wait(lock,
                        [&] { return stopping || !f.jobs.empty(); });
            if (stopping)
                break;
            fl = static_cast<InFlight *>(f.jobs.front());
            f.jobs.pop_front();
            // Snapshot the jobs queued behind the active one (the
            // window bounds how many there can be) for send-ahead.
            for (void *p : f.jobs)
                lookahead.push_back(static_cast<InFlight *>(p));
        }

        serve::RpcShardCounters counters;

        // Send-ahead: put the active job and every queued successor
        // on the wire now, oldest first, so the node computes batch
        // k+1 while batch k's gather is still in flight — the overlap
        // that keeps the round trip from serializing the pipeline.
        // Safe because the node answers a channel FIFO and responses
        // are matched (and stashed) by requestId; a send failure here
        // just leaves the broken channel to the active fetch's
        // failover path. Only an established connection is used —
        // the first job of a connection goes through the full
        // connect/failover state machine in fetchShard.
        if (f.channel) {
            const auto sendAhead = [&](const InFlight *job) {
                if (f.sentAhead.count(job->requestId) != 0
                    || f.early.count(job->requestId) != 0)
                    return true;
                ScatterRequest req;
                req.requestId = job->requestId;
                req.shard = static_cast<uint32_t>(s);
                req.nq = static_cast<uint32_t>(job->nq);
                req.ed = static_cast<uint32_t>(job->ed);
                req.u.assign(job->u, job->u + job->nq * job->ed);
                if (!f.channel->send(encodeScatterRequest(req)))
                    return false;
                f.sentAhead.emplace(job->requestId, NetClock::now());
                ++counters.rpcs;
                return true;
            };
            if (sendAhead(fl))
                for (InFlight *job : lookahead)
                    if (!sendAhead(job))
                        break;
        }

        // The job deadline is stamped when the fetch *starts*, not at
        // submit: with a window of W, a batch may sit queued behind
        // W-1 predecessors on this shard, and charging it for that
        // wait would cascade one slow batch into a whole window of
        // deadline misses.
        FetchContext ctx{transport,     cfg,
                         fl->u,         fl->nq,
                         fl->ed,        fl->requestId,
                         deadlineIn(cfg.requestTimeoutSeconds)};
        const bool ok = fetchShard(ctx, f, counters, fl->parts[s]);

        // Retire the id: its send-ahead entry (if the connection
        // survived) and any stale early stash at or below it.
        f.sentAhead.erase(f.sentAhead.begin(),
                          f.sentAhead.upper_bound(fl->requestId));
        f.early.erase(f.early.begin(),
                      f.early.upper_bound(fl->requestId));

        {
            std::lock_guard<std::mutex> lock(mutex);
            recorder.rpcShard(s).addFrom(counters);
            if (ok)
                fl->answeredMask |= uint32_t{1} << s;
            --fl->remainingShards;
        }
        doneCv.notify_all();
    }
    if (f.channel)
        f.channel->close();
    if (f.hedgeChannel)
        f.hedgeChannel->close();
}

uint64_t
ClusterFrontEnd::submitBatch(const float *u, size_t nq, size_t ed,
                             float *o)
{
    mnn_assert(nq > 0 && ed > 0, "empty cluster batch");
    auto fl = std::make_unique<InFlight>();
    fl->u = u;
    fl->nq = nq;
    fl->ed = ed;
    fl->o = o;
    fl->parts.resize(fetchers.size());
    fl->remainingShards = fetchers.size();

    uint64_t ticket = 0;
    {
        std::unique_lock<std::mutex> lock(mutex);
        windowCv.wait(lock, [&] {
            return window.size() < cfg.pipelineDepth;
        });
        ticket = fl->requestId = nextRequestId++;
        fl->submitted = NetClock::now();
        InFlight *raw = fl.get();
        window.push_back(std::move(fl));
        for (auto &f : fetchers)
            f->jobs.push_back(raw);
    }
    workCv.notify_all();
    return ticket;
}

BatchResult
ClusterFrontEnd::waitBatch(uint64_t ticket)
{
    std::unique_ptr<InFlight> fl;
    {
        std::unique_lock<std::mutex> lock(mutex);
        mnn_assert(std::any_of(window.begin(), window.end(),
                               [&](const auto &w) {
                                   return w->requestId == ticket;
                               }),
                   "waited cluster ticket is not in flight");
        // Only this waiter retires `ticket`, so the window is
        // non-empty until it does.
        doneCv.wait(lock, [&] {
            return window.front()->requestId == ticket
                   && window.front()->remainingShards == 0;
        });
        fl = std::move(window.front());
        window.pop_front();
    }
    windowCv.notify_one();
    doneCv.notify_all(); // the next ticket's waiter may be at the head

    // Merge outside the lock: no fetch thread references this slot
    // once its remainingShards hit zero (ordered by the mutex).
    BatchResult result;
    std::vector<const core::StreamPartial *> parts;
    parts.reserve(fetchers.size());
    for (size_t s = 0; s < fetchers.size(); ++s) {
        if (!(fl->answeredMask & (uint32_t{1} << s)))
            continue;
        parts.push_back(&fl->parts[s]);
        ++result.shardsAnswered;
    }
    result.shardMask = fl->answeredMask;
    result.complete = result.shardsAnswered == fetchers.size();

    const bool merge =
        result.complete
        || (cfg.allowPartial && result.shardsAnswered > 0);
    if (merge) {
        core::mergeStreamPartials(parts.data(), parts.size(), fl->nq,
                                  fl->ed, cfg.onlineNormalize, fl->o);
    } else {
        result.shardsAnswered = 0; // failed closed; o untouched
        result.shardMask = 0;
    }

    const double seconds =
        std::chrono::duration<double>(NetClock::now() - fl->submitted)
            .count();
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (merge) {
            recorder.recordBatch(fl->nq);
            recorder.recordRequest(0.0, seconds, seconds);
            if (!result.complete)
                recorder.recordPartialAnswers(fl->nq);
        } else {
            // Fail-closed batches get their own counter; their
            // deadline-capped timings stay out of the success
            // histograms (they would pin the quantiles at the
            // deadline exactly when the tail matters).
            recorder.recordFailedBatch();
        }
    }
    return result;
}

BatchResult
ClusterFrontEnd::inferBatch(const float *u, size_t nq, size_t ed,
                            float *o)
{
    return waitBatch(submitBatch(u, nq, ed, o));
}

BatchResult
ClusterFrontEnd::inferBatch(size_t lane, const float *u, size_t nq,
                            size_t ed, float *o)
{
    mnn_assert(lane < lanes(), "cluster lane out of range");
    return inferBatch(u, nq, ed, o);
}

serve::LatencySnapshot
ClusterFrontEnd::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    serve::LatencyRecorder acc(histogramMaxSeconds, kRecorderBins);
    recorder.mergeInto(acc);
    // Every shard gets a slot even before its first RPC.
    acc.rpcShard(fetchers.size() - 1);
    return acc.snapshot();
}

void
ClusterFrontEnd::countersInto(serve::LatencyRecorder &acc) const
{
    std::lock_guard<std::mutex> lock(mutex);
    recorder.mergeCountersInto(acc);
    acc.rpcShard(fetchers.size() - 1);
}

double
ClusterFrontEnd::shardRpcLatencyQuantile(size_t s, double q) const
{
    mnn_assert(s < fetchers.size(), "shard index out of range");
    return fetchers[s]->rpcLatency.quantile(q);
}

void
ClusterFrontEnd::shutdownNodes(double timeoutSeconds)
{
    // One probe thread per replica endpoint: a dark replica burns its
    // connect budget concurrently with the others, so teardown wall
    // time stays ~one budget instead of one per replica.
    const Frame bye{FrameType::Shutdown, {}};
    std::vector<std::thread> probes;
    for (const auto &f : fetchers)
        for (const std::string &ep : f->replicas)
            probes.emplace_back([this, &bye, ep, timeoutSeconds] {
                std::unique_ptr<Channel> ch = transport.connect(
                    ep, deadlineIn(timeoutSeconds));
                if (ch)
                    ch->send(bye);
            });
    for (std::thread &t : probes)
        t.join();
}

} // namespace mnnfast::net
