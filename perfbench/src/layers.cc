/**
 * @file
 * The traced run: the workload's own serving phases with request spans,
 * then a replay of the workload's batches through the public entry
 * point of each module, bottom up — blas kernels, core engines
 * (one shard, in-process scatter/gather, routing), net (wire codecs,
 * loopback front end, TCP front end, the pipelined window), serve
 * (LiveServer) — each call inside a span. Every per-layer metric is a
 * time, a ratio or a count read around public calls; nothing inside
 * the program is instrumented.
 *
 * "Added" metrics are paired per replayed batch: the layer's time
 * minus the time of the layer below it on the same questions, then the
 * median of those differences.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "blas/kernels.hh"
#include "core/column_engine.hh"
#include "core/sharded_engine.hh"
#include "net/cluster_frontend.hh"
#include "net/loopback_transport.hh"
#include "net/shard_node.hh"
#include "net/tcp_transport.hh"
#include "net/wire.hh"
#include "perfbench.hh"
#include "runtime/kernel_tuner.hh"
#include "runtime/thread_pool.hh"
#include "serve/live_server.hh"
#include "trace.hh"
#include "util/aligned_buffer.hh"

namespace perfbench {

namespace {

/** Rows of the synthetic f32 matrix the f32 kernels stream (256 MB,
 *  the stream-f32 regime: far past the LLC). */
constexpr size_t kF32KernelRows = size_t{1} << 20;

/** Replays each ladder layer gets at least (p90 needs 100). */
constexpr size_t kMinReplays = 100;

struct Metrics
{
    std::vector<Metric> &out;
    void add(const char *name, double v, const char *unit)
    {
        out.push_back({name, v, unit});
    }
};

double
p50(std::vector<double> v)
{
    return v.empty() ? std::nan("") : median(std::move(v));
}

/** p90 when the samples support it, else NaN (reported as missing). */
double
p90(std::vector<double> v)
{
    if (!percentileSupported(v.size(), 0.9))
        return std::nan("");
    return percentile(v, 0.9);
}

std::vector<double>
scaled(std::vector<double> v, double k)
{
    for (double &x : v)
        x *= k;
    return v;
}

/** Repeat `fn` until `minCount` runs and `minSeconds` both passed
 *  (capped at `maxCount`); returns per-run seconds. */
std::vector<double>
repeat(size_t minCount, double minSeconds, size_t maxCount,
       const std::function<void(size_t)> &fn)
{
    std::vector<double> t;
    const double start = now();
    for (size_t i = 0; i < maxCount; ++i) {
        if (i >= minCount && now() - start >= minSeconds)
            break;
        const double t0 = now();
        fn(i);
        t.push_back(now() - t0);
    }
    return t;
}

bool
sameBits(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ------------------------------------------------------------------
// blas
// ------------------------------------------------------------------

void
blasLayer(const Workload &w, uint64_t seed,
          const std::vector<float> &questions, Tracer &tr, Metrics &m)
{
    const size_t ed = 64;
    const size_t strip = 256;
    Rng rng(mixSeed(seed, 40));

    // f32, nq = 16, over a 256 MB synthetic matrix.
    {
        AlignedBuffer<float> rows(kF32KernelRows * ed);
        for (size_t i = 0; i < rows.size(); ++i)
            rows[i] = rng.range(-0.5f, 0.5f);
        std::vector<float> x(16 * ed);
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = questions[i % questions.size()];
        std::vector<float> out(16 * strip);
        std::vector<float> e(16 * strip);
        for (float &v : e)
            v = static_cast<float>(rng.uniform());
        std::vector<float> acc(16 * ed);
        std::vector<double> sums(16);
        const double bytes = double(kF32KernelRows) * ed * sizeof(float);
        const auto dot = repeat(5, 0.0, 5, [&](size_t i) {
            tr.time("blas.dot.f32.nq16", 0, i, [&] {
                for (size_t r = 0; r < kF32KernelRows; r += strip)
                    blas::dotBatchMulti(x.data(), 16, ed,
                                        rows.data() + r * ed, strip, ed,
                                        ed, out.data(), strip);
            });
        });
        const auto wsum = repeat(5, 0.0, 5, [&](size_t i) {
            std::fill(sums.begin(), sums.end(), 0.0);
            uint64_t kept = 0, skipped = 0;
            tr.time("blas.wsum.f32.nq16", 0, i, [&] {
                for (size_t r = 0; r < kF32KernelRows; r += strip)
                    blas::weightedSumSkipMulti(
                        e.data(), 16, strip, rows.data() + r * ed, strip,
                        ed, ed, 0.0f, sums.data(), acc.data(), ed, kept,
                        skipped);
            });
        });
        m.add("blas.dot_gbps.f32.nq16", bytes / p50(dot) / 1e9, "GB/s");
        m.add("blas.wsum_gbps.f32.nq16", bytes / p50(wsum) / 1e9, "GB/s");
    }

    // int8, nq = 1, over the routed-i8 geometry (LLC-resident).
    {
        const Workload &wi = *findWorkload("routed-i8");
        const auto kb = buildKb(wi, seed);
        const size_t ns = kb->size();
        std::vector<float> out(ns);
        std::vector<float> e(ns);
        for (float &v : e)
            v = static_cast<float>(rng.uniform());
        std::vector<float> acc(ed);
        const double bytes = double(ns) * ed;
        const auto dot = repeat(20, 0.2, 2000, [&](size_t i) {
            const float *x = questions.data() + (i % w.questionPool) * ed;
            tr.time("blas.dot.i8.nq1", 0, i, [&] {
                for (size_t r = 0; r < ns;) {
                    const size_t end = kb->i8GroupEnd(r);
                    blas::dotBatchMultiI8(x, 1, ed, kb->minRow8(r),
                                          end - r, ed, ed,
                                          kb->minScale(r),
                                          kb->minZero(r), out.data() + r,
                                          ns);
                    r = end;
                }
            });
        });
        const auto wsum = repeat(20, 0.2, 2000, [&](size_t i) {
            double sum = 0.0;
            uint64_t kept = 0, skipped = 0;
            tr.time("blas.wsum.i8.nq1", 0, i, [&] {
                for (size_t r = 0; r < ns;) {
                    const size_t end = kb->i8GroupEnd(r);
                    blas::weightedSumSkipMultiI8(
                        e.data() + r, 1, ns, kb->moutRow8(r), end - r,
                        ed, ed, kb->moutScale(r), kb->moutZero(r), 0.0f,
                        &sum, acc.data(), ed, kept, skipped);
                    r = end;
                }
            });
        });
        m.add("blas.dot_gbps.i8.nq1", bytes / p50(dot) / 1e9, "GB/s");
        m.add("blas.wsum_gbps.i8.nq1", bytes / p50(wsum) / 1e9, "GB/s");

        // The routing bound: one question against 256 chunk envelopes.
        const size_t chunks = 256;
        std::vector<float> lo(chunks * ed), hi(chunks * ed);
        for (size_t i = 0; i < lo.size(); ++i) {
            const float a = rng.range(-0.5f, 0.5f);
            const float b = rng.range(-0.5f, 0.5f);
            lo[i] = std::min(a, b);
            hi[i] = std::max(a, b);
        }
        std::vector<float> bound(chunks);
        const auto bt = repeat(2000, 0.1, 100000, [&](size_t i) {
            const float *x = questions.data() + (i % w.questionPool) * ed;
            blas::chunkBoundBatch(x, 1, ed, lo.data(), hi.data(), chunks,
                                  ed, ed, bound.data(), chunks);
        });
        m.add("blas.bound_us", p50(bt) * 1e6, "us");
    }
}

// ------------------------------------------------------------------
// core + net ladder
// ------------------------------------------------------------------

/** Shard nodes serving on loopback endpoints, one thread each. */
struct LoopbackNodes
{
    net::LoopbackNetwork network;
    net::LoopbackTransport transport{network};
    std::vector<std::unique_ptr<net::ShardNode>> nodes;
    std::vector<std::thread> threads;
    std::vector<std::string> endpoints;

    LoopbackNodes(const core::ShardedKnowledgeBase &skb,
                  const core::EngineConfig &cfg)
    {
        for (size_t s = 0; s < skb.shardCount(); ++s) {
            const std::string ep = "node" + std::to_string(s);
            auto listener = transport.listen(ep);
            nodes.push_back(std::make_unique<net::ShardNode>(
                skb.shard(s), cfg, static_cast<uint32_t>(s)));
            net::ShardNode *node = nodes.back().get();
            threads.emplace_back(
                [node, l = std::move(listener)]() mutable {
                    node->serve(*l);
                });
            endpoints.push_back(ep);
        }
    }

    ~LoopbackNodes()
    {
        for (auto &n : nodes)
            n->requestStop();
        for (auto &t : threads)
            t.join();
    }
};

struct LadderOut
{
    serve::RpcShardCounters rpc;
    uint64_t checks = 0;
    uint64_t mismatches = 0;
};

void
coreNetLadder(const Workload &w, System &sys,
              const std::vector<float> &questions, double budget,
              double ceil1, Tracer &tr, Metrics &m, LadderOut &lo)
{
    const size_t ed = w.ed;
    const core::ShardedKnowledgeBase &skb = *sys.skb;
    const size_t S = skb.shardCount();
    const core::EngineConfig scfg = shardEngineConfig(w);
    auto question = [&](size_t i) {
        return questions.data() + (i % w.questionPool) * ed;
    };

    std::vector<std::unique_ptr<core::ColumnEngine>> shards;
    for (size_t s = 0; s < S; ++s)
        shards.push_back(
            std::make_unique<core::ColumnEngine>(skb.shard(s), scfg));
    core::EngineConfig shcfg = w.engine;
    shcfg.threads = S >= 2 ? S : 0;
    core::ShardedEngine sharded(skb, shcfg);
    core::StreamPartial part;

    // One shard at nq = 16: time, bandwidth share, phase split.
    std::vector<float> u16(16 * ed);
    shards[0]->clearBreakdown();
    const auto shard16 =
        repeat(10, 0.1 * budget, 400, [&](size_t i) {
            for (size_t q = 0; q < 16; ++q)
                std::memcpy(u16.data() + q * ed, question(i * 16 + q),
                            ed * sizeof(float));
            tr.time("core.shard.nq16", 0, i, [&] {
                shards[0]->inferPartial(u16.data(), 16, part);
            });
        });
    // The engine's own phase attribution, per nq = 16 call.
    const core::OpBreakdown bd = shards[0]->breakdown();
    const double perCall = 1e3 / double(shard16.size());
    m.add("core.shard_ms.nq16", p50(shard16) * 1e3, "ms");
    m.add("core.bw_frac",
          double(skb.shard(0).bytes()) / p50(shard16) / (ceil1 * 1e9),
          "fraction");
    m.add("core.phase_ms.ip", bd.innerProduct * perCall, "ms");
    m.add("core.phase_ms.softmax", bd.softmax * perCall, "ms");
    m.add("core.phase_ms.wsum", bd.weightedSum * perCall, "ms");
    m.add("core.phase_ms.other", bd.other * perCall, "ms");

    // The nq = 1 ladder: slowest shard, in-process scatter/gather,
    // loopback front end, TCP front end — paired per replay.
    LoopbackNodes lb(skb, scfg);
    net::ClusterFrontEnd feLoop(lb.transport,
                                clusterConfig(lb.endpoints, 1, w));
    net::TcpTransport tcp;
    net::ClusterFrontEnd feTcp(tcp,
                               clusterConfig(sys.nodes->endpoints(), 1, w));

    std::vector<double> shard1, slowest, tSharded, tLoop, tTcp;
    std::vector<float> ref(ed), got(ed);
    const double ladderEnd = now() + 0.6 * budget;
    for (size_t i = 0; i < 4000; ++i) {
        if (i >= kMinReplays && now() >= ladderEnd)
            break;
        const float *u = question(i);
        const uint64_t rid = tr.newId();
        const double r0 = now();
        double worst = 0.0;
        for (size_t s = 0; s < S; ++s) {
            const double t = tr.time("core.shard", rid, i, [&] {
                shards[s]->inferPartial(u, 1, part);
            });
            if (s == 0)
                shard1.push_back(t);
            worst = std::max(worst, t);
        }
        slowest.push_back(worst);
        tSharded.push_back(tr.time("core.sharded", rid, i, [&] {
            sharded.inferBatch(u, 1, ref.data());
        }));
        tLoop.push_back(tr.time("net.loopback", rid, i, [&] {
            feLoop.inferBatch(u, 1, ed, got.data());
        }));
        lo.mismatches += sameBits(ref.data(), got.data(), ed) ? 0 : 1;
        tTcp.push_back(tr.time("net.tcp", rid, i, [&] {
            feTcp.inferBatch(u, 1, ed, got.data());
        }));
        lo.mismatches += sameBits(ref.data(), got.data(), ed) ? 0 : 1;
        lo.checks += 2;
        tr.record("replay", r0, now(), 0, i, rid);
    }
    auto diff = [](const std::vector<double> &a,
                   const std::vector<double> &b) {
        std::vector<double> d(a.size());
        for (size_t i = 0; i < a.size(); ++i)
            d[i] = (a[i] - b[i]) * 1e3;
        return d;
    };
    m.add("core.shard_ms.nq1", p50(shard1) * 1e3, "ms");
    m.add("core.gather_added_ms", p50(diff(tSharded, slowest)), "ms");
    m.add("net.frontend_added_ms", p50(diff(tLoop, tSharded)), "ms");
    m.add("net.tcp_added_ms", p50(diff(tTcp, tLoop)), "ms");
    m.add("layer.shard_ms.p50", p50(slowest) * 1e3, "ms");
    m.add("layer.shard_ms.p90", p90(scaled(slowest, 1e3)), "ms");
    m.add("layer.sharded_ms.p50", p50(tSharded) * 1e3, "ms");
    m.add("layer.sharded_ms.p90", p90(scaled(tSharded, 1e3)), "ms");
    m.add("layer.loopback_ms.p50", p50(tLoop) * 1e3, "ms");
    m.add("layer.loopback_ms.p90", p90(scaled(tLoop, 1e3)), "ms");
    m.add("layer.tcp_ms.p50", p50(tTcp) * 1e3, "ms");
    m.add("layer.tcp_ms.p90", p90(scaled(tTcp, 1e3)), "ms");

    // Pipelining: W = 4 against W = 1 over TCP, window kept full.
    {
        net::ClusterFrontEnd fe4(tcp,
                                 clusterConfig(sys.nodes->endpoints(), 4, w));
        const size_t nq = w.maxBatch;
        const size_t K = std::max<size_t>(
            16, std::min<size_t>(256, size_t(0.05 * budget
                                              / std::max(p50(tTcp), 1e-6))));
        std::vector<float> u(K * nq * ed), o(K * nq * ed);
        for (size_t i = 0; i < K * nq; ++i)
            std::memcpy(u.data() + i * ed, question(i), ed * sizeof(float));
        const double a0 = now();
        for (size_t k = 0; k < K; ++k)
            feTcp.inferBatch(u.data() + k * nq * ed, nq, ed,
                             o.data() + k * nq * ed);
        const double serial = now() - a0;
        std::vector<uint64_t> tickets;
        const double b0 = now();
        size_t waited = 0;
        for (size_t k = 0; k < K; ++k) {
            if (tickets.size() - waited >= fe4.pipelineDepth())
                fe4.waitBatch(tickets[waited++]);
            tickets.push_back(fe4.submitBatch(u.data() + k * nq * ed, nq,
                                              ed, o.data() + k * nq * ed));
        }
        while (waited < tickets.size())
            fe4.waitBatch(tickets[waited++]);
        const double piped = now() - b0;
        tr.record("net.pipeline.w1", a0, a0 + serial, 0, 0);
        tr.record("net.pipeline.w4", b0, b0 + piped, 0, 0);
        m.add("net.pipeline_speedup", serial / piped, "x");
        lo.rpc.addFrom(fe4.snapshot().rpcTotals());
    }
    lo.rpc.addFrom(feLoop.snapshot().rpcTotals());
    lo.rpc.addFrom(feTcp.snapshot().rpcTotals());

    // Wire codecs at the workload's batch size.
    {
        const size_t nq = w.maxBatch;
        net::ScatterRequest req;
        req.requestId = 7;
        req.shard = 0;
        req.nq = static_cast<uint32_t>(nq);
        req.ed = static_cast<uint32_t>(ed);
        req.u.assign(questions.begin(), questions.begin() + nq * ed);
        shards[0]->inferPartial(req.u.data(), nq, part);
        net::PartialResponse resp;
        resp.requestId = 7;
        resp.shard = 0;
        resp.nq = req.nq;
        resp.ed = req.ed;
        resp.partial = part;
        std::vector<uint8_t> reqBytes, respBytes;
        const auto enc = repeat(2000, 0.05, 100000, [&](size_t) {
            reqBytes = net::encodeFrame(net::encodeScatterRequest(req));
            respBytes = net::encodeFrame(net::encodePartialResponse(resp));
        });
        net::Frame f;
        net::ScatterRequest reqBack;
        net::PartialResponse respBack;
        bool ok = true;
        const auto dec = repeat(2000, 0.05, 100000, [&](size_t) {
            ok = ok
                 && net::decodeFrame(reqBytes.data(), reqBytes.size(), f)
                        == net::WireStatus::Ok
                 && net::decodeScatterRequest(f, reqBack)
                        == net::WireStatus::Ok
                 && net::decodeFrame(respBytes.data(), respBytes.size(), f)
                        == net::WireStatus::Ok
                 && net::decodePartialResponse(f, respBack)
                        == net::WireStatus::Ok;
        });
        lo.checks += 1;
        lo.mismatches += (ok && reqBack.u == req.u
                          && respBack.partial.o == part.o)
                             ? 0
                             : 1;
        m.add("net.encode_us", p50(enc) * 1e6, "us");
        m.add("net.decode_us", p50(dec) * 1e6, "us");
    }

    // Routing on this KB: the routed-i8 policy (top 8 of 256 chunks).
    {
        const core::KnowledgeBase &kb = *sys.kb;
        core::EngineConfig rc = w.engine;
        rc.threads = 0;
        rc.routePolicy = core::RoutePolicy::TopK;
        rc.routeTopK = 8;
        rc.chunkSize = std::max<size_t>(1, kb.size() / 256);
        core::EngineConfig uc = rc;
        uc.routePolicy = core::RoutePolicy::None;
        uc.routeTopK = 0;
        core::ColumnEngine routed(kb, rc), unrouted(kb, uc);
        std::vector<float> a(ed), b(ed);
        routed.inferBatch(question(0), 1, a.data()); // builds the index
        routed.counters().resetAll();
        size_t calls = 0;
        const auto rt = repeat(kMinReplays, 0.1 * budget, 20000,
                               [&](size_t i) {
            tr.time("core.routed", 0, i, [&] {
                routed.inferBatch(question(i), 1, a.data());
            });
            ++calls;
        });
        const auto &c = routed.counters();
        const double kept = double(c.value("rows_kept"));
        const double skipped = double(c.value("rows_skipped"));
        m.add("core.routed_ms.nq1", p50(rt) * 1e3, "ms");
        m.add("core.route_keep_frac",
              double(c.value("rows_routed")) / (double(calls) * kb.size()),
              "fraction");
        m.add("core.zskip_keep_frac",
              kept + skipped > 0 ? kept / (kept + skipped) : 1.0,
              "fraction");
        double maxDiff = 0.0;
        for (size_t i = 0; i < 8; ++i) {
            routed.inferBatch(question(i), 1, a.data());
            unrouted.inferBatch(question(i), 1, b.data());
            for (size_t e = 0; e < ed; ++e)
                maxDiff = std::max(maxDiff,
                                   double(std::fabs(a[e] - b[e])));
        }
        m.add("core.route_max_abs_diff", maxDiff, "abs");
    }
}

} // namespace

RunResult
runTraced(const Workload &w, uint64_t seed, double seconds,
          const std::string &commit, const std::string &tracePath)
{
    RunResult res;
    std::vector<Metric> &out = res.metrics;
    Metrics m{out};
    Tracer tr;
    pinToSystemCpus();
    const double ceil1 = streamingCeilingGbps(1);
    const double ceilN = streamingCeilingGbps(kComputeThreads);
    const std::vector<float> questions = buildQuestions(w, seed);

    System sys;
    runtime::KernelTuner::instance().clear();
    setUp(sys, w, seed, questions, /*ladderNodes=*/true);
    std::printf("{\"provenance\": %s}\n",
                provenanceJson(commit, ceil1, ceilN, sys).c_str());
    std::fflush(stdout);

    // serve: the workload's own low and high phases.
    pinToGeneratorCpu();
    auto phase = [&](double rate, double secs, uint64_t stream,
                     Tracer *t) {
        PhasePlan p;
        p.offsets = poissonSchedule(mixSeed(seed, stream), rate, secs);
        p.seed = mixSeed(seed, stream + 1);
        p.tracer = t;
        return runPhase(*sys.server, questions, w.ed, p);
    };
    // Long enough for ~130 answers, so every p90 below is supported.
    const double lowSecs = std::max(0.15 * seconds, 130.0 / w.lowQps);
    const double highSecs = std::max(0.1 * seconds, 130.0 / w.highQps);
    const PhaseResult lowPlain = phase(w.lowQps, lowSecs, 100, nullptr);
    const PhaseResult lowTraced = phase(w.lowQps, lowSecs, 100, &tr);
    const PhaseResult high = phase(w.highQps, highSecs, 200, nullptr);
    pinToSystemCpus();
    sys.server->shutdown();
    const serve::LatencySnapshot snap = sys.server->snapshot();
    sys.server.reset();

    auto field = [](const PhaseResult &r, auto get) {
        std::vector<double> v;
        for (const Request &q : r.reqs)
            if (q.accepted && !q.failed)
                v.push_back(get(q));
        return v;
    };
    const double e2ePlain = p50(lowPlain.latenciesMs());
    const double e2eTraced = p50(lowTraced.latenciesMs());
    m.add("serve.submit_us.p50",
          p50(field(lowPlain, [](const Request &q) {
              return (q.submitEnd - q.submitStart) * 1e6;
          })),
          "us");
    m.add("serve.added_ms",
          e2ePlain - p50(field(lowPlain, [](const Request &q) {
              return q.service * 1e3;
          })),
          "ms");
    const auto qwait = field(high, [](const Request &q) {
        return q.queueWait * 1e3;
    });
    m.add("serve.queue_wait_ms.p50", p50(qwait), "ms");
    m.add("serve.queue_wait_ms.p90", p90(qwait), "ms");
    double inv = 0.0;
    for (const Request &q : high.reqs)
        if (q.accepted && q.batch > 0)
            inv += 1.0 / double(q.batch);
    m.add("serve.batch_mean", inv > 0 ? double(high.reqs.size()) / inv : 0,
          "questions");
    m.add("serve.rejected", double(snap.rejected), "count");
    m.add("serve.failed_batches", double(snap.failedBatches), "count");
    m.add("serve.self_ms.p50", p50(scaled(tr.selfTimes("request"), 1e3)),
          "ms");
    m.add("layer.served_ms.p50", e2ePlain, "ms");
    m.add("layer.served_ms.p90", p90(lowPlain.latenciesMs()), "ms");
    m.add("trace.lat_p50_ms.low", e2eTraced, "ms");
    m.add("trace.overhead_ms", e2eTraced - e2ePlain, "ms");
    // The serve figures above come from paced phases: a late generator
    // makes them invalid.
    const double late = lateP99Ms({&lowPlain, &lowTraced, &high});
    m.add("gen.late_p99_ms", late, "ms");
    res.invalid = late > kMaxLateP99Ms;

    // runtime: tuner warm-up at engine construction, pool fan-out.
    {
        runtime::KernelTuner::instance().clear();
        const double t0 = now();
        core::ColumnEngine e(sys.skb->shard(0), shardEngineConfig(w));
        m.add("runtime.tuner_s", now() - t0, "s");
        const size_t width =
            w.mode == Mode::Replicated ? w.workers : sys.skb->shardCount();
        runtime::ThreadPool pool(width);
        const auto fan = repeat(2000, 0.05, 100000, [&](size_t) {
            for (size_t i = 0; i < width; ++i)
                pool.submit([] {});
            pool.waitIdle();
        });
        m.add("runtime.pool_fanout_us", p50(fan) * 1e6, "us");
    }

    // blas, then core + net on the workload's partition.
    blasLayer(w, seed, questions, tr, m);
    m.add("blas.ceiling_gbps.1t", ceil1, "GB/s");
    m.add("blas.ceiling_gbps.nt", ceilN, "GB/s");
    LadderOut lo;
    coreNetLadder(w, sys, questions, 0.55 * seconds, ceil1, tr, m, lo);
    serve::RpcShardCounters rpc = snap.rpcTotals();
    rpc.addFrom(lo.rpc);
    m.add("net.rpcs", double(rpc.rpcs), "count");
    m.add("net.failovers", double(rpc.failovers), "count");
    m.add("net.deadline_misses", double(rpc.deadlineMisses), "count");
    m.add("net.hedges_fired", double(rpc.hedgesFired), "count");

    const bool nodesOk = sys.stop();
    if (!tracePath.empty() && !tr.writeChrome(tracePath))
        std::fprintf(stderr, "could not write %s\n", tracePath.c_str());
    std::fprintf(stderr, "trace: %zu spans -> %s\n", tr.size(),
                 tracePath.c_str());

    res.attempted =
        lowPlain.sent() + lowTraced.sent() + high.sent() + lo.checks;
    res.failed = lo.mismatches;
    for (const PhaseResult *p : {&lowPlain, &lowTraced, &high})
        res.failed += p->rejected() + p->failed();
    const bool ledger = snap.arrived == snap.completed + snap.rejected
                        && snap.failedBatches == 0
                        && snap.partialAnswers == 0;
    bool finite = true;
    for (const Metric &x : out)
        if (!std::isfinite(x.value)) {
            std::fprintf(stderr, "metric %s could not be measured\n",
                         x.name.c_str());
            finite = false;
        }
    if (lo.mismatches)
        std::fprintf(stderr, "ladder: %llu answers differ from the "
                             "in-process ShardedEngine\n",
                     static_cast<unsigned long long>(lo.mismatches));
    res.correct = nodesOk && ledger && finite && res.failed == 0;
    return res;
}

} // namespace perfbench
