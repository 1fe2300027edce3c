/**
 * @file
 * Tests for the QA-server simulation and the live serving runtime:
 * conservation, latency bounds, batching behaviour under load, the
 * throughput benefit of batch-amortized knowledge-base streaming,
 * the shared batching-dispatcher policy edge cases (maxBatch=1,
 * zero timeout, queue-full rejection), and the shutdown-drain
 * guarantee (every accepted request answered exactly once).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "backlog_monitor.hh"
#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "serve/calibrate.hh"
#include "serve/latency_recorder.hh"
#include "serve/live_server.hh"
#include "serve/qa_server.hh"
#include "serve/request_queue.hh"
#include "util/rng.hh"

namespace mnnfast::serve {
namespace {

ServerConfig
baseConfig()
{
    ServerConfig cfg;
    cfg.arrivalRate = 2000.0;
    cfg.maxBatch = 32;
    cfg.batchTimeout = 2e-3;
    cfg.batchBaseSeconds = 1e-3;
    cfg.perQuestionSeconds = 4e-5;
    cfg.simSeconds = 3.0;
    return cfg;
}

TEST(QaServer, EveryArrivalCompletes)
{
    const auto stats = simulateServer(baseConfig());
    EXPECT_GT(stats.arrived, 1000u);
    EXPECT_EQ(stats.completed, stats.arrived);
}

TEST(QaServer, UnderloadedThroughputTracksArrivalRate)
{
    auto cfg = baseConfig();
    cfg.arrivalRate = 500.0; // far below capacity
    const auto stats = simulateServer(cfg);
    EXPECT_NEAR(stats.throughputQps, 500.0, 75.0);
    EXPECT_LT(stats.utilization, 0.9);
}

TEST(QaServer, LatencyIsAtLeastTheServiceTime)
{
    const auto stats = simulateServer(baseConfig());
    EXPECT_GE(stats.p50Latency, baseConfig().batchBaseSeconds);
    EXPECT_LE(stats.p50Latency, stats.p95Latency);
    EXPECT_LE(stats.p95Latency, stats.p99Latency);
}

TEST(QaServer, TimeoutBoundsLatencyAtLowLoad)
{
    auto cfg = baseConfig();
    cfg.arrivalRate = 100.0; // batches rarely fill: timeout path
    const auto stats = simulateServer(cfg);
    // Wait (<= timeout) + service of a small batch + slack.
    const double bound = cfg.batchTimeout + cfg.batchBaseSeconds
                       + cfg.maxBatch * cfg.perQuestionSeconds + 1e-3;
    EXPECT_LE(stats.p99Latency, bound);
    // Mostly-singleton batches at this load.
    EXPECT_LT(stats.meanBatchSize, 4.0);
}

TEST(QaServer, LoadIncreasesLatency)
{
    auto low = baseConfig();
    low.arrivalRate = 500.0;
    auto high = baseConfig();
    high.arrivalRate = 15000.0;
    EXPECT_GT(simulateServer(high).p95Latency,
              simulateServer(low).p95Latency);
}

TEST(QaServer, BatchingRaisesOverloadThroughput)
{
    // Capacity with batch n is n / (base + n*per): heavily batched
    // service amortizes the shared KB stream. At an overload rate,
    // the batched server must complete far more questions/sec.
    auto batched = baseConfig();
    batched.arrivalRate = 20000.0;
    batched.maxBatch = 32;

    auto serial = batched;
    serial.maxBatch = 1;

    const auto b = simulateServer(batched);
    const auto s = simulateServer(serial);
    EXPECT_GT(b.throughputQps, s.throughputQps * 3.0);
    EXPECT_GT(b.meanBatchSize, 8.0);
    EXPECT_NEAR(s.meanBatchSize, 1.0, 1e-9);
}

TEST(QaServer, MoreWorkersHelpUnderOverload)
{
    auto one = baseConfig();
    one.arrivalRate = 20000.0;
    auto two = one;
    two.workers = 2;
    EXPECT_GT(simulateServer(two).throughputQps,
              simulateServer(one).throughputQps * 1.3);
}

TEST(QaServer, UtilizationSaturatesUnderOverload)
{
    auto cfg = baseConfig();
    cfg.arrivalRate = 50000.0;
    const auto stats = simulateServer(cfg);
    EXPECT_GT(stats.utilization, 0.95);
    EXPECT_LE(stats.utilization, 1.0 + 1e-9);
}

TEST(QaServer, DeterministicForSameSeed)
{
    const auto a = simulateServer(baseConfig());
    const auto b = simulateServer(baseConfig());
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
}

TEST(QaServer, InvalidConfigIsFatal)
{
    auto cfg = baseConfig();
    cfg.maxBatch = 0;
    EXPECT_EXIT(simulateServer(cfg), ::testing::ExitedWithCode(1),
                "batch cap");
    auto cfg2 = baseConfig();
    cfg2.arrivalRate = 0.0;
    EXPECT_EXIT(simulateServer(cfg2), ::testing::ExitedWithCode(1),
                "arrival rate");
}

TEST(Calibrate, FitsUsableServiceModelFromRealEngine)
{
    // Smoke test: calibrate against a real (small) column engine and
    // check the fit is sane and drives the simulator.
    const size_t ns = 2000, ed = 32;
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(7);
    std::vector<float> min_row(ed), mout_row(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            min_row[e] = rng.uniformRange(-0.5f, 0.5f);
            mout_row[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(min_row.data(), mout_row.data());
    }
    core::EngineConfig ecfg;
    ecfg.chunkSize = 256;
    core::ColumnEngine engine(kb, ecfg);

    const ServiceTimeFit fit =
        calibrateServiceTimes(engine, ed, /*smallBatch=*/1,
                              /*largeBatch=*/8, /*repeats=*/3);

    // Coefficients are clamped non-negative and the measurements are
    // real (a 2000x32 KB pass cannot take zero time).
    EXPECT_GE(fit.batchBaseSeconds, 0.0);
    EXPECT_GE(fit.perQuestionSeconds, 0.0);
    EXPECT_GT(fit.smallSeconds, 0.0);
    EXPECT_GT(fit.largeSeconds, 0.0);
    EXPECT_GT(fit.batchBaseSeconds + fit.perQuestionSeconds, 0.0);
    EXPECT_EQ(fit.smallBatch, 1u);
    EXPECT_EQ(fit.largeBatch, 8u);

    // batchBase = max(0, small - smallBatch*perQ) can never exceed the
    // small-batch measurement itself. The full fit reproduces that
    // measurement exactly only when the non-negativity clamp did not
    // fire (with noisy timings, large > 8*small clamps batchBase to 0
    // and the fitted t(1) overshoots — by design, not a bug).
    EXPECT_LE(fit.batchBaseSeconds, fit.smallSeconds * 1.0000001 + 1e-12);
    if (fit.batchBaseSeconds > 0.0) {
        const double t1 = fit.batchBaseSeconds + fit.perQuestionSeconds;
        EXPECT_NEAR(t1, fit.smallSeconds, fit.smallSeconds * 1e-6 + 1e-12);
    }

    // And it plugs straight into the simulator.
    ServerConfig scfg = baseConfig();
    scfg.arrivalRate = 100.0;
    scfg.simSeconds = 0.5;
    fit.apply(scfg);
    EXPECT_EQ(scfg.batchBaseSeconds, fit.batchBaseSeconds);
    EXPECT_EQ(scfg.perQuestionSeconds, fit.perQuestionSeconds);
    const auto stats = simulateServer(scfg);
    EXPECT_EQ(stats.arrived, stats.completed);
}

TEST(Calibrate, RejectsDegenerateArguments)
{
    const size_t ed = 8;
    core::KnowledgeBase kb(ed);
    std::vector<float> row(ed, 0.1f);
    kb.addSentence(row.data(), row.data());
    core::EngineConfig ecfg;
    core::ColumnEngine engine(kb, ecfg);
    EXPECT_DEATH(calibrateServiceTimes(engine, ed, 4, 4, 1),
                 "batch sizes");
    EXPECT_DEATH(calibrateServiceTimes(engine, ed, 1, 4, 0), "repeat");
}

// ---------------------------------------------------------------
// RequestQueue: the batching dispatcher shared by sim and live paths.
// ---------------------------------------------------------------

using IntQueue = RequestQueue<int>;
using namespace std::chrono_literals;

TEST(RequestQueue, TryPushRejectsWhenFull)
{
    IntQueue q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)); // backpressure: refuse, don't block
    EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, MaxBatchOneYieldsSingletons)
{
    IntQueue q(8);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(q.tryPush(int(i)));
    std::vector<IntQueue::Entry> batch;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.popBatch(1, 0ns, batch));
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch[0].item, i); // FIFO order preserved
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, ZeroTimeoutDispatchesPartialBatchImmediately)
{
    IntQueue q(8);
    ASSERT_TRUE(q.tryPush(1));
    ASSERT_TRUE(q.tryPush(2));
    std::vector<IntQueue::Entry> batch;
    // Cap 8 with only 2 pending: a zero timeout must not wait for a
    // full batch.
    ASSERT_TRUE(q.popBatch(8, 0ns, batch));
    EXPECT_EQ(batch.size(), 2u);
}

TEST(RequestQueue, FullBatchDispatchesBeforeTimeout)
{
    IntQueue q(8);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(q.tryPush(int(i)));
    std::vector<IntQueue::Entry> batch;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.popBatch(4, std::chrono::hours(1), batch));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_LT(elapsed, 10s); // did not sit out the huge timeout
}

TEST(RequestQueue, TimeoutReleasesOldestPartialBatch)
{
    IntQueue q(8);
    ASSERT_TRUE(q.tryPush(42));
    std::vector<IntQueue::Entry> batch;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.popBatch(8, 20ms, batch));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_GE(elapsed, 19ms); // held until the head timed out
}

TEST(RequestQueue, CloseDrainsRemainderThenReportsEmpty)
{
    IntQueue q(8);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(q.tryPush(int(i)));
    q.close();
    EXPECT_FALSE(q.tryPush(99)); // no admissions after close

    std::vector<IntQueue::Entry> batch;
    // Drain releases immediately (no timeout wait), in caps.
    ASSERT_TRUE(q.popBatch(2, std::chrono::hours(1), batch));
    EXPECT_EQ(batch.size(), 2u);
    ASSERT_TRUE(q.popBatch(2, std::chrono::hours(1), batch));
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_FALSE(q.popBatch(2, std::chrono::hours(1), batch));
    EXPECT_TRUE(batch.empty());
}

TEST(RequestQueue, CloseWakesBlockedConsumer)
{
    IntQueue q(4);
    std::thread consumer([&q] {
        std::vector<IntQueue::Entry> batch;
        // Blocks on the empty queue until close() wakes it.
        EXPECT_FALSE(q.popBatch(4, std::chrono::hours(1), batch));
    });
    std::this_thread::sleep_for(10ms);
    q.close();
    consumer.join();
}

TEST(RequestQueue, ZeroCapacityIsFatal)
{
    EXPECT_EXIT(IntQueue q(0), ::testing::ExitedWithCode(1),
                "capacity");
}

// ---------------------------------------------------------------
// LatencyRecorder
// ---------------------------------------------------------------

TEST(LatencyRecorder, MergesWorkersIntoOneSnapshot)
{
    LatencyRecorder a(1.0, 100);
    LatencyRecorder b(1.0, 100);
    a.recordBatch(2);
    a.recordRequest(0.010, 0.020, 0.030);
    a.recordRequest(0.010, 0.020, 0.030);
    b.recordBatch(1);
    b.recordRequest(0.050, 0.100, 0.150);

    LatencyRecorder merged(1.0, 100);
    a.mergeInto(merged);
    b.mergeInto(merged);
    const LatencySnapshot s = merged.snapshot();
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.batches, 2u);
    EXPECT_DOUBLE_EQ(s.meanBatchSize, 1.5);
    EXPECT_NEAR(s.endToEnd.mean, (0.030 * 2 + 0.150) / 3, 1e-12);
    EXPECT_DOUBLE_EQ(s.endToEnd.max, 0.150);
    EXPECT_LE(s.endToEnd.p50, s.endToEnd.p95);
    EXPECT_LE(s.endToEnd.p95, s.endToEnd.p99);
}

TEST(LatencyRecorder, SnapshotJsonHasEveryField)
{
    LatencyRecorder r(1.0, 100);
    r.recordBatch(1);
    r.recordRequest(0.001, 0.002, 0.003);
    LatencySnapshot s = r.snapshot();
    s.arrived = 3;
    s.rejected = 2;
    s.rejectedFull = 1;
    s.rejectedShutdown = 1;
    const std::string j = s.toJson();
    for (const char *key :
         {"\"arrived\"", "\"rejected\"", "\"rejected_full\"",
          "\"rejected_shutdown\"", "\"completed\"",
          "\"batches\"", "\"mean_batch_size\"",
          "\"queue_wait_seconds\"", "\"service_seconds\"",
          "\"end_to_end_seconds\"", "\"p50\"", "\"p95\"", "\"p99\""})
        EXPECT_NE(j.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------
// LiveServer
// ---------------------------------------------------------------

core::KnowledgeBase
makeKb(size_t ns, size_t ed, uint64_t seed = 5)
{
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(seed);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-0.5f, 0.5f);
            b[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(a.data(), b.data());
    }
    return kb;
}

LiveServerConfig
liveConfig()
{
    LiveServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.batchTimeout = 1e-3;
    cfg.workers = 2;
    cfg.queueCapacity = 256;
    cfg.engine.chunkSize = 64;
    return cfg;
}

TEST(LiveServer, AnswersAreBitIdenticalToAReferenceEngine)
{
    // The query-blocked dataflow is bit-identical across batch
    // compositions (property-tested elsewhere), so whatever batches
    // the dispatcher forms, each answer must equal a lone infer()
    // on an identically-configured engine.
    const size_t ns = 300, ed = 16, n_requests = 40;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    LiveServerConfig cfg = liveConfig();
    core::ColumnEngine reference(kb, cfg.engine);

    LiveServer server(kb, cfg);
    XorShiftRng rng(17);
    std::vector<std::vector<float>> questions(n_requests);
    std::vector<std::future<Answer>> futures;
    for (auto &q : questions) {
        q.resize(ed);
        for (float &x : q)
            x = rng.uniformRange(-1.f, 1.f);
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    server.shutdown();

    std::vector<float> expected(ed);
    for (size_t i = 0; i < n_requests; ++i) {
        Answer a = futures[i].get();
        ASSERT_EQ(a.o.size(), ed);
        EXPECT_GE(a.batchSize, 1u);
        EXPECT_LE(a.batchSize, cfg.maxBatch);
        reference.infer(questions[i].data(), expected.data());
        for (size_t e = 0; e < ed; ++e)
            EXPECT_EQ(a.o[e], expected[e]) << "request " << i
                                           << " element " << e;
    }
}

TEST(LiveServer, ShutdownDrainsInFlightWithoutLosingFutures)
{
    // Flood the server and shut down immediately: every accepted
    // request must complete exactly once (a lost promise would hang
    // or throw broken_promise; a double set_value would throw).
    const core::KnowledgeBase kb = makeKb(200, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.batchTimeout = 50e-3; // requests are mid-queue at shutdown
    LiveServer server(kb, cfg);

    std::vector<float> q(8, 0.25f);
    std::vector<std::future<Answer>> futures;
    uint64_t accepted = 0, refused = 0;
    for (int i = 0; i < 200; ++i) {
        Ticket t = server.submit(q.data());
        if (t.accepted()) {
            ++accepted;
            futures.push_back(std::move(t.answer));
        } else {
            ++refused;
        }
    }
    server.shutdown();

    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        EXPECT_EQ(f.get().o.size(), 8u);
    }
    // One straggler after shutdown: refused for a different reason
    // than the queue-full rejections above, and the snapshot must
    // attribute each to its own counter (backpressure tuning needs
    // "full", deploy-drain monitoring needs "shutdown").
    Ticket late = server.submit(q.data());
    EXPECT_EQ(late.status, SubmitStatus::ShuttingDown);

    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.arrived, 201u);
    EXPECT_EQ(s.completed, accepted);
    EXPECT_EQ(s.rejectedFull, refused);
    EXPECT_EQ(s.rejectedShutdown, 1u);
    EXPECT_EQ(s.rejected, s.rejectedFull + s.rejectedShutdown);
    EXPECT_EQ(s.completed + s.rejected, s.arrived);
}

TEST(LiveServer, FullQueueRejectsWithBackpressureStatus)
{
    const core::KnowledgeBase kb = makeKb(100, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.workers = 1;
    cfg.maxBatch = 64;       // > capacity: the worker cannot dispatch
    cfg.batchTimeout = 10.0; // until this (never reached) timeout
    cfg.queueCapacity = 4;
    LiveServer server(kb, cfg);

    std::vector<float> q(8, 0.5f);
    std::vector<std::future<Answer>> futures;
    size_t rejected = 0;
    for (int i = 0; i < 10; ++i) {
        Ticket t = server.submit(q.data());
        if (t.accepted()) {
            futures.push_back(std::move(t.answer));
        } else {
            EXPECT_EQ(t.status, SubmitStatus::Rejected);
            ++rejected;
        }
    }
    // The worker holds for a full batch or the 10 s timeout, so the
    // queue held exactly its capacity and the overflow was rejected.
    EXPECT_EQ(futures.size(), 4u);
    EXPECT_EQ(rejected, 6u);

    server.shutdown(); // close() flushes the partial batch
    for (auto &f : futures)
        EXPECT_EQ(f.get().o.size(), 8u);

    // After shutdown, submissions report the terminal status.
    Ticket late = server.submit(q.data());
    EXPECT_EQ(late.status, SubmitStatus::ShuttingDown);
    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.completed, 4u);
    // 6 queue-full rejections while serving, 1 post-shutdown refusal:
    // the split must attribute each to the right cause.
    EXPECT_EQ(s.rejectedFull, 6u);
    EXPECT_EQ(s.rejectedShutdown, 1u);
    EXPECT_EQ(s.rejected, 7u);
    EXPECT_EQ(s.arrived, 11u);
}

TEST(LiveServer, MaxBatchOneServesEveryRequestAlone)
{
    const core::KnowledgeBase kb = makeKb(100, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.maxBatch = 1;
    LiveServer server(kb, cfg);

    std::vector<float> q(8, -0.5f);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < 30; ++i) {
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    server.shutdown();
    for (auto &f : futures)
        EXPECT_EQ(f.get().batchSize, 1u);

    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.batches, 30u);
    EXPECT_DOUBLE_EQ(s.meanBatchSize, 1.0);
}

TEST(LiveServer, ZeroTimeoutDispatchesEagerly)
{
    const core::KnowledgeBase kb = makeKb(100, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.batchTimeout = 0.0; // dispatch the moment a worker is free
    LiveServer server(kb, cfg);

    std::vector<float> q(8, 0.1f);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < 50; ++i) {
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    for (auto &f : futures) {
        const Answer a = f.get();
        EXPECT_GE(a.batchSize, 1u);
        EXPECT_LE(a.batchSize, cfg.maxBatch);
    }
    server.shutdown();
    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.completed, 50u);
    EXPECT_EQ(s.rejected, 0u);
}

TEST(LiveServer, SnapshotQuantilesAreOrderedAndComplete)
{
    const core::KnowledgeBase kb = makeKb(200, 16);
    LiveServer server(kb, liveConfig());
    std::vector<float> q(16, 0.3f);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < 60; ++i) {
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    server.shutdown();
    for (auto &f : futures)
        f.get();

    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.endToEnd.count, 60u);
    EXPECT_EQ(s.queueWait.count, 60u);
    EXPECT_EQ(s.service.count, 60u);
    EXPECT_LE(s.endToEnd.p50, s.endToEnd.p95);
    EXPECT_LE(s.endToEnd.p95, s.endToEnd.p99);
    EXPECT_GT(s.service.mean, 0.0);
    // End-to-end dominates its queue-wait and service components on
    // every path, so the means must order the same way.
    EXPECT_GE(s.endToEnd.mean, s.queueWait.mean);
    EXPECT_GE(s.endToEnd.mean, s.service.mean);
    EXPECT_GE(s.batches, 1u);
}

TEST(LiveServer, ConcurrentSnapshotsNeverShowPhantomBacklog)
{
    // The backlog bound under a flood; the monitor body is shared
    // with the cluster suite (tests/backlog_monitor.hh).
    const core::KnowledgeBase kb = makeKb(150, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.queueCapacity = 32;
    cfg.batchTimeout = 0.0;
    LiveServer server(kb, cfg);
    floodWhileMonitoringBacklog(server, 600);
}

TEST(LiveServer, ShutdownIsIdempotentAndDtorSafe)
{
    const core::KnowledgeBase kb = makeKb(50, 8);
    LiveServer server(kb, liveConfig());
    std::vector<float> q(8, 0.7f);
    Ticket t = server.submit(q.data());
    ASSERT_TRUE(t.accepted());
    server.shutdown();
    server.shutdown(); // second call is a no-op
    EXPECT_EQ(t.answer.get().o.size(), 8u);
    EXPECT_FALSE(server.accepting());
    // Destructor runs shutdown again — must not deadlock or double-free.
}

TEST(LiveServer, InvalidConfigIsFatal)
{
    const core::KnowledgeBase kb = makeKb(10, 4);
    LiveServerConfig bad_workers = liveConfig();
    bad_workers.workers = 0;
    EXPECT_EXIT(LiveServer(kb, bad_workers),
                ::testing::ExitedWithCode(1), "worker");

    LiveServerConfig bad_batch = liveConfig();
    bad_batch.maxBatch = 0;
    EXPECT_EXIT(LiveServer(kb, bad_batch),
                ::testing::ExitedWithCode(1), "batch cap");

    LiveServerConfig bad_timeout = liveConfig();
    bad_timeout.batchTimeout = -1.0;
    EXPECT_EXIT(LiveServer(kb, bad_timeout),
                ::testing::ExitedWithCode(1), "timeout");

    const core::KnowledgeBase empty(4);
    EXPECT_EXIT(LiveServer(empty, liveConfig()),
                ::testing::ExitedWithCode(1), "non-empty");
}

} // namespace
} // namespace mnnfast::serve
