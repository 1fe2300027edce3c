/**
 * @file
 * The LiveServer backlog-bound check shared by the in-process
 * (serve_test.cc) and cluster (net_test.cc) serving suites.
 */

#ifndef MNNFAST_TESTS_BACKLOG_MONITOR_HH
#define MNNFAST_TESTS_BACKLOG_MONITOR_HH

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "serve/live_server.hh"

namespace mnnfast::serve {

/**
 * Flood `server` with `requests` submissions from one client while a
 * monitor thread polls snapshot(), then shut it down.
 *
 * snapshot() latches `arrived` before the rejection counters and both
 * before merging the completion histograms, and submit() counts an
 * arrival only once it is queued or refused (see live_server.hh). A
 * monitor polling mid-flood must therefore never observe an apparent
 * backlog (arrived - rejected - completed) beyond what can physically
 * be in flight: the queue plus one batch per lane. Reading the
 * counters in the opposite order, or letting a lane hold more than
 * one batch, would routinely violate this under load. The guarantee
 * is one-sided: between latching `arrived` and the later reads, more
 * requests can be rejected/completed, so the signed backlog may
 * transiently go *negative* — it must only never exceed the physical
 * bound.
 */
inline void
floodWhileMonitoringBacklog(LiveServer &server, size_t requests)
{
    const LiveServerConfig &cfg = server.config();
    const uint64_t in_flight_bound =
        cfg.queueCapacity + server.engineSlots() * cfg.maxBatch;

    std::atomic<bool> done{false};
    std::thread monitor([&] {
        uint64_t prev_arrived = 0, prev_completed = 0;
        while (!done.load(std::memory_order_acquire)) {
            const LatencySnapshot s = server.snapshot();
            const int64_t backlog = int64_t(s.arrived)
                                  - int64_t(s.rejected)
                                  - int64_t(s.completed);
            ASSERT_LE(backlog, int64_t(in_flight_bound));
            ASSERT_EQ(s.rejected, s.rejectedFull + s.rejectedShutdown);
            // Successive snapshots from one thread are monotone.
            ASSERT_GE(s.arrived, prev_arrived);
            ASSERT_GE(s.completed, prev_completed);
            prev_arrived = s.arrived;
            prev_completed = s.completed;
        }
    });

    std::vector<float> q(server.embeddingDim(), 0.4f);
    std::vector<std::future<Answer>> futures;
    for (size_t i = 0; i < requests; ++i) {
        Ticket t = server.submit(q.data());
        if (t.accepted())
            futures.push_back(std::move(t.answer));
    }
    server.shutdown();
    done.store(true, std::memory_order_release);
    monitor.join();
    for (auto &f : futures)
        f.get();

    // After shutdown the books balance exactly.
    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.arrived,
              s.completed + s.rejectedFull + s.rejectedShutdown);
    EXPECT_EQ(s.completed, futures.size());
}

} // namespace mnnfast::serve

#endif // MNNFAST_TESTS_BACKLOG_MONITOR_HH
