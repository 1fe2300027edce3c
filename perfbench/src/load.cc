/**
 * @file
 * The open-loop load generator. One generator thread (the caller)
 * sends on a precomputed schedule and never waits for answers; one
 * collector thread polls every outstanding future and stamps each
 * answer when it becomes ready, in whatever order the server finishes
 * them (replicated workers may finish a later batch first). Latency
 * runs from the *due* time, so a generator stall is charged to the
 * requests it delays.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <thread>

#include "perfbench.hh"
#include "serve/live_server.hh"
#include "trace.hh"

namespace perfbench {

uint64_t
PhaseResult::rejected() const
{
    uint64_t n = 0;
    for (const Request &r : reqs)
        n += r.accepted ? 0 : 1;
    return n;
}

uint64_t
PhaseResult::failed() const
{
    uint64_t n = 0;
    for (const Request &r : reqs)
        n += (r.accepted && r.failed) ? 1 : 0;
    return n;
}

std::vector<double>
PhaseResult::latenciesMs() const
{
    std::vector<double> v;
    v.reserve(reqs.size());
    for (const Request &r : reqs)
        if (r.accepted && !r.failed)
            v.push_back((r.done - r.due) * 1e3);
    return v;
}

std::vector<double>
PhaseResult::latenessMs() const
{
    std::vector<double> v;
    v.reserve(reqs.size());
    for (const Request &r : reqs)
        v.push_back((r.submitStart - r.due) * 1e3);
    return v;
}

namespace {

/**
 * Wait until `t` without sleeping: an idle CPU of a virtual machine is
 * halted, and waking it again can take milliseconds when the host is
 * busy, which would make the schedule late. Yielding keeps the
 * collector (which shares this CPU and polls the same way) responsive.
 */
void
waitUntil(double t)
{
    while (now() < t)
        sched_yield();
}

} // namespace

PhaseResult
runPhase(serve::LiveServer &server, const std::vector<float> &questions,
         size_t ed, const PhasePlan &plan)
{
    const bool burst = plan.offsets.empty();
    const size_t n = burst ? plan.burst : plan.offsets.size();
    const size_t pool = questions.size() / ed;

    PhaseResult res;
    res.reqs.resize(n);
    std::vector<char> keep(n, 0);
    Rng qrng(mixSeed(plan.seed, 3));
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
        res.reqs[i].question = qrng.next() % pool;
        if (plan.keepEvery != 0 && kept < plan.keepMax
            && qrng.next() % plan.keepEvery == 0) {
            keep[i] = 1;
            ++kept;
        }
    }
    std::vector<uint64_t> spanIds(plan.tracer ? n : 0);
    for (uint64_t &id : spanIds)
        id = plan.tracer->newId();

    struct Item
    {
        size_t idx;
        std::future<serve::Answer> answer;
    };
    std::mutex mutex;
    std::vector<Item> inbox;  ///< guarded by mutex
    bool sendingDone = false; ///< guarded by mutex
    std::atomic<uint64_t> completed{0};

    auto stamp = [&](Item &item, double t) {
        serve::Answer a = item.answer.get();
        Request &r = res.reqs[item.idx];
        r.done = t;
        r.queueWait = a.queueWaitSeconds;
        r.service = a.serviceSeconds;
        r.batch = a.batchSize;
        r.failed = a.failed;
        if (keep[item.idx] && !a.failed)
            res.kept.emplace_back(r.question, std::move(a.o));
        if (plan.tracer) {
            Tracer &tr = *plan.tracer;
            const uint64_t id = spanIds[item.idx];
            const double dispatched = r.submitStart + r.queueWait;
            tr.record("serve.queue", r.submitStart, dispatched, id,
                      item.idx);
            tr.record("engine.service", dispatched, dispatched + r.service,
                      id, item.idx);
            tr.record("request", r.due, t, 0, item.idx, id);
        }
        completed.fetch_add(1, std::memory_order_release);
    };

    std::thread collector([&] {
        std::vector<Item> pending;
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                for (Item &item : inbox)
                    pending.push_back(std::move(item));
                inbox.clear();
                if (pending.empty() && sendingDone)
                    return;
            }
            // One sweep: stamp every ready answer, keep the rest.
            size_t left = 0;
            for (size_t k = 0; k < pending.size(); ++k) {
                if (pending[k].answer.wait_for(std::chrono::seconds(0))
                    == std::future_status::ready)
                    stamp(pending[k], now());
                else if (left++ != k)
                    pending[left - 1] = std::move(pending[k]);
            }
            const bool idle = left == pending.size();
            pending.erase(pending.begin() + long(left), pending.end());
            if (idle)
                sched_yield();
        }
    });

    uint64_t accepted = 0;
    constexpr size_t kBacklogSamples = 16;
    std::vector<double> backlog;
    const double t0 = now() + 2e-3;
    for (size_t i = 0; i < n; ++i) {
        Request &r = res.reqs[i];
        r.due = burst ? t0 : t0 + plan.offsets[i];
        if (!burst)
            waitUntil(r.due);
        r.submitStart = now();
        serve::Ticket ticket =
            server.submit(questions.data() + r.question * ed);
        r.submitEnd = now();
        r.accepted = ticket.accepted();
        if (plan.tracer) {
            plan.tracer->record("gen.late", r.due, r.submitStart,
                                spanIds[i], i);
            plan.tracer->record("serve.submit", r.submitStart,
                                r.submitEnd, spanIds[i], i);
        }
        if (r.accepted) {
            ++accepted;
            std::lock_guard<std::mutex> lock(mutex);
            inbox.push_back({i, std::move(ticket.answer)});
        }
        if (backlog.size() < kBacklogSamples
            && i + 1 >= n * (backlog.size() + 1) / kBacklogSamples)
            backlog.push_back(double(
                accepted - completed.load(std::memory_order_acquire)));
    }
    if (backlog.size() == kBacklogSamples) {
        const auto half = backlog.begin() + kBacklogSamples / 2;
        res.backlogEarly = uint64_t(median({backlog.begin(), half}));
        res.backlogLate = uint64_t(median({half, backlog.end()}));
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        sendingDone = true;
    }
    collector.join();

    res.firstSubmit = n ? res.reqs[0].submitStart : t0;
    res.lastDone = res.firstSubmit;
    for (const Request &r : res.reqs)
        if (r.accepted)
            res.lastDone = std::max(res.lastDone, r.done);
    return res;
}

double
lateP99Ms(const std::vector<const PhaseResult *> &phases)
{
    std::vector<double> v;
    for (const PhaseResult *p : phases) {
        const std::vector<double> l = p->latenessMs();
        v.insert(v.end(), l.begin(), l.end());
    }
    if (v.empty())
        return 0.0;
    if (percentileSupported(v.size(), 0.99))
        return percentile(v, 0.99);
    return *std::max_element(v.begin(), v.end());
}

} // namespace perfbench
