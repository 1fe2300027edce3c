/**
 * @file
 * Sharded vs replicated serving ablation (DESIGN.md §9).
 *
 * Both LiveServer modes stream the whole knowledge base once per
 * dispatched batch; what sharding changes is *where a batch's pass
 * runs*. Replicated mode serves W concurrent batches on W full-KB
 * engines — under load the passes timeslice the cores, so every batch
 * takes ~W passes of wall-clock. Sharded mode serves one batch at a
 * time across all W workers (one shard each), so a batch takes ~one
 * pass. Same total work, same saturated throughput, lower
 * per-question latency — the paper's §6 scalability argument made
 * measurable on the serving path.
 *
 * For each mode (replicated at fixed workers; sharded at S = 2, 4, 8
 * with the same workers) this harness measures:
 *  1. burst rounds: 2 x maxBatch questions submitted back to back,
 *     all futures awaited — per-question end-to-end latency
 *     distribution straight from the answers' own timings;
 *  2. open-loop throughput at ~0.9x the single-pass capacity;
 *  3. engine-level sanity: median direct ShardedEngine::inferBatch
 *     wall time and the max |difference| between it and the cluster's
 *     composition — one single-group engine per shard view,
 *     inferPartial, then mergeStreamPartials. The two must agree bit
 *     for bit (sharded_engine.hh); any difference exits 1.
 *
 * Writes its JSON (e.g. BENCH_sharding.json) only to the explicit path in
 * MNNFAST_BENCH_JSON; exits 2 without one.
 *
 * Flags:
 *   --smoke      tiny KB, short rounds (CI leak check)
 *   --workers N  fixed worker count (default 2)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/column_engine.hh"
#include "core/sharded_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "serve/live_server.hh"
#include "shard_composition.hh"
#include "stats/table.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace mnnfast;

namespace {

struct LatencyStats
{
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
};

LatencyStats
summarize(std::vector<double> &xs)
{
    LatencyStats s;
    if (xs.empty())
        return s;
    std::sort(xs.begin(), xs.end());
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    s.mean = sum / double(xs.size());
    s.p50 = xs[xs.size() / 2];
    s.p95 = xs[std::min(xs.size() - 1,
                        static_cast<size_t>(0.95 * double(xs.size())))];
    return s;
}

struct ModeResult
{
    std::string label;
    size_t shards = 0; ///< 0 = replicated
    LatencyStats burstE2e;
    LatencyStats burstService;
    double throughputQps = 0.0;
    uint64_t completed = 0;
    uint64_t rejectedFull = 0;
    double directBatchSeconds = 0.0; ///< engine-level median
    double maxAbsDiff = 0.0;         ///< vs per-shard composition
    bool bitIdentical = true;        ///< vs per-shard composition
};

core::KnowledgeBase
buildKb(size_t ns, size_t ed)
{
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(17);
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

std::vector<std::vector<float>>
makeQuestions(size_t count, size_t ed, uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<std::vector<float>> qs(count);
    for (auto &q : qs) {
        q.resize(ed);
        for (float &x : q)
            x = rng.uniformRange(-1.f, 1.f);
    }
    return qs;
}

/** Burst rounds: per-question latencies from the answers themselves. */
void
runBursts(serve::LiveServer &server, size_t rounds, size_t burst,
          const std::vector<std::vector<float>> &questions,
          ModeResult &out)
{
    std::vector<double> e2e, service;
    e2e.reserve(rounds * burst);
    service.reserve(rounds * burst);
    std::vector<std::future<serve::Answer>> futures;
    size_t qi = 0;
    for (size_t r = 0; r < rounds; ++r) {
        futures.clear();
        for (size_t i = 0; i < burst; ++i) {
            serve::Ticket t = server.submit(
                questions[qi++ % questions.size()].data());
            if (t.accepted())
                futures.push_back(std::move(t.answer));
        }
        for (auto &f : futures) {
            serve::Answer a = f.get();
            e2e.push_back(a.queueWaitSeconds + a.serviceSeconds);
            service.push_back(a.serviceSeconds);
        }
    }
    out.burstE2e = summarize(e2e);
    out.burstService = summarize(service);
}

/** Open-loop Poisson load; returns completed/makespan throughput. */
void
runThroughput(serve::LiveServer &server, double rate, double duration,
              const std::vector<std::vector<float>> &questions,
              ModeResult &out)
{
    using Clock = std::chrono::steady_clock;
    XorShiftRng rng(4321);
    std::vector<std::future<serve::Answer>> futures;
    futures.reserve(static_cast<size_t>(rate * duration * 1.2) + 16);

    const auto t0 = Clock::now();
    const auto window_end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(duration));
    auto next = t0;
    size_t qi = 0;
    for (;;) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(-std::log(u) / rate));
        if (next > window_end)
            break;
        std::this_thread::sleep_until(next);
        serve::Ticket t =
            server.submit(questions[qi++ % questions.size()].data());
        if (t.accepted())
            futures.push_back(std::move(t.answer));
    }
    server.shutdown();
    for (auto &f : futures)
        f.get();
    const double makespan =
        std::chrono::duration<double>(Clock::now() - t0).count();

    const serve::LatencySnapshot s = server.snapshot();
    out.completed = s.completed;
    out.rejectedFull = s.rejectedFull;
    if (makespan > 0.0)
        out.throughputQps = double(s.completed) / makespan;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const bool smoke = args.flag("smoke");
    const size_t workers = args.sizeOpt("workers", 2);
    args.finish();
    const char *json_path = bench::requireJsonPath("ablation_sharding");

    bench::banner("Sharded vs replicated serving",
                  "Scatter/gather over a sharded KB against "
                  "per-worker full-KB replication at fixed cores.");

    const size_t ns = smoke ? 1024 : 8192;
    const size_t ed = smoke ? 32 : 64;
    const size_t burst_rounds = smoke ? 4 : 24;
    const double window = smoke ? 0.2 : 1.0;
    const size_t max_batch = 8;

    const core::KnowledgeBase kb = buildKb(ns, ed);
    const std::vector<std::vector<float>> questions =
        makeQuestions(64, ed, 7);

    core::EngineConfig ecfg;
    ecfg.chunkSize = std::min<size_t>(512, ns);
    ecfg.threads = 0;
    ecfg.streaming = true;

    // Single-pass capacity, for scaling the open-loop rate.
    std::vector<float> uflat(max_batch * ed), oflat(max_batch * ed);
    for (size_t i = 0; i < max_batch; ++i)
        std::memcpy(uflat.data() + i * ed, questions[i].data(),
                    ed * sizeof(float));
    double pass_seconds;
    {
        core::ColumnEngine ref(kb, ecfg);
        ref.inferBatch(uflat.data(), max_batch, oflat.data());
        std::vector<double> t(smoke ? 3 : 7);
        Timer timer;
        for (double &s : t) {
            timer.reset();
            ref.inferBatch(uflat.data(), max_batch, oflat.data());
            s = timer.seconds();
        }
        std::sort(t.begin(), t.end());
        pass_seconds = t[t.size() / 2];
    }
    const double rate = 0.9 * double(max_batch) / pass_seconds;

    std::vector<size_t> shard_counts =
        smoke ? std::vector<size_t>{2} : std::vector<size_t>{2, 4, 8};

    std::vector<ModeResult> modes;
    modes.push_back(
        {"replicated", 0, {}, {}, 0.0, 0, 0, 0.0, 0.0, true});
    for (size_t s : shard_counts)
        modes.push_back({"sharded[" + std::to_string(s) + "]", s, {},
                         {}, 0.0, 0, 0, 0.0, 0.0, true});

    // Engine-level equivalence column: the grouped engine against the
    // per-shard partials the cluster merges (see sharded_engine.hh).
    for (ModeResult &m : modes) {
        serve::LiveServerConfig lcfg;
        lcfg.maxBatch = max_batch;
        lcfg.batchTimeout = 0.5e-3;
        lcfg.workers = workers;
        lcfg.shards = m.shards;
        lcfg.queueCapacity = 4096;
        lcfg.engine = ecfg;
        lcfg.histogramMaxSeconds = 4.0;

        if (m.shards > 0) {
            core::ShardedKnowledgeBase skb(kb, ecfg.chunkSize,
                                           m.shards);
            core::EngineConfig scfg = ecfg;
            scfg.threads = workers;
            core::ShardedEngine eng(skb, scfg);
            std::vector<float> o_sharded(max_batch * ed);
            eng.inferBatch(uflat.data(), max_batch, o_sharded.data());

            const std::vector<float> o_composed = core::composeShards(
                skb, ecfg, uflat.data(), max_batch);
            for (size_t i = 0; i < o_composed.size(); ++i)
                m.maxAbsDiff = std::max(
                    m.maxAbsDiff,
                    double(std::fabs(o_sharded[i] - o_composed[i])));
            m.bitIdentical =
                std::memcmp(o_sharded.data(), o_composed.data(),
                            o_composed.size() * sizeof(float))
                == 0;
            std::vector<double> t(smoke ? 3 : 7);
            Timer timer;
            for (double &s : t) {
                timer.reset();
                eng.inferBatch(uflat.data(), max_batch,
                               o_sharded.data());
                s = timer.seconds();
            }
            std::sort(t.begin(), t.end());
            m.directBatchSeconds = t[t.size() / 2];
        } else {
            m.directBatchSeconds = pass_seconds;
        }

        {
            serve::LiveServer server(kb, lcfg);
            runBursts(server, burst_rounds, 2 * max_batch, questions,
                      m);
        }
        {
            serve::LiveServer server(kb, lcfg);
            runThroughput(server, rate, window, questions, m);
        }
    }

    stats::Table table({"mode", "burst e2e p50 (ms)",
                        "burst e2e mean (ms)", "burst svc p50 (ms)",
                        "open-loop q/s", "direct batch (ms)",
                        "max|diff|"});
    for (const ModeResult &m : modes) {
        table.addRow({m.label, stats::Table::num(m.burstE2e.p50 * 1e3, 3),
                      stats::Table::num(m.burstE2e.mean * 1e3, 3),
                      stats::Table::num(m.burstService.p50 * 1e3, 3),
                      stats::Table::num(m.throughputQps, 0),
                      stats::Table::num(m.directBatchSeconds * 1e3, 3),
                      stats::Table::num(m.maxAbsDiff, 10)});
    }
    table.print();

    bench::JsonWriter json(json_path);
    json.beginObject();
    json.key("kb");
    json.beginObject();
    json.field("ns", ns);
    json.field("ed", ed);
    json.endObject();
    json.field("workers", workers);
    json.field("max_batch", max_batch);
    json.field("burst_rounds", burst_rounds);
    json.field("open_loop_rate_qps", rate);
    json.field("single_pass_seconds", pass_seconds);
    json.key("modes");
    json.beginArray();
    for (const ModeResult &m : modes) {
        json.beginObject();
        json.field("mode", m.label.c_str());
        json.field("shards", m.shards);
        json.key("burst_end_to_end_seconds");
        json.beginObject();
        json.field("mean", m.burstE2e.mean);
        json.field("p50", m.burstE2e.p50);
        json.field("p95", m.burstE2e.p95);
        json.endObject();
        json.key("burst_service_seconds");
        json.beginObject();
        json.field("mean", m.burstService.mean);
        json.field("p50", m.burstService.p50);
        json.field("p95", m.burstService.p95);
        json.endObject();
        json.key("open_loop");
        json.beginObject();
        json.field("throughput_qps", m.throughputQps);
        json.field("completed", size_t(m.completed));
        json.field("rejected_full", size_t(m.rejectedFull));
        json.endObject();
        json.field("direct_batch_seconds", m.directBatchSeconds);
        json.field("max_abs_diff_vs_reference", m.maxAbsDiff);
        json.field("bit_identical", m.bitIdentical);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    std::printf("\nwrote %s (%zu modes)\n", json.path().c_str(),
                modes.size());
    std::printf("reading: both modes stream the full KB once per "
                "batch, so saturated throughput matches; sharded "
                "scatter/gather serves one batch across all workers "
                "instead of timeslicing concurrent batches, which is "
                "the per-question latency win. max|diff| is 0 by the "
                "chunk-aligned merge-exactness guarantee.\n");
    for (const ModeResult &m : modes) {
        if (!m.bitIdentical) {
            std::fprintf(stderr,
                         "\nBIT-IDENTITY FAILURE: %s differs from the "
                         "per-shard composition (max|diff| %g)\n",
                         m.label.c_str(), m.maxAbsDiff);
            return 1;
        }
    }
    return 0;
}
