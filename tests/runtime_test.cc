/**
 * @file
 * Tests for the thread pool and parallel-for runtime, including the
 * inline (0-thread) mode used by single-thread benchmarks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/kernel_tuner.hh"
#include "runtime/parallel_for.hh"
#include "runtime/scratch_arena.hh"
#include "runtime/thread_pool.hh"
#include "util/aligned_buffer.hh"

namespace mnnfast::runtime {
namespace {

TEST(SplitRange, EmptyInputGivesNoRanges)
{
    EXPECT_TRUE(splitRange(0, 4).empty());
}

TEST(SplitRange, FewerItemsThanParts)
{
    const auto r = splitRange(3, 8);
    ASSERT_EQ(r.size(), 3u);
    for (const Range &x : r)
        EXPECT_EQ(x.size(), 1u);
}

class SplitRangeProperty
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{};

TEST_P(SplitRangeProperty, CoversExactlyOnceAndBalanced)
{
    const auto [n, parts] = GetParam();
    const auto ranges = splitRange(n, parts);

    // Contiguous, ordered, covering [0, n).
    size_t expected_begin = 0;
    size_t min_size = n, max_size = 0;
    for (const Range &r : ranges) {
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_GT(r.end, r.begin);
        expected_begin = r.end;
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
    }
    EXPECT_EQ(expected_begin, n);
    if (n > 0)
        EXPECT_LE(max_size - min_size, 1u);
    EXPECT_LE(ranges.size(), parts);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SplitRangeProperty,
    ::testing::Values(std::pair<size_t, size_t>{0, 1},
                      std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{10, 3},
                      std::pair<size_t, size_t>{100, 7},
                      std::pair<size_t, size_t>{7, 100},
                      std::pair<size_t, size_t>{1024, 16}));

TEST(ThreadPool, InlineModeRunsOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0u);
    std::thread::id id;
    pool.submit([&] { id = std::this_thread::get_id(); });
    EXPECT_EQ(id, std::this_thread::get_id());
    pool.waitIdle(); // no-op, must not hang
}

TEST(ThreadPool, ExecutesAllSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&] { count.fetch_add(1); });
        pool.waitIdle();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, DrainsQueueOnDestruction)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, ComputesCorrectSum)
{
    ThreadPool pool(4);
    std::vector<int> data(10000);
    std::iota(data.begin(), data.end(), 0);
    std::atomic<long long> total{0};
    parallelFor(pool, data.size(), [&](Range r) {
        long long local = 0;
        for (size_t i = r.begin; i < r.end; ++i)
            local += data[i];
        total.fetch_add(local);
    });
    EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

TEST(ParallelFor, InlineModeCoversRange)
{
    ThreadPool pool(0);
    std::vector<bool> seen(100, false);
    parallelFor(pool, seen.size(), [&](Range r) {
        for (size_t i = r.begin; i < r.end; ++i)
            seen[i] = true;
    });
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(ParallelFor, EmptyRangeRunsNothing)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelFor(pool, 0, [&](Range) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForParts, ProducesRequestedPartition)
{
    ThreadPool pool(2);
    std::vector<int> part_of(100, -1);
    parallelForParts(pool, 100, 7, [&](size_t part, Range r) {
        for (size_t i = r.begin; i < r.end; ++i)
            part_of[i] = static_cast<int>(part);
    });
    // Every element assigned, parts contiguous and ascending.
    for (int p : part_of)
        EXPECT_GE(p, 0);
    EXPECT_TRUE(std::is_sorted(part_of.begin(), part_of.end()));
    EXPECT_EQ(part_of.back(), 6);
}

TEST(ParallelForParts, MorePartsThanItems)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelForParts(pool, 3, 10, [&](size_t, Range r) {
        EXPECT_EQ(r.size(), 1u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelFor, TemporaryBodyOutlivesCaller)
{
    // The loops copy the body into the tasks; a lambda passed as a
    // temporary (with captured state by value) must stay valid while
    // workers run.
    ThreadPool pool(3);
    std::atomic<long long> total{0};
    {
        const std::vector<int> weights(1000, 2);
        parallelFor(pool, weights.size(), [&total, weights](Range r) {
            long long local = 0;
            for (size_t i = r.begin; i < r.end; ++i)
                local += weights[i];
            total.fetch_add(local);
        });
    }
    EXPECT_EQ(total.load(), 2000);
}

TEST(ParallelForDynamic, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h.store(0);
    parallelForDynamic(pool, hits.size(), 7, [&](size_t, Range r) {
        for (size_t i = r.begin; i < r.end; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ParallelForDynamic, InlineModeCoversRange)
{
    ThreadPool pool(0);
    std::vector<bool> seen(100, false);
    size_t max_worker = 0;
    parallelForDynamic(pool, seen.size(), 3, [&](size_t w, Range r) {
        max_worker = std::max(max_worker, w);
        for (size_t i = r.begin; i < r.end; ++i)
            seen[i] = true;
    });
    EXPECT_EQ(max_worker, 0u); // single inline worker
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(ParallelForDynamic, EmptyRangeRunsNothing)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelForDynamic(pool, 0, 4, [&](size_t, Range) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForDynamic, ZeroGrainBehavesAsOne)
{
    ThreadPool pool(2);
    std::atomic<int> items{0};
    parallelForDynamic(pool, 25, 0, [&](size_t, Range r) {
        EXPECT_EQ(r.size(), 1u);
        items.fetch_add(static_cast<int>(r.size()));
    });
    EXPECT_EQ(items.load(), 25);
}

TEST(ParallelForDynamic, WorkerIdsAreUniqueAndDense)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<size_t> seen_workers;
    parallelForDynamic(pool, 200, 1, [&](size_t w, Range) {
        std::lock_guard<std::mutex> lock(mu);
        seen_workers.push_back(w);
    });
    for (size_t w : seen_workers)
        EXPECT_LT(w, 4u);
}

TEST(ParallelForDynamic, RangesRespectGrainAndOrder)
{
    ThreadPool pool(3);
    std::mutex mu;
    std::vector<Range> claimed;
    parallelForDynamic(pool, 100, 8, [&](size_t, Range r) {
        std::lock_guard<std::mutex> lock(mu);
        claimed.push_back(r);
    });
    size_t total = 0;
    for (const Range &r : claimed) {
        EXPECT_TRUE(r.size() == 8 || r.end == 100);
        total += r.size();
    }
    EXPECT_EQ(total, 100u);
}

TEST(ParallelForDynamic, BalancesSleepBoundWork)
{
    // Load-balance property: with blocking (sleeping) bodies even a
    // single-core host rotates workers, so every worker should claim
    // a comparable share off the cursor. Compute-bound bodies would
    // make this test meaningless on one core (the first running
    // worker can drain the cursor within its scheduling quantum).
    constexpr size_t kWorkers = 4;
    constexpr size_t kItems = 200;
    for (int attempt = 0; attempt < 4; ++attempt) {
        ThreadPool pool(kWorkers);
        std::vector<std::atomic<size_t>> per_worker(kWorkers);
        for (auto &c : per_worker)
            c.store(0);
        parallelForDynamic(pool, kItems, 1, [&](size_t w, Range r) {
            per_worker[w].fetch_add(r.size());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
        size_t min_c = kItems, max_c = 0, total = 0;
        for (const auto &c : per_worker) {
            min_c = std::min(min_c, c.load());
            max_c = std::max(max_c, c.load());
            total += c.load();
        }
        ASSERT_EQ(total, kItems);
        if (min_c > 0 && max_c <= min_c + (min_c + 3) / 4)
            return; // within 25%: balanced
    }
    FAIL() << "dynamic scheduling never balanced sleep-bound work";
}

TEST(ThreadPool, SubmitFromWorkerDoesNotDeadlock)
{
    // The idle-waiter-gated notify must still wake someone when tasks
    // are enqueued from inside a worker (nested submits).
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&] {
            count.fetch_add(1);
            pool.submit([&] { count.fetch_add(1); });
        });
    }
    pool.waitIdle();
    EXPECT_EQ(count.load(), 20);
}

TEST(ScratchArena, SpansAreCacheLineAligned)
{
    ScratchArena arena;
    for (size_t n : {1ul, 3ul, 17ul, 1000ul}) {
        auto f = reinterpret_cast<uintptr_t>(arena.floats(n));
        auto d = reinterpret_cast<uintptr_t>(arena.doubles(n));
        EXPECT_EQ(f % kCacheLineBytes, 0u) << "n=" << n;
        EXPECT_EQ(d % kCacheLineBytes, 0u) << "n=" << n;
    }
}

TEST(ScratchArena, SpansPersistUntilReset)
{
    // Growth mid-cycle must never move live spans: earlier claims
    // stay readable (and disjoint from later ones) until reset().
    ScratchArena arena;
    std::vector<float *> spans;
    for (int i = 0; i < 50; ++i) {
        float *s = arena.floats(100);
        s[0] = float(i);
        s[99] = float(-i);
        spans.push_back(s);
    }
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(spans[i][0], float(i));
        EXPECT_EQ(spans[i][99], float(-i));
    }
}

TEST(ScratchArena, CapacityIsStableAtSteadyState)
{
    // A serving loop claiming the same shapes every cycle must stop
    // allocating: capacity settles after the first cycle and reset()
    // recycles it.
    ScratchArena arena;
    auto cycle = [&] {
        arena.reset();
        arena.floats(4096);
        arena.doubles(64);
        arena.floats(64);
    };
    cycle();
    const size_t cap = arena.capacityBytes();
    EXPECT_GE(cap, 4096 * sizeof(float) + 64 * sizeof(double)
                       + 64 * sizeof(float));
    for (int i = 0; i < 10; ++i)
        cycle();
    EXPECT_EQ(arena.capacityBytes(), cap);
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(ScratchArena, ResetCoalescesGrowthIntoOneBlock)
{
    // Overflowing a cycle appends blocks; the next reset() merges the
    // retained capacity so the following cycle of equal total size is
    // a single bump-pointer walk.
    ScratchArena arena;
    arena.floats(100);
    arena.floats(10000);
    arena.floats(100000);
    EXPECT_GT(arena.blockCount(), 1u);
    const size_t cap = arena.capacityBytes();
    arena.reset();
    EXPECT_EQ(arena.blockCount(), 1u);
    EXPECT_EQ(arena.capacityBytes(), cap);
    // The whole prior footprint now fits in the single block.
    float *s = arena.floats(cap / sizeof(float));
    s[cap / sizeof(float) - 1] = 1.f;
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(ScratchArena, ZeroSizedClaimIsHarmless)
{
    ScratchArena arena;
    arena.floats(0);
    EXPECT_EQ(arena.capacityBytes(), 0u);
    float *s = arena.floats(8);
    s[7] = 3.f;
    EXPECT_EQ(s[7], 3.f);
}

TEST(ScratchArena, MoveTransfersOwnership)
{
    ScratchArena a;
    float *s = a.floats(256);
    s[0] = 42.f;
    const size_t cap = a.capacityBytes();

    ScratchArena b(std::move(a));
    EXPECT_EQ(b.capacityBytes(), cap);
    EXPECT_EQ(s[0], 42.f); // span owned by b now, still alive

    ScratchArena c;
    c.floats(64); // existing capacity must be released, not leaked
    c = std::move(b);
    EXPECT_EQ(c.capacityBytes(), cap);
    EXPECT_EQ(s[0], 42.f);
}

// ---------------------------------------------------------------------
// Kernel autotuner. The table is process-wide, so these tests clear it
// up front; later engine constructions simply re-measure their buckets.
// ---------------------------------------------------------------------

TEST(KernelTuner, PlanIsMeasuredOncePerBucketAndCached)
{
    KernelTuner &tuner = KernelTuner::instance();
    tuner.clear();
    const size_t c0 = tuner.measuredCount();

    const KernelPlan p1 = tuner.plan("i8", 128, 4);
    EXPECT_EQ(tuner.measuredCount(), c0 + 1);
    // Every candidate strip is a multiple of the kernels' 4-row
    // register group — the bit-identity precondition.
    EXPECT_GT(p1.stripRows, 0u);
    EXPECT_EQ(p1.stripRows % 4, 0u);

    // Same bucket (ed <= 128 -> 128, nq in 2..8 -> 4): cache hit, no
    // re-measurement, identical pick.
    const KernelPlan p2 = tuner.plan("i8", 100, 3);
    EXPECT_EQ(tuner.measuredCount(), c0 + 1);
    EXPECT_EQ(p2.stripRows, p1.stripRows);
    EXPECT_EQ(p2.prefetchStride, p1.prefetchStride);

    // Different bucket: measured separately.
    tuner.plan("i8", 128, 1);
    EXPECT_EQ(tuner.measuredCount(), c0 + 2);
}

TEST(KernelTuner, SearchedPlansAreInGridAndEachBucketMeasuredOnce)
{
    // The search is a coordinate descent over the candidate grids, so
    // every pick must still be a grid member, and each bucket must be
    // searched exactly once in 1 warm-up + 2 x (6 strips + 2 more
    // prefetch strides) = 17 passes — not the exhaustive sweep's 55.
    KernelTuner &tuner = KernelTuner::instance();
    tuner.clear();
    const std::pair<const char *, size_t> buckets[] = {
        {"f32", 1}, {"bf16", 4}, {"i8", 4}, {"bound", 1}};
    for (int round = 0; round < 2; ++round)
        for (const auto &[prec, nq] : buckets)
            tuner.plan(prec, 64, nq);
    EXPECT_EQ(tuner.measuredCount(), std::size(buckets));

    const auto all = tuner.entries();
    ASSERT_EQ(all.size(), std::size(buckets));
    for (const auto &e : all) {
        EXPECT_EQ(e.origin, PlanOrigin::Measured) << e.precision;
        EXPECT_NE(std::find(std::begin(kStripRowsCandidates),
                            std::end(kStripRowsCandidates),
                            e.plan.stripRows),
                  std::end(kStripRowsCandidates))
            << e.precision << " strip " << e.plan.stripRows;
        EXPECT_NE(std::find(std::begin(kPrefetchStrideCandidates),
                            std::end(kPrefetchStrideCandidates),
                            e.plan.prefetchStride),
                  std::end(kPrefetchStrideCandidates))
            << e.precision << " prefetch " << e.plan.prefetchStride;
        EXPECT_EQ(e.passes, 17u) << e.precision;
        EXPECT_GT(e.seconds, 0.0) << e.precision;
    }
}

TEST(KernelTuner, ExportImportRoundTripSkipsMeasurement)
{
    KernelTuner &tuner = KernelTuner::instance();
    tuner.clear();
    tuner.plan("bf16", 64, 1);
    tuner.plan("f32", 256, 16);
    const auto before = tuner.entries();
    ASSERT_EQ(before.size(), 2u);
    const std::string json = tuner.exportJson();
    // Schema fields documented in DESIGN.md §10.
    for (const char *field :
         {"\"backend\"", "\"entries\"", "\"precision\"", "\"ed\"",
          "\"nq\"", "\"strip_rows\"", "\"prefetch_stride\"",
          "\"seconds\"", "\"origin\"", "\"measured\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;

    tuner.clear();
    ASSERT_EQ(tuner.importJson(json), 2);
    const size_t measured = tuner.measuredCount();
    for (const auto &e : before) {
        // Imported entries satisfy plan() without re-measuring and
        // reproduce the exported picks exactly.
        const KernelPlan p = tuner.plan(e.precision.c_str(), e.ed, e.nq);
        EXPECT_EQ(p.stripRows, e.plan.stripRows) << e.precision;
        EXPECT_EQ(p.prefetchStride, e.plan.prefetchStride)
            << e.precision;
    }
    EXPECT_EQ(tuner.measuredCount(), measured);
    for (const auto &e : tuner.entries())
        EXPECT_EQ(e.origin, PlanOrigin::Imported)
            << e.precision << "/" << e.ed << "/" << e.nq;
}

TEST(KernelTuner, ImportNeverOverridesLocalMeasurements)
{
    KernelTuner &tuner = KernelTuner::instance();
    tuner.clear();
    const KernelPlan local = tuner.plan("f32", 64, 4);
    // An import claiming a different pick for the same bucket (and a
    // new bucket) merges only the new one.
    const std::string json =
        "{\"backend\": \"test\", \"entries\": ["
        "{\"precision\": \"f32\", \"ed\": 64, \"nq\": 4, "
        "\"strip_rows\": 60, \"prefetch_stride\": 9, "
        "\"seconds\": 1.0, \"origin\": \"measured\"},"
        "{\"precision\": \"f32\", \"ed\": 512, \"nq\": 16, "
        "\"strip_rows\": 8, \"prefetch_stride\": 0, "
        "\"seconds\": 2.0, \"origin\": \"measured\"}]}";
    EXPECT_EQ(tuner.importJson(json), 1);
    const KernelPlan after = tuner.plan("f32", 64, 4);
    EXPECT_EQ(after.stripRows, local.stripRows);
    EXPECT_EQ(after.prefetchStride, local.prefetchStride);
    const KernelPlan imported = tuner.plan("f32", 512, 16);
    EXPECT_EQ(imported.stripRows, 8u);
    EXPECT_EQ(imported.prefetchStride, 0u);
    EXPECT_EQ(tuner.importJson("not json at all"), -1);
}

TEST(KernelTuner, ImportRejectsPlansOutsideTheCandidateGrids)
{
    KernelTuner &tuner = KernelTuner::instance();
    tuner.clear();
    // Three corrupt entries: strip_rows 0 (would wedge the engines'
    // `s0 += strip` sweep loops), an off-grid strip, and an off-grid
    // prefetch stride. None may be imported — a tuned plan's whole
    // contract is membership in the measured candidate grids.
    const std::string json =
        "{\"backend\": \"test\", \"entries\": ["
        "{\"precision\": \"f32\", \"ed\": 64, \"nq\": 4, "
        "\"strip_rows\": 0, \"prefetch_stride\": 0, "
        "\"seconds\": 1.0, \"origin\": \"measured\"},"
        "{\"precision\": \"f32\", \"ed\": 128, \"nq\": 4, "
        "\"strip_rows\": 60, \"prefetch_stride\": 0, "
        "\"seconds\": 1.0, \"origin\": \"measured\"},"
        "{\"precision\": \"f32\", \"ed\": 256, \"nq\": 4, "
        "\"strip_rows\": 8, \"prefetch_stride\": 9, "
        "\"seconds\": 1.0, \"origin\": \"measured\"}]}";
    EXPECT_EQ(tuner.importJson(json), 0);
    EXPECT_TRUE(tuner.entries().empty());

    // The bucket a corrupt entry claimed simply measures and lands on
    // an in-grid plan.
    const size_t c0 = tuner.measuredCount();
    const KernelPlan p = tuner.plan("f32", 64, 4);
    EXPECT_EQ(tuner.measuredCount(), c0 + 1);
    bool strip_in_grid = false;
    for (size_t s : kStripRowsCandidates)
        strip_in_grid |= p.stripRows == s;
    EXPECT_TRUE(strip_in_grid);
    bool pf_in_grid = false;
    for (size_t s : kPrefetchStrideCandidates)
        pf_in_grid |= p.prefetchStride == s;
    EXPECT_TRUE(pf_in_grid);
}

TEST(KernelTuner, CorruptedEnvCacheFallsBackToMeasuring)
{
    KernelTuner &tuner = KernelTuner::instance();
    const char *path = "tuner_cache_corrupt_test.json";

    auto planWithCache = [&](const std::string &content) {
        {
            std::ofstream out(path);
            out << content;
        }
        ::setenv("MNNFAST_TUNER_CACHE", path, 1);
        tuner.clear(); // re-arms the one-shot env seeding
        const size_t c0 = tuner.measuredCount();
        const KernelPlan p = tuner.plan("bf16", 64, 4);
        ::unsetenv("MNNFAST_TUNER_CACHE");
        // Whatever the file held, the plan was measured locally (the
        // seeding imported nothing) and is in-grid.
        EXPECT_EQ(tuner.measuredCount(), c0 + 1) << content;
        bool in_grid = false;
        for (size_t s : kStripRowsCandidates)
            in_grid |= p.stripRows == s;
        EXPECT_TRUE(in_grid) << content;
        for (const auto &e : tuner.entries())
            EXPECT_EQ(e.origin, PlanOrigin::Measured) << content;
    };

    // Not JSON at all.
    planWithCache("complete garbage %%%");
    // Truncated mid-entry (no closing brace: the scanner must stop).
    planWithCache("{\"backend\": \"x\", \"entries\": ["
                  "{\"precision\": \"bf16\", \"ed\": 64, \"nq\": 4, "
                  "\"strip_rows\": 8,");
    // Well-formed JSON whose plan is poison (strip_rows 0).
    planWithCache("{\"backend\": \"x\", \"entries\": ["
                  "{\"precision\": \"bf16\", \"ed\": 64, \"nq\": 4, "
                  "\"strip_rows\": 0, \"prefetch_stride\": 0, "
                  "\"seconds\": 1.0, \"origin\": \"measured\"}]}");
    // Entry missing required fields.
    planWithCache("{\"backend\": \"x\", \"entries\": ["
                  "{\"precision\": \"bf16\", \"ed\": 64}]}");
    // A valid entry outside an "entries" list: importJson rejects the
    // text, so the seeding does too.
    planWithCache("{\"precision\": \"bf16\", \"ed\": 64, \"nq\": 4, "
                  "\"strip_rows\": 8, \"prefetch_stride\": 0}");

    std::remove(path);
    tuner.clear();
}

TEST(KernelTuner, NoTunerEnvReturnsDefaultsWithoutCaching)
{
    KernelTuner &tuner = KernelTuner::instance();
    tuner.clear();
    ::setenv("MNNFAST_NO_TUNER", "1", 1);
    const KernelPlan p = tuner.plan("i8", 128, 16);
    ::unsetenv("MNNFAST_NO_TUNER");
    EXPECT_EQ(p.stripRows, KernelPlan{}.stripRows);
    EXPECT_EQ(p.prefetchStride, KernelPlan{}.prefetchStride);
    EXPECT_EQ(tuner.measuredCount(), 0u);
    EXPECT_TRUE(tuner.entries().empty());
}

} // namespace
} // namespace mnnfast::runtime
