/**
 * @file
 * Self-tests of the benchmark's own logic (perfbench --selftest): the
 * seeded schedule, the percentile rule, the ladder's stop rule and
 * the exit-code rule.
 * run.py runs them before every measurement, and checks the metric
 * names and units against BENCHMARK.json itself.
 */

#include <cmath>
#include <cstdio>

#include "perfbench.hh"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

void
scheduleTests()
{
    const auto a = poissonSchedule(42, 1000.0, 5.0);
    const auto b = poissonSchedule(42, 1000.0, 5.0);
    const auto c = poissonSchedule(43, 1000.0, 5.0);
    expect(a == b, "same seed gives the same schedule, bit for bit");
    expect(a != c, "another seed gives another schedule");
    expect(std::fabs(double(a.size()) - 5000.0) < 300.0,
           "schedule carries the requested rate");
    bool increasing = true;
    for (size_t i = 1; i < a.size(); ++i)
        increasing = increasing && a[i] > a[i - 1];
    expect(increasing && a.front() >= 0.0 && a.back() < 5.0,
           "arrivals are increasing and inside the phase");
    expect(mixSeed(1, 2) != mixSeed(1, 3) && mixSeed(1, 2) != mixSeed(2, 2),
           "derived seeds differ per stream and per seed");
}

void
percentileTests()
{
    expect(!percentileSupported(999, 0.99),
           "p99 refused with 999 samples");
    expect(percentileSupported(1000, 0.99), "p99 reported at 1000");
    expect(!percentileSupported(99, 0.90), "p90 refused with 99 samples");
    expect(percentileSupported(100, 0.90), "p90 reported at 100");
    expect(percentileSupported(20, 0.5), "p50 reported at 20");
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    expect(percentile(v, 0.5) == 50.0, "nearest-rank p50 of 1..100");
    expect(percentile(v, 0.9) == 90.0, "nearest-rank p90 of 1..100");
    expect(percentile(v, 0.99) == 99.0, "nearest-rank p99 of 1..100");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");

    // Best-window percentiles: a stall in some windows does not move
    // the figure; a slowdown in every window does.
    std::vector<double> lat(600, 1.0);
    for (size_t i = 0; i < 200; ++i)
        lat[200 + i] = 50.0; // two windows stalled throughout
    expect(bestWindowPercentile(lat, 0.9) == 1.0,
           "stalls confined to some windows leave the best-window p90");
    std::vector<double> plain = lat;
    expect(percentile(plain, 0.9) == 50.0,
           "while the plain p90 of the same samples moves");
    for (size_t i = 0; i < lat.size(); i += 10)
        lat[i] = 50.0; // every window slowed
    expect(bestWindowPercentile(lat, 0.5) == 1.0
               && bestWindowPercentile(lat, 0.95) == 50.0,
           "a slowdown present in every window shows");
    expect(std::isnan(bestWindowPercentile(std::vector<double>(99, 1.0), 0.9)),
           "best-window p90 refused below 100 samples");
}

void
ladderTests()
{
    StepOutcome good;
    good.samples = 500;
    good.tailMs = 4.0;
    good.backlogEarly = 10;
    good.backlogLate = 12;
    expect(stepPasses(good, 5.0, 8), "a step within every rule passes");

    StepOutcome s = good;
    s.tailMs = 5.5;
    expect(!stepPasses(s, 5.0, 8), "a tail over the limit fails");
    s = good;
    s.refused = 1;
    expect(!stepPasses(s, 5.0, 8), "one refusal fails the step");
    s = good;
    s.backlogLate = 40;
    expect(!stepPasses(s, 5.0, 8), "a growing backlog fails the step");
    s = good;
    s.backlogEarly = 40;
    s.backlogLate = 3;
    expect(stepPasses(s, 5.0, 8), "a shrinking backlog passes");
    s = good;
    s.samples = 99;
    expect(!stepPasses(s, 5.0, 8), "too few samples for the tail fails");

    // Synthetic ladders: pass up to rung k, fail above.
    for (long k = -1; k < 20; ++k) {
        size_t probes = 0;
        LadderSearch search(20);
        for (; !search.done(); ++probes)
            search.record(static_cast<long>(search.next()) <= k);
        expect(search.best() == k,
               "binary search finds the highest passing rung");
        expect(probes <= 5, "binary search probes at most log2(n+1)");
    }
    const auto rungs = rateLadder(100.0, 200.0, 1.05);
    bool fine = rungs.front() == 100.0 && rungs.back() >= 200.0;
    for (size_t i = 1; i < rungs.size(); ++i)
        fine = fine && rungs[i] / rungs[i - 1] <= 1.05 + 1e-12;
    expect(fine, "ladder spans the range in steps of at most 5%");
}

void
outputTests()
{
    expect(exitCode(true, false) == 0, "a correct, valid run exits 0");
    expect(exitCode(true, true) == 3,
           "a correct run with a late generator is invalid (exit 3)");
    expect(exitCode(false, true) == 1 && exitCode(false, false) == 1,
           "a wrong answer exits 1, whether or not the run was late");

    const std::string j =
        resultJson(true, 3, 0, {{"lat_p50_ms.low", 1.25, "ms"}});
    expect(j == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                "\"metrics\": {\"lat_p50_ms.low\": {\"value\": 1.25, "
                "\"unit\": \"ms\"}}}",
           "result line has exactly the contract's keys");
    expect(num(0.1) == "0.10000000000000001", "numbers keep every digit");
}

} // namespace

int
runSelfTests()
{
    failures = 0;
    scheduleTests();
    percentileTests();
    ladderTests();
    outputTests();
    if (failures == 0)
        std::fprintf(stderr, "selftest: all passed\n");
    return failures;
}

} // namespace perfbench
