/**
 * @file
 * Autotuner smoke check (DESIGN.md §10): a deterministic inference
 * whose output bits are printed in hex, so a driver script can assert
 * that the engine's answers are bit-identical no matter how the
 * kernel plans were obtained — measured by the tuner, disabled via
 * MNNFAST_NO_TUNER=1 (default plans), or imported from a JSON table
 * via MNNFAST_TUNER_CACHE. Also prints the number of plans the tuner
 * measured in this process, so the script can assert that an imported
 * table short-circuits measurement entirely.
 *
 * Usage: tuner_smoke [--export FILE] [--plan-quality]
 *   --export FILE    write the process's tuning table to FILE after
 *                    the runs (the file a later MNNFAST_TUNER_CACHE
 *                    run imports).
 *   --plan-quality   after the smoke, check that the tuner's
 *                    coordinate-descent search does not slow serving:
 *                    on an int8, ed=64, top-8-routed KB of 262144
 *                    rows (the routed-i8 serving workload's engine),
 *                    time a real ColumnEngine under the searched plan
 *                    and under every pinned plan of the full
 *                    candidate grid at nq=1 and nq=4 (rounds
 *                    interleaved, best round kept), and print both
 *                    with the cold warm-up seconds.
 *
 * Output: one "score <precision> <index> <hex32>" line per output
 * element per storage precision, then "tuner_measured <n>"; with
 * --plan-quality, "plan_quality ..." lines (only the "score" and
 * "tuner_measured" lines are deterministic).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/column_engine.hh"
#include "runtime/kernel_tuner.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace mnnfast;

namespace {

core::KnowledgeBase
buildKb(size_t ns, size_t ed, core::Precision prec)
{
    core::KnowledgeBase kb(ed, prec);
    kb.reserve(ns);
    XorShiftRng rng(7);
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

/**
 * The --plan-quality leg (see file comment). Each round times every
 * engine for `calls` inferBatch calls and keeps the per-call median;
 * an engine's figure is its best round, so drift between rounds hits
 * all plans alike. The comparison is printed as evidence, not gated:
 * single plans differ by less than the timing noise.
 */
void
planQuality()
{
    const size_t ns = 262144, ed = 64, rounds = 15, calls = 101;
    const core::KnowledgeBase kb =
        buildKb(ns, ed, core::Precision::I8);
    core::EngineConfig cfg;
    cfg.chunkSize = 1024;
    cfg.threads = 0;
    cfg.streaming = true;
    cfg.skipThreshold = 0.01f;
    cfg.routePolicy = core::RoutePolicy::TopK;
    cfg.routeTopK = 8;

    auto &tuner = runtime::KernelTuner::instance();
    tuner.clear();
    Timer warm;
    auto searched = std::make_unique<core::ColumnEngine>(kb, cfg);
    const double warmup_s = warm.seconds();
    for (const auto &e : tuner.entries())
        std::printf("plan_quality bucket %s ed %zu nq %zu plan %zu/%zu "
                    "passes %zu\n",
                    e.precision.c_str(), e.ed, e.nq, e.plan.stripRows,
                    e.plan.prefetchStride, e.passes);
    std::printf("plan_quality warmup_s %.3f\n", warmup_s);

    std::vector<runtime::KernelPlan> grid;
    std::vector<std::unique_ptr<core::ColumnEngine>> pinned;
    for (size_t strip : runtime::kStripRowsCandidates) {
        for (size_t pf : runtime::kPrefetchStrideCandidates) {
            core::EngineConfig c = cfg;
            c.stripRows = strip;
            c.prefetchStride = static_cast<int>(pf);
            grid.push_back({strip, pf});
            pinned.push_back(std::make_unique<core::ColumnEngine>(kb, c));
        }
    }

    XorShiftRng rng(11);
    std::vector<float> pool(64 * 4 * ed);
    for (float &x : pool)
        x = rng.uniformRange(-1.f, 1.f);
    std::vector<float> o(4 * ed);
    const auto perCallMs = [&](core::ColumnEngine &eng, size_t nq) {
        std::vector<double> ms(calls);
        for (size_t i = 0; i < calls; ++i) {
            const float *u = pool.data() + (i % 64) * 4 * ed;
            Timer t;
            eng.inferBatch(u, nq, o.data());
            ms[i] = t.millis();
        }
        std::nth_element(ms.begin(), ms.begin() + calls / 2, ms.end());
        return ms[calls / 2];
    };

    for (size_t nq : {size_t(1), size_t(4)}) {
        const runtime::KernelPlan sp = tuner.plan("i8", ed, nq);
        // Slot 0 is the searched (unpinned) engine, then the grid. The
        // starting slot rotates per round so no engine always runs
        // first after a switch.
        const size_t slots = 1 + grid.size();
        std::vector<double> best(slots, 1e300);
        for (size_t r = 0; r < rounds; ++r) {
            for (size_t j = 0; j < slots; ++j) {
                const size_t i = (j + r) % slots;
                core::ColumnEngine &eng = i == 0 ? *searched
                                                 : *pinned[i - 1];
                best[i] = std::min(best[i], perCallMs(eng, nq));
            }
        }
        const size_t bi = static_cast<size_t>(
            std::min_element(best.begin() + 1, best.end())
            - best.begin() - 1);
        // Pinned figures of the default plan, and of the searched plan
        // itself: the latter against best[0] shows the timing noise.
        const auto pinnedMs = [&](const runtime::KernelPlan &p) {
            for (size_t g = 0; g < grid.size(); ++g)
                if (grid[g].stripRows == p.stripRows
                    && grid[g].prefetchStride == p.prefetchStride)
                    return best[1 + g];
            return 0.0;
        };
        std::printf("plan_quality nq %zu searched %zu/%zu %.4f ms "
                    "(pinned %.4f ms) grid_best %zu/%zu %.4f ms "
                    "ratio %.3f default %.4f ms\n",
                    nq, sp.stripRows, sp.prefetchStride, best[0],
                    pinnedMs(sp), grid[bi].stripRows,
                    grid[bi].prefetchStride, best[1 + bi],
                    best[0] / best[1 + bi],
                    pinnedMs(runtime::KernelPlan{}));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *export_path = nullptr;
    bool plan_quality = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--export") == 0 && i + 1 < argc)
            export_path = argv[++i];
        else if (std::strcmp(argv[i], "--plan-quality") == 0)
            plan_quality = true;
    }

    const size_t ns = 4096, ed = 64, nq = 3;
    XorShiftRng rng(9);
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-0.5f, 0.5f);

    for (core::Precision prec : {core::Precision::F32,
                                 core::Precision::BF16,
                                 core::Precision::I8}) {
        const core::KnowledgeBase kb = buildKb(ns, ed, prec);
        core::EngineConfig cfg;
        cfg.chunkSize = 512;
        cfg.threads = 0;
        cfg.streaming = true;
        cfg.skipThreshold = 1e-4f;
        core::ColumnEngine engine(kb, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i) {
            uint32_t bits;
            std::memcpy(&bits, &o[i], sizeof bits);
            std::printf("score %s %zu %08x\n",
                        core::precisionName(prec), i, bits);
        }
    }

    auto &tuner = runtime::KernelTuner::instance();
    std::printf("tuner_measured %zu\n", tuner.measuredCount());
    if (export_path && !tuner.exportJsonFile(export_path)) {
        std::fprintf(stderr, "export to %s failed\n", export_path);
        return 1;
    }
    if (plan_quality)
        planQuality();
    return 0;
}
