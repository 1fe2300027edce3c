/**
 * @file
 * Ablation: zero-skipping on GPUs (paper Section 4.1.2).
 *
 * Quantifies the paper's two reasons for omitting zero-skipping from
 * the GPU implementation:
 *  1. warp-divergence skipping saves nothing — a warp retires early
 *     only when all 32 lanes are skipped;
 *  2. matrix compaction costs about as much as the weighted sum it is
 *     trying to shrink, and its gathers slow the remaining work.
 */

#include <cstdio>

#include "bench_common.hh"
#include "gpu/zskip_model.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Ablation (Section 4.1.2): zero-skipping on GPUs",
                  "Weighted-sum time relative to the dense kernel; "
                  "<1 is a win, >1 is harmful.");

    gpu::GpuWorkload wl;
    wl.ns = 16'000'000;
    wl.ed = 64;
    wl.nq = 128;
    wl.chunkSize = 1'000'000;

    gpu::GpuZskipModel model{gpu::GpuConfig{}, gpu::ZskipParams{}};
    std::printf("dense weighted sum: %.2f ms\n\n",
                model.denseWsumSeconds(wl) * 1e3);

    stats::Table table({"keep fraction", "warp-skip (rel)",
                        "compaction transform (ms)",
                        "compaction wsum (ms)", "compaction (rel)"});
    for (double keep : {0.5, 0.2, 0.1, 0.05, 0.01}) {
        const auto warp = model.warpSkip(wl, keep);
        const auto comp = model.compaction(wl, keep);
        table.addRow({stats::Table::num(keep, 2),
                      stats::Table::num(warp.relativeToDense, 3),
                      stats::Table::num(comp.transformSeconds * 1e3, 2),
                      stats::Table::num(comp.wsumSeconds * 1e3, 2),
                      stats::Table::num(comp.relativeToDense, 3)});
    }
    table.print();

    std::printf("\npaper's conclusions, reproduced:\n"
                "  - warp-skipping is ineffective at realistic keep "
                "fractions (a warp needs all 32 lanes skipped);\n"
                "  - the compaction transform alone is comparable to "
                "the weighted sum (paper: \"the transformation latency "
                "is comparable to weighted sum's latency\"), so "
                "compaction only pays off at extreme sparsity.\n");
    return 0;
}
