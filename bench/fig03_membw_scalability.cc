/**
 * @file
 * Reproduces paper Figure 3: "Limited scalability due to memory
 * bandwidth bottleneck."
 *
 * The baseline MemNN's access stream is replayed through the shared-
 * LLC cache model; the resulting per-phase traffic is fed to the CPU
 * timing model for DRAM configurations of 1, 2, and 4 channels.
 * Expected shape: speedup saturates early with few channels and later
 * with more — memory bandwidth, not compute, caps the baseline.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/cpu_system.hh"
#include "sim/traffic.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 3: baseline MemNN speedup vs. threads, by "
                  "DRAM channel count",
                  "Simulated Xeon-class system; speedups normalized to "
                  "the 1-thread result of each channel configuration.");

    sim::WorkloadParams wp;
    wp.ns = 1 << 17; // 131072 sentences (scaled from the paper's 100M)
    wp.ed = 48;      // Table 1, CPU column
    wp.nq = 32;
    wp.chunkSize = 1000;

    sim::CacheConfig llc;
    llc.sizeBytes = 30ull << 20; // E5-2650 v4: 30 MB L3
    llc.associativity = 20;

    std::printf("workload: ns=%zu ed=%zu nq=%zu (scaled; see "
                "EXPERIMENTS.md)\n\n",
                wp.ns, wp.ed, wp.nq);

    const auto traffic =
        sim::simulateDataflow(sim::Dataflow::Baseline, wp, llc);

    const size_t channel_configs[] = {1, 2, 4};
    stats::Table table({"threads", "1-channel", "2-channel",
                        "4-channel", "ideal"});
    auto csv = bench::maybeCsv("fig03");
    if (csv)
        csv->writeRow({"threads", "ch1", "ch2", "ch4", "ideal"});

    for (size_t threads : {1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}) {
        std::vector<std::string> row{std::to_string(threads)};
        for (size_t ch : channel_configs) {
            sim::CpuSystemConfig cfg;
            cfg.dram.channels = ch;
            sim::CpuSystemModel model(cfg);
            row.push_back(
                stats::Table::num(model.speedup(traffic, threads), 2));
        }
        row.push_back(stats::Table::num(double(threads), 2));
        if (csv)
            csv->writeRow(row);
        table.addRow(std::move(row));
    }
    table.print();

    // Saturation summary (the paper's headline observation).
    std::printf("\nsaturation speedup at 20 threads:\n");
    for (size_t ch : channel_configs) {
        sim::CpuSystemConfig cfg;
        cfg.dram.channels = ch;
        sim::CpuSystemModel model(cfg);
        std::printf("  %zu channel(s): %.2fx\n", ch,
                    model.speedup(traffic, 20));
    }
    return 0;
}
