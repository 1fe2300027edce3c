/**
 * @file
 * Reproduces paper Figure 10: "Scalability of column-based algorithm
 * on CPU."
 *
 *  (a) the column-based algorithm without streaming still saturates
 *      (later than the baseline) as channels shrink;
 *  (b)/(c) with data streaming the speedup tracks the ideal line —
 *      streamed prefetches hide the demand-miss stalls and run at
 *      full DRAM bandwidth.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/cpu_system.hh"
#include "sim/traffic.hh"
#include "stats/table.hh"

using namespace mnnfast;

namespace {

void
printScaling(const char *title, const sim::TrafficResult &traffic)
{
    std::printf("%s\n", title);
    stats::Table table({"threads", "1-channel", "2-channel",
                        "4-channel", "ideal"});
    for (size_t t : {1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}) {
        std::vector<std::string> row{std::to_string(t)};
        for (size_t ch : {1, 2, 4}) {
            sim::CpuSystemConfig cfg;
            cfg.dram.channels = ch;
            sim::CpuSystemModel model(cfg);
            row.push_back(
                stats::Table::num(model.speedup(traffic, t), 2));
        }
        row.push_back(stats::Table::num(double(t), 2));
        table.addRow(std::move(row));
    }
    table.print();
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::banner("Figure 10: scalability of the column-based "
                  "algorithm on CPU",
                  "Speedup vs. threads (normalized to 1 thread of the "
                  "same configuration) for 1/2/4 DRAM channels.");

    sim::WorkloadParams wp;
    wp.ns = 1 << 17;
    wp.ed = 48;
    wp.nq = 32;
    wp.chunkSize = 1000;
    sim::CacheConfig llc;
    llc.sizeBytes = 30ull << 20;
    llc.associativity = 20;

    const auto base =
        sim::simulateDataflow(sim::Dataflow::Baseline, wp, llc);
    const auto col =
        sim::simulateDataflow(sim::Dataflow::Column, wp, llc);
    const auto str =
        sim::simulateDataflow(sim::Dataflow::ColumnStreaming, wp, llc);

    printScaling("(reference) baseline dataflow:", base);
    printScaling("(a) column-based, no streaming:", col);
    printScaling("(b/c) column-based with data streaming:", str);

    // Headline: streaming reaches (near-)ideal scaling on 4 channels.
    sim::CpuSystemConfig cfg4;
    cfg4.dram.channels = 4;
    sim::CpuSystemModel m4(cfg4);
    std::printf("at 20 threads / 4 channels: baseline %.2fx, column "
                "%.2fx, column+streaming %.2fx (ideal 20x)\n",
                m4.speedup(base, 20), m4.speedup(col, 20),
                m4.speedup(str, 20));
    return 0;
}
