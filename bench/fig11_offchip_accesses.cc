/**
 * @file
 * Reproduces paper Figure 11: "The number of off-chip memory accesses
 * on CPU", normalized to the baseline.
 *
 * Paper's claims: the column-based algorithm turns the baseline's
 * intermediate-spill DRAM traffic into LLC hits; adding streaming
 * removes more than 60% of the off-chip (demand) accesses.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/traffic.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 11: off-chip memory accesses (normalized to "
                  "baseline)",
                  "Demand misses stall the pipeline; streamed "
                  "prefetches consume bandwidth but are overlapped.");

    sim::WorkloadParams wp;
    wp.ns = 1 << 17;
    wp.ed = 48;
    wp.nq = 32;
    wp.chunkSize = 1000;
    wp.zskipKeepFraction = 0.1;
    sim::CacheConfig llc;
    llc.sizeBytes = 30ull << 20;
    llc.associativity = 20;

    const sim::Dataflow flows[] = {
        sim::Dataflow::Baseline, sim::Dataflow::Column,
        sim::Dataflow::ColumnStreaming, sim::Dataflow::MnnFast};

    double base_total = 0.0;
    double base_demand = 0.0;
    stats::Table table({"dataflow", "off-chip lines (total)",
                        "normalized total", "demand misses",
                        "normalized demand", "LLC hit rate"});
    for (sim::Dataflow df : flows) {
        const auto r = sim::simulateDataflow(df, wp, llc);
        if (df == sim::Dataflow::Baseline) {
            base_total = double(r.dramLines());
            base_demand = double(r.demandMisses());
        }
        uint64_t hits = 0;
        for (const auto &p : r.phases)
            hits += p.hits;
        table.addRow(
            {sim::dataflowName(df), stats::Table::num(r.dramLines()),
             stats::Table::num(double(r.dramLines()) / base_total, 3),
             stats::Table::num(r.demandMisses()),
             stats::Table::num(double(r.demandMisses()) / base_demand,
                               3),
             stats::Table::num(double(hits) / double(r.accesses()),
                               3)});
    }
    table.print();
    std::printf("\n'total' counts every off-chip line (the paper's "
                "Fig. 11 metric: column+streaming removes >60%%); "
                "'demand' excludes prefetched lines, which are "
                "overlapped and do not stall\n");

    // Per-phase view for the baseline vs column comparison.
    std::printf("\nper-phase demand misses:\n");
    stats::Table phases({"dataflow", "inner_product", "softmax",
                         "weighted_sum"});
    for (sim::Dataflow df : flows) {
        const auto r = sim::simulateDataflow(df, wp, llc);
        phases.addRow({sim::dataflowName(df),
                       stats::Table::num(r.phases[0].demandMisses),
                       stats::Table::num(r.phases[1].demandMisses),
                       stats::Table::num(r.phases[2].demandMisses)});
    }
    phases.print();

    std::printf("\npaper reference: column makes baseline's DRAM "
                "accesses hit in the LLC; column+streaming removes "
                ">60%% of off-chip accesses\n");
    return 0;
}
