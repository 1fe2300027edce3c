/**
 * @file
 * Reproduces paper Figure 13: "Latency reduction of FPGA-based
 * MnnFast" — baseline, column, column+streaming, and full MnnFast on
 * the ZedBoard-class accelerator model (Table 1 FPGA column: ed=25,
 * ns=1000, chunk=25).
 *
 * Paper reference points: column -27.6%, column+streaming -38.2%,
 * MnnFast up to 2.01x overall.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "fpga/accelerator.hh"
#include "stats/table.hh"
#include "util/rng.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 13: FPGA-based MnnFast latency",
                  "Cycle-approximate ZedBoard model; each latency "
                  "normalized to the baseline implementation.");

    const size_t ns = 1000, ed = 25, nq = 16;

    // Question state and an attention-realistic knowledge base: ~2%
    // of sentences correlate with the question (hot), matching the
    // trained-attention sparsity of Fig. 6.
    XorShiftRng rng(5);
    std::vector<float> u(nq * ed);
    for (size_t e = 0; e < ed; ++e)
        u[e] = rng.uniformRange(-0.4f, 0.4f);
    for (size_t q = 1; q < nq; ++q)
        for (size_t e = 0; e < ed; ++e)
            u[q * ed + e] = u[e] + rng.uniformRange(-0.02f, 0.02f);
    const core::KnowledgeBase kb = bench::makeAttentionKb(
        ns, ed, u.data(), /*hot_fraction=*/0.02, /*hot_dot=*/3.0f,
        /*cold_dot=*/-2.0f, /*seed=*/6);

    struct Variant
    {
        const char *name;
        fpga::FpgaConfig cfg;
    };
    std::vector<Variant> variants;
    {
        fpga::FpgaConfig cfg; // ed=25, chunk=25 defaults
        cfg.columnMode = false;
        variants.push_back({"baseline", cfg});
        cfg.columnMode = true;
        variants.push_back({"column", cfg});
        cfg.streaming = true;
        variants.push_back({"column+streaming", cfg});
        cfg.skipThreshold = 0.5f; // exp-domain threshold (Section 4.2)
        variants.push_back({"mnnfast", cfg});
    }

    stats::Table table({"variant", "cycles/question", "compute",
                        "exposed mem", "normalized", "speedup"});
    double base_cycles = 0.0;
    std::vector<float> o(nq * ed);
    for (const Variant &v : variants) {
        fpga::FpgaAccelerator accel(v.cfg);
        const auto stats = accel.runInference(u.data(), nq, kb,
                                              o.data());
        const double cyc = double(stats.totalCycles) / nq;
        if (base_cycles == 0.0)
            base_cycles = cyc;
        table.addRow(
            {v.name, stats::Table::num(cyc, 0),
             stats::Table::num(double(stats.computeCycles) / nq, 0),
             stats::Table::num(double(stats.memoryCycles) / nq, 0),
             stats::Table::num(cyc / base_cycles, 3),
             stats::Table::num(base_cycles / cyc, 2)});
        if (v.cfg.skipThreshold > 0.f) {
            std::printf("  (mnnfast skipped %.1f%% of weighted-sum "
                        "rows)\n",
                        100.0 * double(stats.wsumRowsSkipped)
                            / double(stats.wsumRowsKept
                                     + stats.wsumRowsSkipped));
        }
    }
    table.print();

    std::printf("\npaper reference: column -27.6%%, column+streaming "
                "-38.2%%, MnnFast up to 2.01x\n");
    return 0;
}
