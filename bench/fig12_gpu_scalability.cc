/**
 * @file
 * Reproduces paper Figure 12: "Scalability of column-based algorithm
 * on GPU."
 *
 *  (a) multiple CUDA streams on a single GPU: kernel/copy overlap
 *      gives ~1.33x, then plateaus because H2D memcpy is the
 *      critical path;
 *  (b) multiple GPUs: better scaling (copies overlap across private
 *      links), but shared host bandwidth makes the worst-case H2D
 *      latency grow with GPU count vs. the ideal case B.
 */

#include <cstdio>

#include "bench_common.hh"
#include "gpu/stream_sim.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 12: column-based algorithm on GPU",
                  "Analytic TITAN Xp + PCIe model (see DESIGN.md "
                  "substitutions). Latencies in milliseconds.");

    gpu::GpuWorkload wl;
    wl.ns = 16'000'000; // scaled from the paper's 100M
    wl.ed = 64;         // Table 1 GPU column
    wl.nq = 128;
    wl.chunkSize = 1'000'000;

    gpu::CudaStreamSim sim{gpu::GpuConfig{}, gpu::PcieConfig{}};

    // ---- (a) CUDA streams on one GPU ----
    std::printf("\n(a) multiple CUDA streams, one GPU\n\n");
    stats::Table streams({"streams", "H2D (ms)", "kernels (ms)",
                          "makespan (ms)", "speedup vs 1 stream"});
    double one_stream = 0.0;
    for (size_t s : {1, 2, 3, 4, 8}) {
        const auto r = sim.runSingleGpu(wl, s);
        const auto &g = r.perGpu[0];
        if (s == 1)
            one_stream = r.makespan;
        streams.addRow({std::to_string(s),
                        stats::Table::num(g.h2dSeconds * 1e3, 2),
                        stats::Table::num(g.kernelSeconds * 1e3, 2),
                        stats::Table::num(r.makespan * 1e3, 2),
                        stats::Table::num(one_stream / r.makespan,
                                          2)});
    }
    streams.print();
    std::printf("\npaper reference: 1.33x from stream overlap; more "
                "streams do not help (memcpy is the critical path)\n");

    // ---- (b) multiple GPUs ----
    std::printf("\n(b) multiple GPUs (2 streams each)\n\n");
    stats::Table multi({"GPUs", "case", "max H2D (ms)",
                        "max kernel (ms)", "makespan (ms)",
                        "speedup vs 1-GPU serial"});
    for (size_t g : {1, 2, 3, 4}) {
        for (bool shared : {true, false}) {
            const auto r = sim.runMultiGpu(wl, g, 2, shared);
            double h2d = 0.0, kern = 0.0;
            for (const auto &lat : r.perGpu) {
                h2d = std::max(h2d, lat.h2dSeconds);
                kern = std::max(kern, lat.kernelSeconds);
            }
            multi.addRow(
                {std::to_string(g), shared ? "worst (shared)"
                                           : "ideal (B)",
                 stats::Table::num(h2d * 1e3, 2),
                 stats::Table::num(kern * 1e3, 2),
                 stats::Table::num(r.makespan * 1e3, 2),
                 stats::Table::num(one_stream / r.makespan, 2)});
        }
    }
    multi.print();

    const auto four = sim.runMultiGpu(wl, 4, 2, true);
    std::printf("\n4-GPU speedup over the 1-stream single-GPU "
                "baseline: %.2fx (paper: 4.34x)\n",
                one_stream / four.makespan);
    return 0;
}
