/**
 * @file
 * Ablation: the column-based algorithm's chunk size (DESIGN.md design
 * decision 2). Two views:
 *  - measured single-thread latency of the real ColumnEngine across
 *    chunk sizes (too small: per-chunk overhead; too large: chunk
 *    temporaries spill out of cache);
 *  - simulated off-chip demand misses across chunk sizes on the
 *    paper-scale LLC, showing the working-set cliff.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "core/column_engine.hh"
#include "sim/traffic.hh"
#include "stats/table.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Ablation: column-algorithm chunk size",
                  "Left: measured engine latency (this host). Right: "
                  "simulated demand misses (30MB LLC).");

    const size_t ns = 1 << 18, ed = 48, nq = 8;
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    {
        XorShiftRng rng(1);
        std::vector<float> a(ed), b(ed);
        for (size_t i = 0; i < ns; ++i) {
            for (size_t e = 0; e < ed; ++e) {
                a[e] = rng.uniformRange(-0.3f, 0.3f);
                b[e] = rng.uniformRange(-0.3f, 0.3f);
            }
            kb.addSentence(a.data(), b.data());
        }
    }
    XorShiftRng rng(2);
    std::vector<float> u(nq * ed), o(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-0.3f, 0.3f);

    sim::CacheConfig llc;
    llc.sizeBytes = 30ull << 20;
    llc.associativity = 20;

    stats::Table table({"chunk size", "measured ms", "sim demand "
                        "misses", "sim intermediate KB"});
    for (size_t chunk :
         {64ul, 256ul, 1000ul, 4096ul, 16384ul, 65536ul, 262144ul}) {
        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.streaming = true;
        core::ColumnEngine engine(kb, cfg);
        engine.inferBatch(u.data(), nq, o.data()); // warmup
        Timer t;
        for (int rep = 0; rep < 3; ++rep)
            engine.inferBatch(u.data(), nq, o.data());
        const double ms = t.millis() / 3;

        sim::WorkloadParams wp;
        wp.ns = 1 << 17;
        wp.ed = ed;
        wp.nq = 32;
        wp.chunkSize = chunk;
        const auto traffic =
            sim::simulateDataflow(sim::Dataflow::Column, wp, llc);

        table.addRow(
            {std::to_string(chunk), stats::Table::num(ms, 2),
             stats::Table::num(traffic.demandMisses()),
             stats::Table::num(uint64_t(wp.nq * chunk * 4 / 1024))});
    }
    table.print();

    std::printf("\nthe paper's choice (1000 sentences/chunk) sits on "
                "the flat part of both curves\n");
    return 0;
}
