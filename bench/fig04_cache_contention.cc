/**
 * @file
 * Reproduces paper Figure 4: "Performance degradation of inference
 * threads due to co-executed embedding threads."
 *
 * Inference and embedding access streams are interleaved into one
 * shared LLC; the inference slowdown is reported relative to the
 * 1-embedding-thread case for several MemNN scales, plus the two
 * isolation remedies (cache bypassing, dedicated embedding cache).
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "sim/contention.hh"
#include "stats/table.hh"

using namespace mnnfast;

namespace {

sim::ContentionParams
baseParams(size_t working_set)
{
    sim::ContentionParams p;
    p.llc.sizeBytes = 8ull << 20;
    p.llc.associativity = 16;
    p.inferenceWorkingSet = working_set;
    p.embeddingTableBytes = 512ull << 20;
    p.embeddingRowBytes = 48 * 4;
    p.embeddingRate = 0.08;
    p.rounds = 8;
    return p;
}

} // namespace

int
main()
{
    bench::banner("Figure 4: inference slowdown under co-running "
                  "embedding threads",
                  "Values are relative performance vs. the 1-embedding-"
                  "thread case (1.00 = no extra degradation). Larger "
                  "MemNN scales keep a bigger working set and suffer "
                  "more.");

    struct Scale
    {
        const char *name;
        size_t workingSet;
    };
    const Scale scales[] = {
        {"small (ed=32, ws=2MB)", 2ull << 20},
        {"medium (ed=64, ws=4MB)", 4ull << 20},
        {"large (ed=128, ws=6MB)", 6ull << 20},
    };
    const size_t thread_counts[] = {1, 2, 4, 8};

    stats::Table table({"MemNN scale", "1 thr", "2 thr", "4 thr",
                        "8 thr", "hit-rate @8"});
    for (const Scale &s : scales) {
        std::vector<std::string> row{s.name};
        double ref = 0.0;
        double hit8 = 0.0;
        for (size_t t : thread_counts) {
            auto p = baseParams(s.workingSet);
            p.embeddingThreads = t;
            const auto r = sim::simulateContention(p);
            if (t == 1)
                ref = r.inferenceCyclesPerRound;
            row.push_back(
                stats::Table::num(ref / r.inferenceCyclesPerRound, 3));
            if (t == 8)
                hit8 = r.inferenceHitRate;
        }
        row.push_back(stats::Table::num(hit8, 3));
        table.addRow(std::move(row));
    }
    table.print();

    // Remedies at the worst point (large scale, 8 embedding threads).
    std::printf("\nisolation remedies (large scale, 8 embedding "
                "threads; slowdown vs. running alone):\n");
    for (auto policy : {sim::EmbeddingPolicy::Shared,
                        sim::EmbeddingPolicy::Bypass,
                        sim::EmbeddingPolicy::Dedicated}) {
        auto p = baseParams(6ull << 20);
        p.embeddingThreads = 8;
        p.policy = policy;
        const auto r = sim::simulateContention(p);
        const char *name =
            policy == sim::EmbeddingPolicy::Shared ? "shared LLC"
            : policy == sim::EmbeddingPolicy::Bypass
                ? "cache bypassing"
                : "embedding cache";
        std::printf("  %-16s %.3fx slowdown (inference hit rate %.3f)\n",
                    name, r.slowdown, r.inferenceHitRate);
    }
    return 0;
}
