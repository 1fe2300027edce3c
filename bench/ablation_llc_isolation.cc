/**
 * @file
 * Ablation: could a bigger shared LLC substitute for the embedding
 * cache? (paper Section 3.3's design question)
 *
 * Sweeps the shared LLC size under the Fig. 4 contention workload and
 * compares three designs at each size: shared LLC (the problem),
 * cache bypassing (the paper's rejected alternative), and the
 * dedicated embedding cache (MnnFast's answer). Inference tenants
 * size their chunk working sets to the cache they run on (that is
 * the point of the column algorithm), so the working set scales with
 * the LLC: growing the LLC never escapes the contention, while a
 * tiny dedicated cache removes it at any scale.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/contention.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Ablation (Section 3.3): LLC size vs. dedicated "
                  "embedding cache",
                  "Inference slowdown under 8 co-running embedding "
                  "threads; the inference working set scales with the "
                  "LLC (3/4 of capacity), as a cache-sized tenant "
                  "would.");

    stats::Table table({"shared LLC", "working set",
                        "shared (slowdown)", "bypass (slowdown)",
                        "embed-cache (slowdown)",
                        "inference hit rate (shared)"});

    for (size_t mb : {8ul, 16ul, 32ul, 64ul}) {
        sim::ContentionParams p;
        p.llc.sizeBytes = mb << 20;
        p.llc.associativity = 16;
        p.inferenceWorkingSet = (p.llc.sizeBytes / 4) * 3;
        p.embeddingTableBytes = 512ull << 20;
        p.embeddingRowBytes = 48 * 4;
        p.embeddingRate = 0.08;
        p.embeddingThreads = 8;
        p.rounds = 8;

        std::vector<std::string> row{
            std::to_string(mb) + "MB",
            std::to_string(mb * 3 / 4) + "MB"};
        double shared_hit = 0.0;
        for (auto policy : {sim::EmbeddingPolicy::Shared,
                            sim::EmbeddingPolicy::Bypass,
                            sim::EmbeddingPolicy::Dedicated}) {
            p.policy = policy;
            const auto r = sim::simulateContention(p);
            row.push_back(stats::Table::num(r.slowdown, 3));
            if (policy == sim::EmbeddingPolicy::Shared)
                shared_hit = r.inferenceHitRate;
        }
        row.push_back(stats::Table::num(shared_hit, 3));
        table.addRow(std::move(row));
    }
    table.print();

    std::printf("\nscaling the LLC does not escape the contention "
                "when tenants scale with it; isolation (bypass or the "
                "embedding cache) removes it outright, and only the "
                "embedding cache also accelerates the embedding "
                "stream itself (Fig. 14)\n");
    return 0;
}
