/**
 * @file
 * Reproduces paper Figure 14: "Effectiveness of embedding cache in
 * FPGA-based MnnFast."
 *
 * The paper drives the embedding cache with COCA word frequencies;
 * here a Zipf(s=1.15) word stream over a 10k-word dictionary stands in
 * (corpus studies place the English word-frequency exponent at
 * ~1.1-1.2)
 * (natural-language word frequency is Zipfian — see DESIGN.md). The
 * embedding dimension is 256, matching Section 5.4.2, and cache sizes
 * sweep 32KB..256KB. Paper reference: latency reductions of 34.5%,
 * 41.7%, 47.7%, 53.1%.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "data/zipf.hh"
#include "fpga/accelerator.hh"
#include "fpga/embedding_cache.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 14: embedding-cache effectiveness",
                  "Latency of the embedding operation, normalized to "
                  "the no-cache design; Zipf(1.15) word stream (COCA "
                  "stand-in), ed=256.");

    const size_t vocab = 10000;
    const size_t sentences_n = 4000;
    const size_t words_per_sentence = 8;

    data::ZipfGenerator zipf(vocab, 1.15, 21);
    std::vector<data::Sentence> sentences(sentences_n);
    for (auto &s : sentences) {
        s.resize(words_per_sentence);
        for (auto &w : s)
            w = static_cast<data::WordId>(zipf.sample());
    }

    fpga::FpgaConfig cfg;
    cfg.embeddingDim = 256;
    fpga::FpgaAccelerator accel(cfg);

    const auto no_cache = accel.runEmbedding(sentences, nullptr);
    std::printf("no-cache: %llu cycles for %llu word lookups\n\n",
                static_cast<unsigned long long>(no_cache.cycles),
                static_cast<unsigned long long>(no_cache.words));

    stats::Table table({"cache size", "entries", "hit rate",
                        "cycles", "normalized latency",
                        "latency reduction (%)"});
    for (size_t kb : {32ul, 64ul, 128ul, 256ul}) {
        fpga::EmbeddingCacheConfig ccfg;
        ccfg.sizeBytes = kb << 10;
        ccfg.embeddingDim = 256;
        fpga::EmbeddingCache cache(ccfg);
        const auto r = accel.runEmbedding(sentences, &cache);
        const double norm = double(r.cycles) / double(no_cache.cycles);
        table.addRow({std::to_string(kb) + "KB",
                      stats::Table::num(uint64_t(cache.entries())),
                      stats::Table::num(cache.hitRate(), 3),
                      stats::Table::num(uint64_t(r.cycles)),
                      stats::Table::num(norm, 3),
                      stats::Table::num(100.0 * (1.0 - norm), 1)});
    }
    table.print();

    std::printf("\npaper reference: 34.5%% / 41.7%% / 47.7%% / 53.1%% "
                "reduction for 32/64/128/256KB\n");
    return 0;
}
