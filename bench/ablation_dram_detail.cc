/**
 * @file
 * Ablation: where the CPU timing model's bandwidth asymmetry comes
 * from. The analytic model charges demand misses only ~50% of peak
 * DRAM bandwidth while streamed prefetches get ~100%; this harness
 * replays the actual access patterns of each MemNN phase through the
 * bank/row-buffer DRAM model and reports the achieved efficiencies.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "sim/dram_bank_model.hh"
#include "stats/table.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

/** Sequential line stream, as streamed M_IN/M_OUT chunk loads. */
std::vector<uint64_t>
sequentialStream(size_t lines)
{
    std::vector<uint64_t> addrs(lines);
    for (size_t i = 0; i < lines; ++i)
        addrs[i] = uint64_t(i) * 64;
    return addrs;
}

/**
 * Heavily interleaved demand mix: more concurrent sequential streams
 * than the DRAM has row buffers (20 threads each walking their own
 * M_IN partition plus intermediates), so streams keep closing each
 * other's rows.
 */
std::vector<uint64_t>
interleavedStream(size_t lines, size_t n_streams)
{
    std::vector<uint64_t> addrs;
    addrs.reserve(lines);
    for (size_t i = 0; i < lines; ++i) {
        const uint64_t stream = i % n_streams;
        addrs.push_back((stream << 32)
                        + uint64_t(i / n_streams) * 64);
    }
    return addrs;
}

/**
 * Large-stride writes: the baseline's T_IN fills one column per
 * question (stride = ns floats), touching a new DRAM row every
 * access.
 */
std::vector<uint64_t>
stridedStream(size_t lines, uint64_t stride)
{
    std::vector<uint64_t> addrs(lines);
    for (size_t i = 0; i < lines; ++i)
        addrs[i] = uint64_t(i) * stride;
    return addrs;
}

/** Random lines over a large footprint (embedding lookups). */
std::vector<uint64_t>
randomStream(size_t lines, uint64_t footprint)
{
    XorShiftRng rng(7);
    std::vector<uint64_t> addrs(lines);
    for (auto &a : addrs)
        a = rng.below(footprint / 64) * 64;
    return addrs;
}

} // namespace

int
main()
{
    bench::banner("Ablation: DRAM row-buffer behaviour per access "
                  "pattern",
                  "Bank-level replay of the access patterns behind "
                  "the timing model's bandwidth efficiencies.");

    sim::DramConfig dram;
    dram.channels = 4;
    sim::DramBankModel model(dram, sim::DramBankConfig{});

    const size_t lines = 200000;
    struct Pattern
    {
        const char *name;
        std::vector<uint64_t> addrs;
    };
    std::vector<Pattern> patterns;
    patterns.push_back({"sequential (streamed chunk)",
                        sequentialStream(lines)});
    patterns.push_back({"8-stream interleaved",
                        interleavedStream(lines, 8)});
    patterns.push_back({"80-stream interleaved (20T demand mix)",
                        interleavedStream(lines, 80)});
    patterns.push_back({"large-stride (T_IN column writes)",
                        stridedStream(lines, 1 << 20)});
    patterns.push_back({"random (embedding lookups)",
                        randomStream(lines, 1ull << 30)});

    stats::Table table({"pattern", "row hits (%)", "conflicts (%)",
                        "bytes/cycle", "efficiency"});
    for (const Pattern &p : patterns) {
        const auto s = model.replay(p.addrs);
        table.addRow(
            {p.name,
             stats::Table::num(100.0 * double(s.rowHits)
                               / double(s.lines), 1),
             stats::Table::num(100.0 * double(s.rowConflicts)
                               / double(s.lines), 1),
             stats::Table::num(s.bytesPerCycle, 2),
             stats::Table::num(s.efficiency, 3)});
    }
    table.print();

    std::printf("\nthe analytic CPU model's calibration "
                "(demandBandwidthEff=0.5, prefetch at peak) sits "
                "between the interleaved-demand and sequential rows "
                "above\n");
    return 0;
}
