#include "core/chunk_summary_index.hh"

#include <algorithm>
#include <limits>

#include "util/bf16.hh"
#include "util/logging.hh"

namespace mnnfast::core {

ChunkSummaryIndex::ChunkSummaryIndex(const KnowledgeBase &kb,
                                     size_t chunk_rows)
    : ed(kb.dim()),
      chunk(chunk_rows),
      nChunks(0),
      nRows(kb.size())
{
    if (chunk_rows == 0)
        fatal("ChunkSummaryIndex: chunk_rows must be nonzero");
    if (nRows == 0)
        fatal("ChunkSummaryIndex: empty knowledge base");
    nChunks = (nRows + chunk - 1) / chunk;
    loV.resize(nChunks * ed);
    hiV.resize(nChunks * ed);
    std::vector<int8_t> qlo, qhi; // I8 per-group extremes

    for (size_t c = 0; c < nChunks; ++c) {
        const size_t c0 = c * chunk;
        const size_t c1 = std::min(c0 + chunk, nRows);
        float *lo = loV.data() + c * ed;
        float *hi = hiV.data() + c * ed;
        std::fill(lo, lo + ed, std::numeric_limits<float>::infinity());
        std::fill(hi, hi + ed,
                  -std::numeric_limits<float>::infinity());

        switch (kb.precision()) {
        case Precision::F32:
            for (size_t r = c0; r < c1; ++r) {
                const float *row = kb.minRow(r);
                for (size_t d = 0; d < ed; ++d) {
                    lo[d] = std::min(lo[d], row[d]);
                    hi[d] = std::max(hi[d], row[d]);
                }
            }
            break;
        case Precision::BF16:
            for (size_t r = c0; r < c1; ++r) {
                const uint16_t *row = kb.minRow16(r);
                for (size_t d = 0; d < ed; ++d) {
                    const float v = bf16ToFloat(row[d]);
                    lo[d] = std::min(lo[d], v);
                    hi[d] = std::max(hi[d], v);
                }
            }
            break;
        case Precision::I8:
            // Per quantization group: int8 extremes first, then one
            // affine map per dimension. scale >= 0 by construction
            // ((hi-lo)/255), so the int8 order is the dequantized
            // order and the extremes commute with the map.
            for (size_t g0 = c0; g0 < c1;) {
                const size_t g1 = std::min(kb.i8GroupEnd(g0), c1);
                const float scale = kb.minScale(g0);
                const float zero = kb.minZero(g0);
                qlo.assign(ed, int8_t(127));
                qhi.assign(ed, int8_t(-128));
                for (size_t r = g0; r < g1; ++r) {
                    const int8_t *row = kb.minRow8(r);
                    for (size_t d = 0; d < ed; ++d) {
                        qlo[d] = std::min(qlo[d], row[d]);
                        qhi[d] = std::max(qhi[d], row[d]);
                    }
                }
                for (size_t d = 0; d < ed; ++d) {
                    lo[d] = std::min(lo[d],
                                     scale * float(qlo[d]) + zero);
                    hi[d] = std::max(hi[d],
                                     scale * float(qhi[d]) + zero);
                }
                g0 = g1;
            }
            break;
        }
    }
}

} // namespace mnnfast::core
