/**
 * @file
 * Coarse chunk summaries for routed (sublinear) KB attention: one
 * per-dimension [lo, hi] envelope per engine chunk of M_IN. The
 * envelope yields a cheap max-inner-product upper bound —
 * for any query x and any row m in the chunk,
 *
 *     x . m  <=  sum_d max(x_d*hi_d, x_d*lo_d)
 *
 * (each term picks the larger endpoint contribution, and m_d lies in
 * [lo_d, hi_d]) — which blas::chunkBoundBatch evaluates for a batch
 * of queries against all chunk summaries. The column engine scores
 * chunks with this bound and streams only the selected candidates
 * (EngineConfig::routePolicy). See DESIGN.md §11.
 */

#ifndef MNNFAST_CORE_CHUNK_SUMMARY_INDEX_HH
#define MNNFAST_CORE_CHUNK_SUMMARY_INDEX_HH

#include <cstddef>
#include <vector>

#include "core/knowledge_base.hh"

namespace mnnfast::core {

/**
 * Immutable summary of a KnowledgeBase's M_IN rows at a fixed chunk
 * grid: for each chunk of `chunk_rows` consecutive rows (the last
 * chunk may be short), the per-dimension min (`lo`) and max (`hi`)
 * of the rows as the fused kernels would stream them:
 *
 *  - F32 rows are read exactly.
 *  - BF16 rows are decoded bf16 -> fp32 first (the envelope bounds
 *    the decoded values the bf16 kernels actually dot against).
 *  - I8 rows never touch fp32 row decode: per quantization group
 *    (KnowledgeBase::i8GroupEnd) the int8 extremes per dimension
 *    are found first and mapped through the group's affine code
 *    (scale >= 0 always, so the int8 order is the dequantized order).
 *    One group costs an int8 scan plus ed affine maps — the
 *    scale/zero shortcut makes the I8 build the cheapest of the
 *    three.
 *
 * The index is a snapshot: it records the KB size it was built from
 * (`rows()`), and callers rebuild when the KB has grown. Views are
 * supported — an index over KnowledgeBase::view() summarizes exactly
 * the windowed rows, so a shard's index at the same chunk grid equals
 * the matching slice of the parent's index (routing composes with
 * sharding bit-identically; see DESIGN.md §11).
 *
 * The bound is exact in real arithmetic; in float it is canonical
 * (blas::chunkBoundBatch's fixed accumulation order) but the streamed
 * dot uses a different summation order, so validity tests allow
 * rounding-level slack. Selection only gates which chunks stream —
 * it never alters the value computed for a streamed chunk — so
 * routing with k = all chunks is bit-identical to the unrouted
 * engine regardless of bound rounding.
 */
class ChunkSummaryIndex
{
  public:
    /**
     * Summarize `kb`'s M_IN rows on a `chunk_rows` grid (must be
     * nonzero; `kb` must be non-empty). O(ns * ed) build, single
     * pass over the stored rows.
     */
    ChunkSummaryIndex(const KnowledgeBase &kb, size_t chunk_rows);

    /** Number of summarized chunks: ceil(rows() / chunkRows()). */
    size_t chunks() const { return nChunks; }

    /** Rows per chunk of the summary grid (last chunk may be short). */
    size_t chunkRows() const { return chunk; }

    /** KB rows the index was built from (staleness check). */
    size_t rows() const { return nRows; }

    /** Embedding dimension. */
    size_t dim() const { return ed; }

    /** Per-dimension minima, chunk c (ed floats). */
    const float *lo(size_t c) const { return loV.data() + c * ed; }

    /** Per-dimension maxima, chunk c (ed floats). */
    const float *hi(size_t c) const { return hiV.data() + c * ed; }

    /** All minima, row-major (chunks() x ed) — kernel input. */
    const float *loData() const { return loV.data(); }

    /** All maxima, row-major (chunks() x ed) — kernel input. */
    const float *hiData() const { return hiV.data(); }

    /** Footprint of the two envelope matrices, in bytes. */
    size_t bytes() const { return 2 * nChunks * ed * sizeof(float); }

  private:
    size_t ed;
    size_t chunk;
    size_t nChunks;
    size_t nRows;
    std::vector<float> loV; ///< (nChunks x ed) per-dim minima
    std::vector<float> hiV; ///< (nChunks x ed) per-dim maxima
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_CHUNK_SUMMARY_INDEX_HH
