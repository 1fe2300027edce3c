/**
 * @file
 * The input/output memory (M_IN / M_OUT) of a memory network: the
 * embedded story sentences the inference operation reasons over.
 */

#ifndef MNNFAST_CORE_KNOWLEDGE_BASE_HH
#define MNNFAST_CORE_KNOWLEDGE_BASE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "blas/kernels.hh"
#include "util/aligned_buffer.hh"

namespace mnnfast::core {

/**
 * Storage precision of the knowledge-base matrices. The KB stream is
 * the dominant memory traffic of MemNN inference, so halving the
 * element size halves the bytes every chunk pulls from DRAM; BF16
 * stores rows as bfloat16 (top 16 bits of the fp32 pattern,
 * nearest-even rounded at ingest) and the fused bf16 kernels
 * upconvert on the fly. I8 halves the stream again: rows are stored
 * as int8 under a per-chunk affine code (x ~ scale*q + zero, q in
 * [-128, 127]) and the fused i8 kernels dequantize on the fly. F32 is
 * the default and the accuracy reference. The precision is the blas
 * row codec the streaming kernels are templated on, so a KB's rows
 * reach the kernels as a typed view (KnowledgeBase::minRows) with no
 * per-precision branch at the call site. See DESIGN.md §5, §7, §10.
 */
using Precision = blas::RowCodec;

/** Display name: "f32", "bf16" or "i8". */
const char *precisionName(Precision p);

/** Bytes per stored element: 4 (F32), 2 (BF16) or 1 (I8). */
size_t precisionBytes(Precision p);

/**
 * Default rows per int8 quantization chunk. Matches the default
 * EngineConfig::chunkSize so one engine chunk reads one scale/zero
 * pair, but any value works: the engines split their row sweeps at
 * quantization-chunk boundaries (KnowledgeBase::i8GroupEnd).
 */
inline constexpr size_t kI8ChunkRowsDefault = 1000;

/**
 * Paired row-major (ns x ed) matrices M_IN and M_OUT, growable by
 * appending embedded sentences. Rows are appended in story order so
 * row index == sentence index (the temporal position used by the
 * trained model's temporal embeddings).
 *
 * Rows are always *ingested* as fp32 (the embedders produce floats);
 * in BF16 mode they are rounded to bfloat16 on append and stay bf16
 * in memory. In I8 mode rows are affine-quantized to int8 at append
 * time under one (scale, zero) pair per quantization chunk of
 * i8ChunkRows() consecutive rows, per matrix: the chunk's running
 * [lo, hi] element range maps onto q in [-128, 127] via
 * x_hat = scale*q + zero with scale = (hi-lo)/255 and
 * zero = lo + 128*scale. The fp32 rows of the current (tail) chunk
 * are staged so a range-extending append requantizes the whole tail
 * chunk from the exact inputs — the stored bytes therefore depend
 * only on the row contents and chunk boundaries, exactly as if the
 * full chunk had been quantized at once. The typed accessors are
 * precision-checked: minData()/minRow() are valid only in F32 mode,
 * minData16()/minRow16() only in BF16 mode, minData8()/minRow8()
 * (plus the per-row minScale()/minZero() code lookups) only in I8
 * mode, so a caller can never silently reinterpret one layout as
 * another.
 *
 * view() produces a non-owning window over a contiguous row range —
 * the storage behind knowledge-base sharding (sharded_knowledge_base
 * .hh). A view aliases the parent's rows (zero copy), reports the
 * window's size()/bytes(), and refuses mutation (addSentence/reserve/
 * clear are fatal); the parent must outlive every view.
 */
class KnowledgeBase
{
  public:
    /**
     * Create an empty knowledge base with embedding dimension ed.
     * `i8_chunk_rows` sets the I8 quantization-chunk size (rows per
     * scale/zero pair; ignored in F32/BF16 modes, must be nonzero).
     */
    explicit KnowledgeBase(size_t embedding_dim,
                           Precision precision = Precision::F32,
                           size_t i8_chunk_rows = kI8ChunkRowsDefault);

    /** Pre-allocate capacity for `ns` sentences. */
    void reserve(size_t ns);

    /**
     * Append one embedded sentence: min_row goes to M_IN, mout_row to
     * M_OUT; both are ed floats (rounded to bf16 in BF16 mode,
     * quantized in I8 mode, where any NaN or +-inf element is fatal).
     */
    void addSentence(const float *min_row, const float *mout_row);

    /** Remove all sentences (capacity retained). Fatal on a view. */
    void clear();

    /**
     * Non-owning window over rows [row_begin, row_end) of this
     * knowledge base (same embedding dimension and precision; the
     * range must be non-empty and in bounds). The view aliases this
     * KB's storage — no rows are copied — so it is valid only while
     * this KB is alive and un-mutated. Views are read-only: mutating
     * calls on them are fatal. Taking a view of a view is allowed and
     * windows the underlying rows.
     */
    KnowledgeBase view(size_t row_begin, size_t row_end) const;

    /** True for non-owning views produced by view(). */
    bool isView() const { return viewed; }

    /** Number of stored sentences (ns). */
    size_t size() const { return count; }

    /** Embedding dimension (ed). */
    size_t dim() const { return ed; }

    /** Storage precision of the M_IN/M_OUT rows. */
    Precision precision() const { return prec; }

    /** Bytes per stored element (4 for F32, 2 for BF16, 1 for I8). */
    size_t elemBytes() const { return precisionBytes(prec); }

    /** Row-major (ns x ed) input memory (F32 mode only). */
    const float *minData() const;

    /** Row-major (ns x ed) output memory (F32 mode only). */
    const float *moutData() const;

    /** Row-major (ns x ed) bf16 input memory (BF16 mode only). */
    const uint16_t *minData16() const;

    /** Row-major (ns x ed) bf16 output memory (BF16 mode only). */
    const uint16_t *moutData16() const;

    /** Row i of M_IN (F32 mode only). */
    const float *minRow(size_t i) const;

    /** Row i of M_OUT (F32 mode only). */
    const float *moutRow(size_t i) const;

    /** Row i of M_IN as bf16 (BF16 mode only). */
    const uint16_t *minRow16(size_t i) const;

    /** Row i of M_OUT as bf16 (BF16 mode only). */
    const uint16_t *moutRow16(size_t i) const;

    /** Row-major (ns x ed) int8 input memory (I8 mode only). */
    const int8_t *minData8() const;

    /** Row-major (ns x ed) int8 output memory (I8 mode only). */
    const int8_t *moutData8() const;

    /** Row i of M_IN as int8 (I8 mode only). */
    const int8_t *minRow8(size_t i) const;

    /** Row i of M_OUT as int8 (I8 mode only). */
    const int8_t *moutRow8(size_t i) const;

    /** Rows per int8 quantization chunk (I8 mode only). */
    size_t i8ChunkRows() const;

    /** Dequantization scale of row i's M_IN chunk (I8 mode only). */
    float minScale(size_t i) const;

    /** Dequantization zero of row i's M_IN chunk (I8 mode only). */
    float minZero(size_t i) const;

    /** Dequantization scale of row i's M_OUT chunk (I8 mode only). */
    float moutScale(size_t i) const;

    /** Dequantization zero of row i's M_OUT chunk (I8 mode only). */
    float moutZero(size_t i) const;

    /**
     * First row index after `i` where the (scale, zero) pair may
     * change, clamped to size() — i.e. rows [i, i8GroupEnd(i)) share
     * row i's quantization code, so a sweep that processes
     * [i, i8GroupEnd(i)) per kernel call passes one scale/zero pair
     * per call. Views may start mid-chunk (sharding cuts at engine
     * chunk boundaries, which need not be quantization boundaries),
     * so the first group of a view can be shorter than i8ChunkRows().
     * I8 mode only.
     */
    size_t i8GroupEnd(size_t i) const;

    /**
     * Typed M_IN row view for the blas streaming kernels, starting at
     * row i and valid through the end of row i's storage group (the
     * rows that share row i's storage code: the whole KB for F32/BF16,
     * up to i8GroupEnd(i) for I8); forEachGroup yields those ranges.
     */
    blas::Rows minRows(size_t i) const;

    /** Typed M_OUT row view, as minRows. */
    blas::Rows moutRows(size_t i) const;

    /**
     * Call f(g0, g1) for each storage group [g0, g1) covering rows
     * [begin, end), in ascending order: the kernel-call split that
     * gives every call one minRows()/moutRows() view.
     */
    template <class F>
    void
    forEachGroup(size_t begin, size_t end, F &&f) const
    {
        for (size_t g0 = begin; g0 < end;) {
            const size_t g1 = std::min(end, groupEnd(g0));
            f(g0, g1);
            g0 = g1;
        }
    }

    /**
     * Total bytes held by M_IN + M_OUT (for footprint and traffic
     * reporting): element size honest, not hard-coded fp32. The I8
     * per-chunk scale/zero metadata (16 bytes per i8ChunkRows() rows)
     * is excluded — it is noise next to the row payload.
     */
    size_t bytes() const { return 2 * count * ed * elemBytes(); }

  private:
    /**
     * End of row i's storage group: the first row after i whose
     * storage code may differ, clamped to size(). The whole KB is one
     * group in F32/BF16 mode; in I8 mode this is i8GroupEnd(i).
     */
    size_t groupEnd(size_t i) const;

    void grow(size_t min_capacity);
    const float *minScalesPtr() const;
    const float *minZerosPtr() const;
    const float *moutScalesPtr() const;
    const float *moutZerosPtr() const;

    size_t ed;
    Precision prec;
    size_t qchunk; ///< I8 quantization-chunk rows
    size_t count = 0;
    size_t capacity = 0;
    AlignedBuffer<float> min;      ///< F32 mode storage
    AlignedBuffer<float> mout;
    AlignedBuffer<uint16_t> min16; ///< BF16 mode storage
    AlignedBuffer<uint16_t> mout16;
    AlignedBuffer<int8_t> min8;    ///< I8 mode storage
    AlignedBuffer<int8_t> mout8;

    // I8 quantization state (owners only): one scale/zero pair per
    // started chunk and matrix, the fp32 staging copy of the current
    // tail chunk (allocated lazily on first append), and the tail
    // chunk's running element ranges.
    std::vector<float> minScaleV, minZeroV;
    std::vector<float> moutScaleV, moutZeroV;
    std::vector<float> tailMin, tailMout;
    float minLo = 0.f, minHi = 0.f;
    float moutLo = 0.f, moutHi = 0.f;

    // View state: when `viewed`, the v* pointers alias a window of
    // the parent's rows (and, in I8 mode, the parent's scale/zero
    // arrays, with vrowOff locating the window inside the parent's
    // quantization chunks) and the buffers above stay empty.
    bool viewed = false;
    const float *vmin = nullptr;
    const float *vmout = nullptr;
    const uint16_t *vmin16 = nullptr;
    const uint16_t *vmout16 = nullptr;
    const int8_t *vmin8 = nullptr;
    const int8_t *vmout8 = nullptr;
    const float *vminScale = nullptr;
    const float *vminZero = nullptr;
    const float *vmoutScale = nullptr;
    const float *vmoutZero = nullptr;
    size_t vrowOff = 0;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_KNOWLEDGE_BASE_HH
