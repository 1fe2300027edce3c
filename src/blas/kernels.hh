/**
 * @file
 * Dense linear-algebra kernels.
 *
 * The paper's baseline MemNN is built on OpenBLAS; this library
 * provides the equivalent primitives from scratch so the repository is
 * self-contained and so both dataflows (layer-at-a-time vs. fused
 * column chunks) run on the *same* kernels — the measured differences
 * then come from dataflow, not from kernel quality differences.
 *
 * Every primitive has two implementations: a portable scalar reference
 * (namespace blas::scalar, always compiled) and an AVX2+FMA backend
 * selected once at startup by runtime CPU-feature dispatch. Setting
 * the environment variable MNNFAST_NO_SIMD=1 forces the scalar path,
 * which makes debugging runs reproducible across hosts. See DESIGN.md
 * ("Kernel architecture & dispatch") for the dispatch policy and the
 * micro-kernel shapes.
 *
 * The two knowledge-base streaming kernels, dotBatchMulti and
 * weightedSumSkipMulti, have one body per backend, templated on the
 * row codec (fp32, bf16 or int8 storage); a Rows view carries the
 * codec, and the dispatch layer is the only place it selects an
 * instantiation.
 *
 * Conventions: all matrices are row-major, dimensions are given as
 * (rows, cols), and query vectors are contiguous float arrays. Kernels
 * never allocate.
 */

#ifndef MNNFAST_BLAS_KERNELS_HH
#define MNNFAST_BLAS_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace mnnfast::blas {

/** Dot product of two length-n vectors. */
float dot(const float *x, const float *y, size_t n);

/** y += alpha * x over length-n vectors. */
void axpy(float alpha, const float *x, float *y, size_t n);

/** x *= alpha over a length-n vector. */
void scal(float alpha, float *x, size_t n);

/** Set a length-n vector to zero. */
void zero(float *x, size_t n);

/** Copy a length-n vector. */
void copy(const float *src, float *dst, size_t n);

/** Sum of a length-n vector's elements. */
float sum(const float *x, size_t n);

/** Largest element of a non-empty length-n vector. */
float maxElement(const float *x, size_t n);

/**
 * Storage codec of a block of matrix rows: how one stored element
 * widens to fp32. F32 rows are loaded as is, BF16 rows (uint16_t) are
 * widened by a 16-bit shift, and I8 rows (int8_t) are widened exactly
 * and then mapped through an affine code x = scale*q + zero. This is
 * the knowledge base's storage precision (core::Precision is this
 * type); the two streaming kernels below take it as a parameter, so
 * every codec runs the same kernel body.
 */
enum class RowCodec : uint8_t {
    F32,  ///< fp32 rows (reference; exact)
    BF16, ///< bfloat16 rows (half the bytes, ~2^-8 relative rounding)
    I8,   ///< int8 rows (quarter the bytes, affine code per row block)
};

/**
 * A typed view of row-major matrix rows in one codec: the first row of
 * a block plus, for I8, the (scale, zero) code every row of the block
 * shares. Rows under different codes need separate views (and kernel
 * calls); core::KnowledgeBase hands out one view per quantization
 * group.
 */
struct Rows
{
    RowCodec codec;
    const void *data; ///< first row's first element
    float scale = 1.f; ///< I8 only
    float zero = 0.f;  ///< I8 only

    explicit Rows(const float *p) : codec(RowCodec::F32), data(p) {}
    explicit Rows(const uint16_t *p) : codec(RowCodec::BF16), data(p) {}
    Rows(const int8_t *p, float s, float z)
        : codec(RowCodec::I8), data(p), scale(s), zero(z)
    {}
};

/**
 * Query-blocked batched dot products: a tile of `nx` query rows
 * against a strip of `count` stored rows,
 *
 *   out[q * ostride + r] = dot(x + q * xstride, row_r, n)
 *
 * for q in [0, nx), r in [0, count), where row_r is row r of `rows`
 * (stride elements apart) widened to fp32 — the column engine's
 * phase-1 kernel, a small packed GEMM. The AVX2 backend register-tiles
 * 2 queries x 4 rows (1 x 8 for a lone query), so each row load and
 * widen feeds every query in the tile; the engine-level strip blocking
 * on top keeps a row strip cache-resident across the whole batch,
 * which is what amortizes the KB stream over concurrent queries.
 *
 * Accumulation contract: each (q, r) dot follows one canonical order —
 * eight fp32 fma lanes over the 8-aligned body, a fixed pairwise lane
 * reduction, then an fma tail — and both backends implement exactly
 * that order, so scalar and AVX2 are **bit-identical** (property-
 * tested) and results never depend on the tile shapes, the other
 * queries in the call or how a sweep is split into calls. I8 rows are
 * dotted raw and the affine code applied in the factored form
 *
 *   out[q][r] = fma(scale, rawdot(x_q, row_r), zero * qsum(x_q))
 *
 * where qsum is the same lane walk over x_q with adds; the inner loop
 * stays at one fma per element. Requires stride >= n, xstride >= n and
 * ostride >= count; out must not alias the inputs.
 */
void dotBatchMulti(const float *x, size_t nx, size_t xstride,
                   const Rows &rows, size_t count, size_t n,
                   size_t stride, float *out, size_t ostride);

/**
 * Query-blocked fused zero-skip weighted sum: one pass over a strip
 * of stored rows updating `ne` accumulators at once (the column
 * engine's phase-3 kernel). For each row r (ascending) and each query
 * q (ascending), with e_qr = e[q * estride + r]:
 *
 *   running_sums[q] += e_qr
 *   if threshold > 0 and e_qr < threshold * running_sums[q]:
 *       ++skipped                                  // acc[q] untouched
 *   else:
 *       ++kept; acc[q * accstride + i] =
 *                   fma(e_qr, row_r[i], acc[q * accstride + i])
 *
 * where row_r[i] is the widened element (for I8 the dequantized
 * fma(scale, q, zero)). Fusing the conservative skip test with the
 * accumulation means a skipped row costs one compare — its M_OUT row
 * is never read — and a kept row is loaded once and accumulated into
 * every keeping query while it is register/L1-hot. A threshold of 0
 * keeps every row (the dense weighted sum).
 *
 * The skip test and running sums are per-(query, row) scalar double
 * arithmetic and every accumulator update is one single-rounded fma
 * per element in both backends, so scalar and AVX2 are
 * **bit-identical**, skip decisions do not depend on the codec, and
 * each query's result is independent of the other queries in the call
 * and of how a sweep is split into calls (threading running_sums
 * through). The dispatch layer tiles ne by kWsumQueryTile. Requires
 * stride >= n, accstride >= n and estride >= count; e rows and acc
 * rows must not alias.
 */
void weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                          const Rows &rows, size_t count, size_t n,
                          size_t stride, float threshold,
                          double *running_sums, float *acc,
                          size_t accstride, uint64_t &kept,
                          uint64_t &skipped);

/**
 * Largest query-tile a single backend weightedSumSkipMulti call
 * handles (the kept-set scatter list is a fixed stack array). The
 * dispatch layer tiles larger batches; exposed so engines can align
 * their own blocking with the kernel's.
 */
inline constexpr size_t kWsumQueryTile = 16;

/** dotBatchMulti over fp32 rows. */
inline void
dotBatchMulti(const float *x, size_t nx, size_t xstride, const float *rows,
              size_t count, size_t n, size_t stride, float *out,
              size_t ostride)
{
    dotBatchMulti(x, nx, xstride, Rows(rows), count, n, stride, out,
                  ostride);
}

/** weightedSumSkipMulti over fp32 rows. */
inline void
weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                     const float *rows, size_t count, size_t n,
                     size_t stride, float threshold, double *running_sums,
                     float *acc, size_t accstride, uint64_t &kept,
                     uint64_t &skipped)
{
    weightedSumSkipMulti(e, ne, estride, Rows(rows), count, n, stride,
                         threshold, running_sums, acc, accstride, kept,
                         skipped);
}

/** dotBatchMulti over int8 rows sharing one affine code. */
inline void
dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                const int8_t *rows, size_t count, size_t n, size_t stride,
                float scale, float zero, float *out, size_t ostride)
{
    dotBatchMulti(x, nx, xstride, Rows(rows, scale, zero), count, n,
                  stride, out, ostride);
}

/** weightedSumSkipMulti over int8 rows sharing one affine code. */
inline void
weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                       const int8_t *rows, size_t count, size_t n,
                       size_t stride, float scale, float zero,
                       float threshold, double *running_sums, float *acc,
                       size_t accstride, uint64_t &kept, uint64_t &skipped)
{
    weightedSumSkipMulti(e, ne, estride, Rows(rows, scale, zero), count,
                         n, stride, threshold, running_sums, acc,
                         accstride, kept, skipped);
}

/**
 * Fused finite check and range scan over n > 0 fp32 elements (the
 * int8 ingest's range kernel, core::KnowledgeBase): returns false if
 * any element is NaN or +-inf (lo/hi are then unspecified); otherwise
 * sets lo/hi to the smallest and largest element and returns true.
 *
 * Canonical order (as the other i8 kernels): eight lanes over the
 * 8-aligned body, each keeping (x < lo) ? x : lo and (x > hi) ? x : hi
 * (vminps/vmaxps operand semantics), the fixed pairwise lane
 * reduction, then a scalar tail — so scalar and AVX2 are
 * **bit-identical** down to the sign of a zero extremum.
 */
bool finiteRangeI8(const float *x, size_t n, float &lo, float &hi);

/**
 * Affine int8 quantization (the int8 ingest's encode kernel): for
 * i in [0, n),
 *
 *   q[i] = clamp(lrintf((x[i] - zero) * (1 / scale)), -128, 127)
 *
 * rounding half to even under the default FP environment, and
 * q[i] = 0 everywhere when scale == 0 (a constant chunk). An
 * lrintf overflow (NaN, +-inf, |v| >= 2^63) yields LONG_MIN and so
 * clamps to -128; the AVX2 backend replays that too, so scalar and
 * AVX2 are **bit-identical** for every input. Elementwise, so a
 * contiguous block of rows quantizes in one call.
 */
void quantizeI8(const float *x, size_t n, float scale, float zero,
                int8_t *q);

/**
 * Fused max-inner-product bound over chunk-summary envelopes (the
 * routed engine's coarse-selection kernel): for a tile of `nx` query
 * rows and `count` per-dimension [lo, hi] envelope pairs,
 *
 *   out[q * ostride + c] =
 *       sum_d max(x_qd * hi[c * stride + d], x_qd * lo[c * stride + d])
 *
 * Because max(x*hi, x*lo) >= x*m for every m in [lo, hi] (regardless
 * of the sign of x), out[q][c] upper-bounds the inner product of x_q
 * with every row the envelope covers — the max-inner-product bound
 * core::ChunkSummaryIndex builds chunk routing on.
 *
 * Accumulation contract (as the bf16/i8 kernels): each (q, c) bound
 * follows one canonical order — eight fp32 lanes over the 8-aligned
 * body, each lane accumulating (a > b) ? a : b of the two
 * single-rounded products, the fixed pairwise lane reduction, then a
 * scalar tail — and both backends implement exactly that order (the
 * scalar select replicates vmaxps operand semantics), so scalar and
 * AVX2 are **bit-identical** to each other and results never depend
 * on how a sweep is split into calls. Requires stride >= n and
 * xstride >= n; out must not alias the inputs.
 */
void chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                     const float *lo, const float *hi, size_t count,
                     size_t n, size_t stride, float *out,
                     size_t ostride);

/**
 * Matrix-vector product: y = A * x.
 * A is (rows x cols) row-major; x has cols elements; y has rows.
 * Dispatches to dotBatchMulti with one query, so the x vector is
 * reused across rows.
 */
void gemv(const float *a, size_t rows, size_t cols,
          const float *x, float *y);

/**
 * Transposed matrix-vector product: y = A^T * x.
 * A is (rows x cols) row-major; x has rows elements; y has cols.
 * Implemented as accumulating row-scaled adds so A is still walked
 * sequentially (cache friendly for row-major storage).
 */
void gemvT(const float *a, size_t rows, size_t cols,
           const float *x, float *y);

/** Elementwise e^x over a length-n vector, in place. */
void expInplace(float *x, size_t n);

/**
 * Elementwise shifted exponential, in place: x_i <- e^{x_i - shift}.
 * The fused form of the max-subtracted softmax inner loop; the column
 * engine's online-normalize path uses it with the running max.
 */
void expShiftInplace(float *x, size_t n, float shift);

/**
 * Numerically-stable softmax over a length-n vector, in place:
 * x_i <- e^{x_i - max(x)} / sum_j e^{x_j - max(x)}.
 *
 * This is the paper's three-phase formulation (exp, sum, normalize)
 * with the standard max-subtraction guard.
 */
void softmax(float *x, size_t n);

/**
 * True when the runtime-dispatched SIMD backend is active (the CPU
 * supports AVX2+FMA and MNNFAST_NO_SIMD is not set).
 */
bool simdActive();

/** Name of the active kernel backend: "avx2" or "scalar". */
const char *kernelBackendName();

/**
 * Portable reference implementations. Always compiled; the public
 * kernels above dispatch to either these or the SIMD backend. Exposed
 * so property tests can compare the two paths directly and so callers
 * can pin the reference path independently of the dispatch decision.
 * zero/copy/gemv/gemvT/softmax have no SIMD-specific variant (they are
 * memset/memcpy or compositions of dispatched primitives) and so have
 * no entry here.
 */
namespace scalar {

float dot(const float *x, const float *y, size_t n);
void axpy(float alpha, const float *x, float *y, size_t n);
void scal(float alpha, float *x, size_t n);
float sum(const float *x, size_t n);
float maxElement(const float *x, size_t n);
void dotBatchMulti(const float *x, size_t nx, size_t xstride,
                   const Rows &rows, size_t count, size_t n,
                   size_t stride, float *out, size_t ostride);
void weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                          const Rows &rows, size_t count, size_t n,
                          size_t stride, float threshold,
                          double *running_sums, float *acc,
                          size_t accstride, uint64_t &kept,
                          uint64_t &skipped);
bool finiteRangeI8(const float *x, size_t n, float &lo, float &hi);
void quantizeI8(const float *x, size_t n, float scale, float zero,
                int8_t *q);
void chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                     const float *lo, const float *hi, size_t count,
                     size_t n, size_t stride, float *out,
                     size_t ostride);
void expInplace(float *x, size_t n);
void expShiftInplace(float *x, size_t n, float shift);

} // namespace scalar

} // namespace mnnfast::blas

#endif // MNNFAST_BLAS_KERNELS_HH
