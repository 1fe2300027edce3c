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
 * Conventions: all matrices are row-major, dimensions are given as
 * (rows, cols), and vectors are contiguous float arrays. Kernels never
 * allocate, with one exception: gemm keeps a thread-local packing
 * buffer for B panels (grows to kc x n floats and is reused across
 * calls).
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
 * Batched dot products of one vector against a strip of matrix rows:
 * out[r] = dot(x, rows + r * stride, n) for r in [0, count).
 *
 * This is the column engine's phase-1 kernel: the query vector x is
 * loaded once per register block and reused across four memory rows,
 * which roughly quarters the x-side load traffic compared with `count`
 * independent dot() calls. Requires stride >= n.
 */
void dotBatch(const float *x, const float *rows, size_t count, size_t n,
              size_t stride, float *out);

/**
 * Query-blocked batched dot products: a tile of `nx` query rows
 * against a strip of `count` matrix rows,
 *
 *   out[q * ostride + r] = dot(x + q * xstride, rows + r * stride, n)
 *
 * for q in [0, nx), r in [0, count) — a small packed GEMM shaped for
 * the column engine's phase 1. The AVX2 backend register-tiles 2
 * queries x 4 rows, so each 8-wide row load feeds every query in the
 * tile and the per-query M_IN load traffic drops accordingly; the
 * engine-level strip blocking on top keeps a row strip cache-resident
 * across the whole batch, which is what amortizes the KB stream over
 * concurrent queries.
 *
 * Contract: per (q, r) pair the accumulation order is exactly that of
 * dotBatch, so the result is bit-identical to nx separate dotBatch
 * calls on the same backend (property-tested). Requires stride >= n
 * and xstride >= n; out rows must not alias the inputs.
 */
void dotBatchMulti(const float *x, size_t nx, size_t xstride,
                   const float *rows, size_t count, size_t n,
                   size_t stride, float *out, size_t ostride);

/**
 * Fused zero-skip weighted sum over a strip of rows (the column
 * engine's phase-3 kernel):
 *
 *   for r in [0, count):
 *       running_sum += e[r]
 *       if threshold > 0 and e[r] < threshold * running_sum:
 *           ++skipped                      // row never touched
 *       else:
 *           ++kept; acc += e[r] * rows[r]  // vectorized axpy
 *
 * Fusing the conservative skip test with the accumulation means a
 * skipped row costs one compare — its M_OUT row is never read and acc
 * is never written — which is what makes zero-skipping profitable on
 * a bandwidth-bound machine. Requires stride >= n; acc has n elements.
 * A threshold of 0 keeps every row (plain weighted sum).
 */
void weightedSumSkip(const float *e, const float *rows, size_t count,
                     size_t n, size_t stride, float threshold,
                     double &running_sum, float *acc, uint64_t &kept,
                     uint64_t &skipped);

/**
 * Query-blocked zero-skip weighted sum: one pass over a strip of rows
 * updating `ne` accumulators at once. For each row r (ascending) and
 * each query q (ascending), with e_qr = e[q * estride + r]:
 *
 *   running_sums[q] += e_qr
 *   if threshold > 0 and e_qr < threshold * running_sums[q]:
 *       ++skipped                                  // acc[q] untouched
 *   else:
 *       ++kept; acc[q * accstride] += e_qr * row   // vectorized
 *
 * A kept M_OUT row is loaded once and axpy'd into every keeping
 * query's accumulator while it is register/L1-hot, so per-query M_OUT
 * traffic shrinks by the batch size. The skip test and running sums
 * stay per-(query, row) scalar double arithmetic in both backends, so
 * skip decisions are bit-identical between SIMD and scalar paths, and
 * each query's accumulator is bit-identical to ne separate
 * weightedSumSkip calls on the same backend (property-tested).
 *
 * The backend processes queries in tiles of kWsumQueryTile; the
 * dispatch layer splits larger ne transparently. Requires stride >= n
 * and accstride >= n; e rows and acc rows must not alias.
 */
void weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                          const float *rows, size_t count, size_t n,
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

/**
 * Query-blocked batched dot products over *bfloat16* matrix rows:
 * identical shape contract to dotBatchMulti, but `rows` holds bf16
 * elements (uint16_t) that are widened to fp32 in registers via a
 * 16-bit shift; queries and outputs stay fp32. This is the fused
 * dequantizing phase-1 kernel for BF16 knowledge bases: the row
 * stream is half the bytes of the fp32 kernel at the same arithmetic.
 *
 * Accumulation contract (stricter than the fp32 kernels): each
 * (q, r) dot follows one canonical order — eight fp32 fma lanes over
 * the 8-aligned body, a fixed pairwise lane reduction, then an fma
 * tail — and both backends implement exactly that order, so the
 * scalar and AVX2 bf16 backends are **bit-identical to each other**
 * (property-tested), not merely close. Requires stride >= n and
 * xstride >= n; out rows must not alias the inputs.
 */
void dotBatchMultiBf16(const float *x, size_t nx, size_t xstride,
                       const uint16_t *rows, size_t count, size_t n,
                       size_t stride, float *out, size_t ostride);

/**
 * Query-blocked zero-skip weighted sum over *bfloat16* rows: identical
 * contract to weightedSumSkipMulti — per-(query, row) scalar double
 * skip tests, fp32 accumulators — but each kept row is widened from
 * bf16 in registers as it is accumulated. The e values (exp outputs)
 * remain fp32, so skip decisions are bit-identical to a run of
 * weightedSumSkipMulti over the widened rows. Every accumulator
 * update is a single-rounded fma per element in both backends, so the
 * scalar and AVX2 bf16 backends are bit-identical to each other.
 *
 * The dispatch layer tiles ne by kWsumQueryTile, like the fp32
 * kernel. Requires stride >= n and accstride >= n; e rows and acc
 * rows must not alias.
 */
void weightedSumSkipMultiBf16(const float *e, size_t ne, size_t estride,
                              const uint16_t *rows, size_t count,
                              size_t n, size_t stride, float threshold,
                              double *running_sums, float *acc,
                              size_t accstride, uint64_t &kept,
                              uint64_t &skipped);

/**
 * Query-blocked batched dot products over *int8* matrix rows sharing
 * one affine code (scale, zero): the stored row elements q dequantize
 * as scale*q + zero (see core::KnowledgeBase, DESIGN.md §10), and the
 * kernel computes out[q * ostride + r] = dot(x_q, scale*row_r + zero)
 * in the factored form
 *
 *   out[q][r] = fma(scale, rawdot(x_q, row_r), zero * qsum(x_q))
 *
 * where rawdot is the canonical bf16-style dot (eight fp32 fma lanes
 * over the 8-aligned body of the int8->fp32 widened row, the fixed
 * pairwise lane reduction, fma tail) and qsum is a canonical sum of
 * x_q (same lane walk with adds). The factoring keeps the inner loop
 * at one fma per element — the same arithmetic as the bf16 kernel on
 * a quarter of the f32 bytes — and both backends implement exactly
 * these orders, so scalar and AVX2 are **bit-identical** to each
 * other (property-tested), and results never depend on how a sweep is
 * split into calls. Rows in different quantization chunks need
 * separate calls (the engines split at KnowledgeBase::i8GroupEnd).
 * Requires stride >= n and xstride >= n; out must not alias inputs.
 */
void dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                     const int8_t *rows, size_t count, size_t n,
                     size_t stride, float scale, float zero, float *out,
                     size_t ostride);

/**
 * Query-blocked zero-skip weighted sum over *int8* rows sharing one
 * affine code (scale, zero): identical contract to
 * weightedSumSkipMulti — per-(query, row) scalar double skip tests on
 * the fp32 e values, fp32 accumulators — but each kept row element is
 * dequantized in registers as fma(scale, float(q), zero) and
 * accumulated with a second single-rounded fma. Skip decisions are
 * bit-identical to the f32/bf16 kernels on the same e values, and the
 * scalar and AVX2 backends are bit-identical to each other.
 *
 * The dispatch layer tiles ne by kWsumQueryTile, like the other
 * variants. Requires stride >= n and accstride >= n; e rows and acc
 * rows must not alias.
 */
void weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                            const int8_t *rows, size_t count, size_t n,
                            size_t stride, float scale, float zero,
                            float threshold, double *running_sums,
                            float *acc, size_t accstride,
                            uint64_t &kept, uint64_t &skipped);

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
 * Dispatches to dotBatch, so the x vector is reused across rows.
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

/**
 * General matrix multiply: C = A * B (+ C if accumulate).
 * A is (m x k), B is (k x n), C is (m x n), all row-major.
 * The AVX2 backend packs B into 16-wide column panels and runs a
 * register-tiled 4x16 FMA micro-kernel; the scalar backend uses the
 * original 4-row strip blocking.
 */
void gemm(const float *a, const float *b, float *c,
          size_t m, size_t k, size_t n, bool accumulate = false);

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
 * "Raw" softmax exactly as in the paper's Fig. 5 dataflow (exp then
 * divide by the plain sum, no max subtraction). Provided so the
 * column-based lazy softmax can be checked for *algebraic* equivalence
 * with the layer-at-a-time pipeline.
 *
 * Overflow guard: e^x overflows float above x ~ 88.7, turning the
 * normalization into inf/inf = NaN. When max(x) exceeds a safe bound
 * the computation is routed through the max-subtracted path, which is
 * algebraically identical (the shift cancels in the quotient); below
 * the bound the historical raw behaviour is bit-preserved.
 */
void softmaxRaw(float *x, size_t n);

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
void dotBatch(const float *x, const float *rows, size_t count, size_t n,
              size_t stride, float *out);
void dotBatchMulti(const float *x, size_t nx, size_t xstride,
                   const float *rows, size_t count, size_t n,
                   size_t stride, float *out, size_t ostride);
void weightedSumSkip(const float *e, const float *rows, size_t count,
                     size_t n, size_t stride, float threshold,
                     double &running_sum, float *acc, uint64_t &kept,
                     uint64_t &skipped);
void weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                          const float *rows, size_t count, size_t n,
                          size_t stride, float threshold,
                          double *running_sums, float *acc,
                          size_t accstride, uint64_t &kept,
                          uint64_t &skipped);
void dotBatchMultiBf16(const float *x, size_t nx, size_t xstride,
                       const uint16_t *rows, size_t count, size_t n,
                       size_t stride, float *out, size_t ostride);
void weightedSumSkipMultiBf16(const float *e, size_t ne, size_t estride,
                              const uint16_t *rows, size_t count,
                              size_t n, size_t stride, float threshold,
                              double *running_sums, float *acc,
                              size_t accstride, uint64_t &kept,
                              uint64_t &skipped);
void dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                     const int8_t *rows, size_t count, size_t n,
                     size_t stride, float scale, float zero, float *out,
                     size_t ostride);
void weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                            const int8_t *rows, size_t count, size_t n,
                            size_t stride, float scale, float zero,
                            float threshold, double *running_sums,
                            float *acc, size_t accstride,
                            uint64_t &kept, uint64_t &skipped);
bool finiteRangeI8(const float *x, size_t n, float &lo, float &hi);
void quantizeI8(const float *x, size_t n, float scale, float zero,
                int8_t *q);
void chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                     const float *lo, const float *hi, size_t count,
                     size_t n, size_t stride, float *out,
                     size_t ostride);
void gemm(const float *a, const float *b, float *c,
          size_t m, size_t k, size_t n, bool accumulate);
void expInplace(float *x, size_t n);
void expShiftInplace(float *x, size_t n, float shift);

} // namespace scalar

} // namespace mnnfast::blas

#endif // MNNFAST_BLAS_KERNELS_HH
