/**
 * @file
 * AVX2+FMA kernel backend.
 *
 * This translation unit is compiled with -mavx2 -mfma on x86-64 (see
 * src/CMakeLists.txt) and degrades to a nullptr stub elsewhere, so the
 * rest of the library never needs target attributes. Nothing here is
 * reachable unless avx2Kernels() returned a table, which requires the
 * host CPU to report AVX2 and FMA at startup.
 *
 * Kernel shapes (see DESIGN.md "Kernel architecture & dispatch"):
 *  - reductions (dot/sum/max): 4 x 8-lane accumulators, one horizontal
 *    reduce at the end;
 *  - dotBatch: 4 rows share each 8-lane load of x, quartering the
 *    query-side load traffic;
 *  - exp: Cephes-style polynomial (2^n * P(r) after range reduction),
 *    ~2 ulp, with explicit inf/0 resolution outside [-87.34, 88.38]
 *    so overflow behaves like std::exp;
 *  - gemm: B packed into 16-wide column panels, 4x16 register-tiled
 *    FMA micro-kernel (8 accumulator registers), kc = 256.
 */

#include "blas/kernels_detail.hh"

#include "blas/kernels.hh" // kWsumQueryTile
#include "util/bf16.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace mnnfast::blas::detail {
namespace {

inline float
hsum8(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    return _mm_cvtss_f32(s);
}

inline float
hmax8(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 m = _mm_max_ps(lo, hi);
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x55));
    return _mm_cvtss_f32(m);
}

float
dotAvx2(const float *x, const float *y, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8),
                               _mm256_loadu_ps(y + i + 8), acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 16),
                               _mm256_loadu_ps(y + i + 16), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 24),
                               _mm256_loadu_ps(y + i + 24), acc3);
    }
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i), acc0);
    }
    acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                         _mm256_add_ps(acc2, acc3));
    float r = hsum8(acc0);
    for (; i < n; ++i)
        r += x[i] * y[i];
    return r;
}

void
axpyAvx2(float alpha, const float *x, float *y, size_t n)
{
    const __m256 a = _mm256_set1_ps(alpha);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm256_storeu_ps(
            y + i, _mm256_fmadd_ps(a, _mm256_loadu_ps(x + i),
                                   _mm256_loadu_ps(y + i)));
        _mm256_storeu_ps(
            y + i + 8, _mm256_fmadd_ps(a, _mm256_loadu_ps(x + i + 8),
                                       _mm256_loadu_ps(y + i + 8)));
    }
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(
            y + i, _mm256_fmadd_ps(a, _mm256_loadu_ps(x + i),
                                   _mm256_loadu_ps(y + i)));
    }
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scalAvx2(float alpha, float *x, size_t n)
{
    const __m256 a = _mm256_set1_ps(alpha);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i,
                         _mm256_mul_ps(a, _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        x[i] *= alpha;
}

float
sumAvx2(const float *x, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(x + i));
        acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(x + i + 8));
        acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(x + i + 16));
        acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(x + i + 24));
    }
    for (; i + 8 <= n; i += 8)
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(x + i));
    acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                         _mm256_add_ps(acc2, acc3));
    float r = hsum8(acc0);
    for (; i < n; ++i)
        r += x[i];
    return r;
}

float
maxElementAvx2(const float *x, size_t n)
{
    if (n < 8) {
        float m = x[0];
        for (size_t i = 1; i < n; ++i)
            m = std::max(m, x[i]);
        return m;
    }
    __m256 acc = _mm256_loadu_ps(x);
    size_t i = 8;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
    float m = hmax8(acc);
    for (; i < n; ++i)
        m = std::max(m, x[i]);
    return m;
}

void
dotBatchAvx2(const float *x, const float *rows, size_t count, size_t n,
             size_t stride, float *out)
{
    size_t r = 0;
    for (; r + 4 <= count; r += 4) {
        const float *r0 = rows + (r + 0) * stride;
        const float *r1 = rows + (r + 1) * stride;
        const float *r2 = rows + (r + 2) * stride;
        const float *r3 = rows + (r + 3) * stride;
        __m256 a0 = _mm256_setzero_ps();
        __m256 a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps();
        __m256 a3 = _mm256_setzero_ps();
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            // One load of x feeds four row FMAs.
            const __m256 xv = _mm256_loadu_ps(x + i);
            a0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(r0 + i), a0);
            a1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(r1 + i), a1);
            a2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(r2 + i), a2);
            a3 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(r3 + i), a3);
        }
        float s0 = hsum8(a0), s1 = hsum8(a1);
        float s2 = hsum8(a2), s3 = hsum8(a3);
        for (; i < n; ++i) {
            const float xi = x[i];
            s0 += xi * r0[i];
            s1 += xi * r1[i];
            s2 += xi * r2[i];
            s3 += xi * r3[i];
        }
        out[r + 0] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < count; ++r)
        out[r] = dotAvx2(x, rows + r * stride, n);
}

/**
 * Query-blocked batched dots, register tile = 2 queries x 4 rows
 * (8 accumulators + 2 query + 1 row vector in flight). Each 8-wide
 * row load feeds both queries, so per-query row traffic halves and
 * the load/FMA ratio drops below the two-loads-per-cycle port limit
 * that bounds dotBatch. Every (q, r) pair keeps dotBatch's exact
 * accumulation order — one 8-lane chain, hsum, scalar tail — so the
 * output is bit-identical to per-query dotBatch calls.
 */
void
dotBatchMultiAvx2(const float *x, size_t nx, size_t xstride,
                  const float *rows, size_t count, size_t n,
                  size_t stride, float *out, size_t ostride)
{
    size_t q = 0;
    for (; q + 2 <= nx; q += 2) {
        const float *x0 = x + q * xstride;
        const float *x1 = x0 + xstride;
        float *o0 = out + q * ostride;
        float *o1 = o0 + ostride;
        size_t r = 0;
        for (; r + 4 <= count; r += 4) {
            const float *r0 = rows + (r + 0) * stride;
            const float *r1 = rows + (r + 1) * stride;
            const float *r2 = rows + (r + 2) * stride;
            const float *r3 = rows + (r + 3) * stride;
            __m256 a00 = _mm256_setzero_ps();
            __m256 a01 = _mm256_setzero_ps();
            __m256 a02 = _mm256_setzero_ps();
            __m256 a03 = _mm256_setzero_ps();
            __m256 a10 = _mm256_setzero_ps();
            __m256 a11 = _mm256_setzero_ps();
            __m256 a12 = _mm256_setzero_ps();
            __m256 a13 = _mm256_setzero_ps();
            size_t i = 0;
            for (; i + 8 <= n; i += 8) {
                const __m256 xv0 = _mm256_loadu_ps(x0 + i);
                const __m256 xv1 = _mm256_loadu_ps(x1 + i);
                // One load per row feeds both query FMAs.
                __m256 rv = _mm256_loadu_ps(r0 + i);
                a00 = _mm256_fmadd_ps(xv0, rv, a00);
                a10 = _mm256_fmadd_ps(xv1, rv, a10);
                rv = _mm256_loadu_ps(r1 + i);
                a01 = _mm256_fmadd_ps(xv0, rv, a01);
                a11 = _mm256_fmadd_ps(xv1, rv, a11);
                rv = _mm256_loadu_ps(r2 + i);
                a02 = _mm256_fmadd_ps(xv0, rv, a02);
                a12 = _mm256_fmadd_ps(xv1, rv, a12);
                rv = _mm256_loadu_ps(r3 + i);
                a03 = _mm256_fmadd_ps(xv0, rv, a03);
                a13 = _mm256_fmadd_ps(xv1, rv, a13);
            }
            float s00 = hsum8(a00), s01 = hsum8(a01);
            float s02 = hsum8(a02), s03 = hsum8(a03);
            float s10 = hsum8(a10), s11 = hsum8(a11);
            float s12 = hsum8(a12), s13 = hsum8(a13);
            for (; i < n; ++i) {
                const float xi0 = x0[i];
                const float xi1 = x1[i];
                s00 += xi0 * r0[i];
                s01 += xi0 * r1[i];
                s02 += xi0 * r2[i];
                s03 += xi0 * r3[i];
                s10 += xi1 * r0[i];
                s11 += xi1 * r1[i];
                s12 += xi1 * r2[i];
                s13 += xi1 * r3[i];
            }
            o0[r + 0] = s00;
            o0[r + 1] = s01;
            o0[r + 2] = s02;
            o0[r + 3] = s03;
            o1[r + 0] = s10;
            o1[r + 1] = s11;
            o1[r + 2] = s12;
            o1[r + 3] = s13;
        }
        // Row tail (< 4): the same single-row kernel dotBatch uses.
        for (; r < count; ++r) {
            o0[r] = dotAvx2(x0, rows + r * stride, n);
            o1[r] = dotAvx2(x1, rows + r * stride, n);
        }
    }
    if (q < nx)
        dotBatchAvx2(x + q * xstride, rows, count, n, stride,
                     out + q * ostride);
}

void
weightedSumSkipAvx2(const float *e, const float *rows, size_t count,
                    size_t n, size_t stride, float threshold,
                    double &running_sum, float *acc, uint64_t &kept,
                    uint64_t &skipped)
{
    double s = running_sum;
    for (size_t r = 0; r < count; ++r) {
        const float ev = e[r];
        s += ev;
        if (threshold > 0.f && double(ev) < double(threshold) * s) {
            ++skipped;
            continue;
        }
        ++kept;
        axpyAvx2(ev, rows + r * stride, acc, n);
    }
    running_sum = s;
}

/**
 * Query-blocked weighted sum: for every row, the skip test runs per
 * query in scalar double (identical to weightedSumSkip), the kept
 * queries are gathered into a scatter list, and then each 8-wide row
 * load is FMA'd into every kept accumulator while it sits in a
 * register. axpy is elementwise (no cross-element accumulation), so
 * the interleaving leaves each query's accumulator bit-identical to
 * a separate axpyAvx2 call.
 */
void
weightedSumSkipMultiAvx2(const float *e, size_t ne, size_t estride,
                         const float *rows, size_t count, size_t n,
                         size_t stride, float threshold,
                         double *running_sums, float *acc,
                         size_t accstride, uint64_t &kept,
                         uint64_t &skipped)
{
    float alpha[blas::kWsumQueryTile];
    float *dst[blas::kWsumQueryTile];
    for (size_t r = 0; r < count; ++r) {
        const float *row = rows + r * stride;
        size_t nk = 0;
        for (size_t q = 0; q < ne; ++q) {
            const float ev = e[q * estride + r];
            const double s = running_sums[q] + ev;
            running_sums[q] = s;
            if (threshold > 0.f && double(ev) < double(threshold) * s) {
                ++skipped;
                continue;
            }
            ++kept;
            alpha[nk] = ev;
            dst[nk] = acc + q * accstride;
            ++nk;
        }
        if (nk == 0)
            continue;
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const __m256 rv = _mm256_loadu_ps(row + i);
            for (size_t j = 0; j < nk; ++j) {
                _mm256_storeu_ps(
                    dst[j] + i,
                    _mm256_fmadd_ps(_mm256_set1_ps(alpha[j]), rv,
                                    _mm256_loadu_ps(dst[j] + i)));
            }
        }
        for (; i < n; ++i) {
            for (size_t j = 0; j < nk; ++j)
                dst[j][i] += alpha[j] * row[i];
        }
    }
}

// --- bf16 row kernels -----------------------------------------------

/**
 * Widen 8 bf16 elements to fp32 lanes: zero-extend to 32 bits and
 * shift into the high half. Exact (no rounding), so the upconverted
 * lanes equal bf16ToFloat element-for-element.
 */
inline __m256
bf16Load8(const uint16_t *p)
{
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    const __m256i w = _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
    return _mm256_castsi256_ps(w);
}

/**
 * Canonical bf16 dot (see kernels.hh): ONE 8-lane fma chain over the
 * body, hsum8's pairwise reduction, std::fma tail. The scalar backend
 * replays exactly this order with scalar fmas, so the two backends
 * are bit-identical; the tiled kernels below keep one such chain per
 * (query, row) pair.
 */
float
dotBf16Avx2(const float *x, const uint16_t *row, size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), bf16Load8(row + i),
                              acc);
    float r = hsum8(acc);
    for (; i < n; ++i)
        r = std::fma(x[i], bf16ToFloat(row[i]), r);
    return r;
}

/**
 * Query-blocked bf16 batched dots: 2 queries x 4 rows in the main
 * tile (one bf16Load8 per row feeds both query fmas, halving the
 * widen work and the per-query row traffic), a 1 x 4 tile for the
 * odd query, and dotBf16Avx2 for row tails. Each pair's accumulator
 * is its own canonical chain, so the tiling never changes bits.
 */
void
dotBatchMultiBf16Avx2(const float *x, size_t nx, size_t xstride,
                      const uint16_t *rows, size_t count, size_t n,
                      size_t stride, float *out, size_t ostride)
{
    size_t q = 0;
    for (; q + 2 <= nx; q += 2) {
        const float *x0 = x + q * xstride;
        const float *x1 = x0 + xstride;
        float *o0 = out + q * ostride;
        float *o1 = o0 + ostride;
        size_t r = 0;
        for (; r + 4 <= count; r += 4) {
            const uint16_t *r0 = rows + (r + 0) * stride;
            const uint16_t *r1 = rows + (r + 1) * stride;
            const uint16_t *r2 = rows + (r + 2) * stride;
            const uint16_t *r3 = rows + (r + 3) * stride;
            __m256 a00 = _mm256_setzero_ps();
            __m256 a01 = _mm256_setzero_ps();
            __m256 a02 = _mm256_setzero_ps();
            __m256 a03 = _mm256_setzero_ps();
            __m256 a10 = _mm256_setzero_ps();
            __m256 a11 = _mm256_setzero_ps();
            __m256 a12 = _mm256_setzero_ps();
            __m256 a13 = _mm256_setzero_ps();
            size_t i = 0;
            for (; i + 8 <= n; i += 8) {
                const __m256 xv0 = _mm256_loadu_ps(x0 + i);
                const __m256 xv1 = _mm256_loadu_ps(x1 + i);
                // One widen per row feeds both query FMAs.
                __m256 rv = bf16Load8(r0 + i);
                a00 = _mm256_fmadd_ps(xv0, rv, a00);
                a10 = _mm256_fmadd_ps(xv1, rv, a10);
                rv = bf16Load8(r1 + i);
                a01 = _mm256_fmadd_ps(xv0, rv, a01);
                a11 = _mm256_fmadd_ps(xv1, rv, a11);
                rv = bf16Load8(r2 + i);
                a02 = _mm256_fmadd_ps(xv0, rv, a02);
                a12 = _mm256_fmadd_ps(xv1, rv, a12);
                rv = bf16Load8(r3 + i);
                a03 = _mm256_fmadd_ps(xv0, rv, a03);
                a13 = _mm256_fmadd_ps(xv1, rv, a13);
            }
            float s00 = hsum8(a00), s01 = hsum8(a01);
            float s02 = hsum8(a02), s03 = hsum8(a03);
            float s10 = hsum8(a10), s11 = hsum8(a11);
            float s12 = hsum8(a12), s13 = hsum8(a13);
            for (; i < n; ++i) {
                const float xi0 = x0[i];
                const float xi1 = x1[i];
                const float e0 = bf16ToFloat(r0[i]);
                const float e1 = bf16ToFloat(r1[i]);
                const float e2 = bf16ToFloat(r2[i]);
                const float e3 = bf16ToFloat(r3[i]);
                s00 = std::fma(xi0, e0, s00);
                s01 = std::fma(xi0, e1, s01);
                s02 = std::fma(xi0, e2, s02);
                s03 = std::fma(xi0, e3, s03);
                s10 = std::fma(xi1, e0, s10);
                s11 = std::fma(xi1, e1, s11);
                s12 = std::fma(xi1, e2, s12);
                s13 = std::fma(xi1, e3, s13);
            }
            o0[r + 0] = s00;
            o0[r + 1] = s01;
            o0[r + 2] = s02;
            o0[r + 3] = s03;
            o1[r + 0] = s10;
            o1[r + 1] = s11;
            o1[r + 2] = s12;
            o1[r + 3] = s13;
        }
        for (; r < count; ++r) {
            o0[r] = dotBf16Avx2(x0, rows + r * stride, n);
            o1[r] = dotBf16Avx2(x1, rows + r * stride, n);
        }
    }
    if (q < nx) {
        // Last odd query: 4-row groups so the x loads amortize and
        // four independent chains cover the fma latency.
        const float *x0 = x + q * xstride;
        float *o0 = out + q * ostride;
        size_t r = 0;
        for (; r + 4 <= count; r += 4) {
            const uint16_t *r0 = rows + (r + 0) * stride;
            const uint16_t *r1 = rows + (r + 1) * stride;
            const uint16_t *r2 = rows + (r + 2) * stride;
            const uint16_t *r3 = rows + (r + 3) * stride;
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            size_t i = 0;
            for (; i + 8 <= n; i += 8) {
                const __m256 xv = _mm256_loadu_ps(x0 + i);
                a0 = _mm256_fmadd_ps(xv, bf16Load8(r0 + i), a0);
                a1 = _mm256_fmadd_ps(xv, bf16Load8(r1 + i), a1);
                a2 = _mm256_fmadd_ps(xv, bf16Load8(r2 + i), a2);
                a3 = _mm256_fmadd_ps(xv, bf16Load8(r3 + i), a3);
            }
            float s0 = hsum8(a0), s1 = hsum8(a1);
            float s2 = hsum8(a2), s3 = hsum8(a3);
            for (; i < n; ++i) {
                const float xi = x0[i];
                s0 = std::fma(xi, bf16ToFloat(r0[i]), s0);
                s1 = std::fma(xi, bf16ToFloat(r1[i]), s1);
                s2 = std::fma(xi, bf16ToFloat(r2[i]), s2);
                s3 = std::fma(xi, bf16ToFloat(r3[i]), s3);
            }
            o0[r + 0] = s0;
            o0[r + 1] = s1;
            o0[r + 2] = s2;
            o0[r + 3] = s3;
        }
        for (; r < count; ++r)
            o0[r] = dotBf16Avx2(x0, rows + r * stride, n);
    }
}

/**
 * Query-blocked bf16 weighted sum: identical structure to the fp32
 * kernel — per-(query, row) scalar-double skip tests, kept-query
 * scatter list — with each kept row widened once per 8-lane block and
 * fma'd into every kept accumulator. Tail elements use std::fma so
 * the update rounding matches the scalar backend exactly.
 */
void
weightedSumSkipMultiBf16Avx2(const float *e, size_t ne, size_t estride,
                             const uint16_t *rows, size_t count,
                             size_t n, size_t stride, float threshold,
                             double *running_sums, float *acc,
                             size_t accstride, uint64_t &kept,
                             uint64_t &skipped)
{
    float alpha[blas::kWsumQueryTile];
    float *dst[blas::kWsumQueryTile];
    for (size_t r = 0; r < count; ++r) {
        const uint16_t *row = rows + r * stride;
        size_t nk = 0;
        for (size_t q = 0; q < ne; ++q) {
            const float ev = e[q * estride + r];
            const double s = running_sums[q] + ev;
            running_sums[q] = s;
            if (threshold > 0.f && double(ev) < double(threshold) * s) {
                ++skipped;
                continue;
            }
            ++kept;
            alpha[nk] = ev;
            dst[nk] = acc + q * accstride;
            ++nk;
        }
        if (nk == 0)
            continue;
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const __m256 rv = bf16Load8(row + i);
            for (size_t j = 0; j < nk; ++j) {
                _mm256_storeu_ps(
                    dst[j] + i,
                    _mm256_fmadd_ps(_mm256_set1_ps(alpha[j]), rv,
                                    _mm256_loadu_ps(dst[j] + i)));
            }
        }
        for (; i < n; ++i) {
            const float ri = bf16ToFloat(row[i]);
            for (size_t j = 0; j < nk; ++j)
                dst[j][i] = std::fma(alpha[j], ri, dst[j][i]);
        }
    }
}

// --- int8 row kernels -----------------------------------------------

/**
 * Widen 8 int8 elements to fp32 lanes: sign-extend to 32 bits, then
 * int->float convert. Exact for the int8 range (no rounding), so the
 * widened lanes equal static_cast<float>(row[i]) element-for-element.
 */
inline __m256
i8Load8(const int8_t *p)
{
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
    return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
}

/**
 * Canonical raw i8 dot (see kernels.hh): ONE 8-lane fma chain over
 * the widened body, hsum8's pairwise reduction, std::fma tail —
 * exactly the scalar backend's lane walk. The affine (scale, zero)
 * code is applied by the caller in the factored form.
 */
float
dotI8RawAvx2(const float *x, const int8_t *row, size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), i8Load8(row + i),
                              acc);
    float r = hsum8(acc);
    for (; i < n; ++i)
        r = std::fma(x[i], static_cast<float>(row[i]), r);
    return r;
}

/**
 * Canonical query sum for the factored i8 dot: vertical 8-lane adds,
 * hsum8, scalar tail — the scalar backend replays this order exactly.
 */
float
querySumAvx2(const float *x, size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
    float r = hsum8(acc);
    for (; i < n; ++i)
        r += x[i];
    return r;
}

/**
 * Prefetch one int8 row (n payload bytes at `row`) into L1. The i8
 * sweeps retire 64 elements per cache line, so the out-of-order
 * window alone holds too few line fills in flight to cover the L3
 * latency (unlike f32, which turns over lines 4x faster); an explicit
 * prefetch a few rows ahead keeps the stream saturated. Hint-only:
 * never changes results.
 *
 * Look-ahead indices are deliberately NOT clamped to the call's row
 * count: the engines sweep one contiguous matrix in strip-sized
 * calls, so rows past this call are almost always the next call's
 * rows, and clamping would stall the stream at every strip boundary.
 * At the true end of the matrix the prefetch reaches at most
 * kI8PrefetchRows rows past the allocation — prefetch instructions
 * never fault, so this is harmless.
 */
inline void
prefetchI8Row(const int8_t *row, size_t n)
{
    for (size_t b = 0; b < n; b += 64)
        _mm_prefetch(reinterpret_cast<const char *>(row) + b,
                     _MM_HINT_T0);
}

/** Row distance the i8 sweeps prefetch ahead of the compute. */
constexpr size_t kI8PrefetchRows = 8;

/**
 * Query-blocked i8 batched dots: 2 queries x 4 rows in the main tile
 * (one i8Load8 widen per row feeds both query fmas), a 1 x 8 then
 * 1 x 4 tile for the odd query, dotI8RawAvx2 for row tails. Each
 * (q, r) accumulator is its own canonical chain and the per-query
 * zero*qsum constant is folded in at store time, so tiling never
 * changes bits. All tiles prefetch kI8PrefetchRows ahead (see
 * prefetchI8Row).
 */
void
dotBatchMultiI8Avx2(const float *x, size_t nx, size_t xstride,
                    const int8_t *rows, size_t count, size_t n,
                    size_t stride, float scale, float zero, float *out,
                    size_t ostride)
{
    size_t q = 0;
    for (; q + 2 <= nx; q += 2) {
        const float *x0 = x + q * xstride;
        const float *x1 = x0 + xstride;
        float *o0 = out + q * ostride;
        float *o1 = o0 + ostride;
        const float qs0 = zero * querySumAvx2(x0, n);
        const float qs1 = zero * querySumAvx2(x1, n);
        size_t r = 0;
        for (; r + 4 <= count; r += 4) {
            for (size_t k = 0; k < 4; ++k)
                prefetchI8Row(
                    rows + (r + kI8PrefetchRows + k) * stride, n);
            const int8_t *r0 = rows + (r + 0) * stride;
            const int8_t *r1 = rows + (r + 1) * stride;
            const int8_t *r2 = rows + (r + 2) * stride;
            const int8_t *r3 = rows + (r + 3) * stride;
            __m256 a00 = _mm256_setzero_ps();
            __m256 a01 = _mm256_setzero_ps();
            __m256 a02 = _mm256_setzero_ps();
            __m256 a03 = _mm256_setzero_ps();
            __m256 a10 = _mm256_setzero_ps();
            __m256 a11 = _mm256_setzero_ps();
            __m256 a12 = _mm256_setzero_ps();
            __m256 a13 = _mm256_setzero_ps();
            size_t i = 0;
            for (; i + 8 <= n; i += 8) {
                const __m256 xv0 = _mm256_loadu_ps(x0 + i);
                const __m256 xv1 = _mm256_loadu_ps(x1 + i);
                // One widen per row feeds both query FMAs.
                __m256 rv = i8Load8(r0 + i);
                a00 = _mm256_fmadd_ps(xv0, rv, a00);
                a10 = _mm256_fmadd_ps(xv1, rv, a10);
                rv = i8Load8(r1 + i);
                a01 = _mm256_fmadd_ps(xv0, rv, a01);
                a11 = _mm256_fmadd_ps(xv1, rv, a11);
                rv = i8Load8(r2 + i);
                a02 = _mm256_fmadd_ps(xv0, rv, a02);
                a12 = _mm256_fmadd_ps(xv1, rv, a12);
                rv = i8Load8(r3 + i);
                a03 = _mm256_fmadd_ps(xv0, rv, a03);
                a13 = _mm256_fmadd_ps(xv1, rv, a13);
            }
            float s00 = hsum8(a00), s01 = hsum8(a01);
            float s02 = hsum8(a02), s03 = hsum8(a03);
            float s10 = hsum8(a10), s11 = hsum8(a11);
            float s12 = hsum8(a12), s13 = hsum8(a13);
            for (; i < n; ++i) {
                const float xi0 = x0[i];
                const float xi1 = x1[i];
                const float e0 = static_cast<float>(r0[i]);
                const float e1 = static_cast<float>(r1[i]);
                const float e2 = static_cast<float>(r2[i]);
                const float e3 = static_cast<float>(r3[i]);
                s00 = std::fma(xi0, e0, s00);
                s01 = std::fma(xi0, e1, s01);
                s02 = std::fma(xi0, e2, s02);
                s03 = std::fma(xi0, e3, s03);
                s10 = std::fma(xi1, e0, s10);
                s11 = std::fma(xi1, e1, s11);
                s12 = std::fma(xi1, e2, s12);
                s13 = std::fma(xi1, e3, s13);
            }
            o0[r + 0] = std::fma(scale, s00, qs0);
            o0[r + 1] = std::fma(scale, s01, qs0);
            o0[r + 2] = std::fma(scale, s02, qs0);
            o0[r + 3] = std::fma(scale, s03, qs0);
            o1[r + 0] = std::fma(scale, s10, qs1);
            o1[r + 1] = std::fma(scale, s11, qs1);
            o1[r + 2] = std::fma(scale, s12, qs1);
            o1[r + 3] = std::fma(scale, s13, qs1);
        }
        for (; r < count; ++r) {
            o0[r] = std::fma(scale,
                             dotI8RawAvx2(x0, rows + r * stride, n),
                             qs0);
            o1[r] = std::fma(scale,
                             dotI8RawAvx2(x1, rows + r * stride, n),
                             qs1);
        }
    }
    if (q < nx) {
        // Last odd query: 8-row groups first — eight independent
        // chains cover the fma latency AND keep enough line fills in
        // flight that the single-query sweep streams from L3 at the
        // convert-limited rate — then a 4-row group, then row tails.
        const float *x0 = x + q * xstride;
        float *o0 = out + q * ostride;
        const float qs0 = zero * querySumAvx2(x0, n);
        size_t r = 0;
        for (; r + 8 <= count; r += 8) {
            for (size_t k = 0; k < 8; ++k)
                prefetchI8Row(
                    rows + (r + kI8PrefetchRows + k) * stride, n);
            const int8_t *rb = rows + r * stride;
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            __m256 a4 = _mm256_setzero_ps();
            __m256 a5 = _mm256_setzero_ps();
            __m256 a6 = _mm256_setzero_ps();
            __m256 a7 = _mm256_setzero_ps();
            size_t i = 0;
            for (; i + 8 <= n; i += 8) {
                const __m256 xv = _mm256_loadu_ps(x0 + i);
                a0 = _mm256_fmadd_ps(xv, i8Load8(rb + 0 * stride + i),
                                     a0);
                a1 = _mm256_fmadd_ps(xv, i8Load8(rb + 1 * stride + i),
                                     a1);
                a2 = _mm256_fmadd_ps(xv, i8Load8(rb + 2 * stride + i),
                                     a2);
                a3 = _mm256_fmadd_ps(xv, i8Load8(rb + 3 * stride + i),
                                     a3);
                a4 = _mm256_fmadd_ps(xv, i8Load8(rb + 4 * stride + i),
                                     a4);
                a5 = _mm256_fmadd_ps(xv, i8Load8(rb + 5 * stride + i),
                                     a5);
                a6 = _mm256_fmadd_ps(xv, i8Load8(rb + 6 * stride + i),
                                     a6);
                a7 = _mm256_fmadd_ps(xv, i8Load8(rb + 7 * stride + i),
                                     a7);
            }
            float s0 = hsum8(a0), s1 = hsum8(a1);
            float s2 = hsum8(a2), s3 = hsum8(a3);
            float s4 = hsum8(a4), s5 = hsum8(a5);
            float s6 = hsum8(a6), s7 = hsum8(a7);
            for (; i < n; ++i) {
                const float xi = x0[i];
                s0 = std::fma(xi, float(rb[0 * stride + i]), s0);
                s1 = std::fma(xi, float(rb[1 * stride + i]), s1);
                s2 = std::fma(xi, float(rb[2 * stride + i]), s2);
                s3 = std::fma(xi, float(rb[3 * stride + i]), s3);
                s4 = std::fma(xi, float(rb[4 * stride + i]), s4);
                s5 = std::fma(xi, float(rb[5 * stride + i]), s5);
                s6 = std::fma(xi, float(rb[6 * stride + i]), s6);
                s7 = std::fma(xi, float(rb[7 * stride + i]), s7);
            }
            o0[r + 0] = std::fma(scale, s0, qs0);
            o0[r + 1] = std::fma(scale, s1, qs0);
            o0[r + 2] = std::fma(scale, s2, qs0);
            o0[r + 3] = std::fma(scale, s3, qs0);
            o0[r + 4] = std::fma(scale, s4, qs0);
            o0[r + 5] = std::fma(scale, s5, qs0);
            o0[r + 6] = std::fma(scale, s6, qs0);
            o0[r + 7] = std::fma(scale, s7, qs0);
        }
        for (; r + 4 <= count; r += 4) {
            const int8_t *r0 = rows + (r + 0) * stride;
            const int8_t *r1 = rows + (r + 1) * stride;
            const int8_t *r2 = rows + (r + 2) * stride;
            const int8_t *r3 = rows + (r + 3) * stride;
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            size_t i = 0;
            for (; i + 8 <= n; i += 8) {
                const __m256 xv = _mm256_loadu_ps(x0 + i);
                a0 = _mm256_fmadd_ps(xv, i8Load8(r0 + i), a0);
                a1 = _mm256_fmadd_ps(xv, i8Load8(r1 + i), a1);
                a2 = _mm256_fmadd_ps(xv, i8Load8(r2 + i), a2);
                a3 = _mm256_fmadd_ps(xv, i8Load8(r3 + i), a3);
            }
            float s0 = hsum8(a0), s1 = hsum8(a1);
            float s2 = hsum8(a2), s3 = hsum8(a3);
            for (; i < n; ++i) {
                const float xi = x0[i];
                s0 = std::fma(xi, static_cast<float>(r0[i]), s0);
                s1 = std::fma(xi, static_cast<float>(r1[i]), s1);
                s2 = std::fma(xi, static_cast<float>(r2[i]), s2);
                s3 = std::fma(xi, static_cast<float>(r3[i]), s3);
            }
            o0[r + 0] = std::fma(scale, s0, qs0);
            o0[r + 1] = std::fma(scale, s1, qs0);
            o0[r + 2] = std::fma(scale, s2, qs0);
            o0[r + 3] = std::fma(scale, s3, qs0);
        }
        for (; r < count; ++r)
            o0[r] = std::fma(scale,
                             dotI8RawAvx2(x0, rows + r * stride, n),
                             qs0);
    }
}

/**
 * Query-blocked i8 weighted sum: identical structure to the f32/bf16
 * kernels — per-(query, row) scalar-double skip tests, kept-query
 * scatter list — with each kept row widened and dequantized once per
 * 8-lane block (fmadd(scale, q, zero)) and fma'd into every kept
 * accumulator. Tail elements use the same two std::fma steps as the
 * scalar backend, so the update rounding matches exactly.
 */
void
weightedSumSkipMultiI8Avx2(const float *e, size_t ne, size_t estride,
                           const int8_t *rows, size_t count, size_t n,
                           size_t stride, float scale, float zero,
                           float threshold, double *running_sums,
                           float *acc, size_t accstride, uint64_t &kept,
                           uint64_t &skipped)
{
    float alpha[blas::kWsumQueryTile];
    float *dst[blas::kWsumQueryTile];
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 zv = _mm256_set1_ps(zero);
    if (ne == 1) {
        // Two-pass fast path for the single-query sweep, where the
        // skip rate is high (the threshold prunes most rows once the
        // running sum has grown): pass A is a branchless scalar scan
        // that advances the running-sum chain with exactly the same
        // serial double adds and skip predicate as the generic loop,
        // compacting the kept rows' indices and weights; pass B then
        // streams ONLY the kept rows, prefetching ahead through the
        // index list. The generic loop instead prefetches every row
        // unconditionally (the decision isn't known yet there), which
        // at a 15% keep rate wastes ~6x the M_OUT bandwidth. Per kept
        // row the arithmetic is the nk==1 case of the generic loop,
        // in the same ascending row order, so outputs are
        // bit-identical to it and to the scalar backend.
        constexpr size_t kBlock = 512;
        constexpr size_t kLookAhead = 8;
        uint32_t idx[kBlock];
        float evk[kBlock];
        for (size_t b0 = 0; b0 < count; b0 += kBlock) {
            const size_t b1 = std::min(b0 + kBlock, count);
            double s = running_sums[0];
            size_t nkept = 0;
            for (size_t r = b0; r < b1; ++r) {
                const float ev = e[r];
                s += ev;
                const bool skip = threshold > 0.f &&
                                  double(ev) < double(threshold) * s;
                idx[nkept] = static_cast<uint32_t>(r);
                evk[nkept] = ev;
                nkept += !skip;
            }
            running_sums[0] = s;
            kept += nkept;
            skipped += (b1 - b0) - nkept;
            for (size_t j = 0; j < std::min(kLookAhead, nkept); ++j)
                prefetchI8Row(rows + idx[j] * stride, n);
            for (size_t j = 0; j < nkept; ++j) {
                if (j + kLookAhead < nkept)
                    prefetchI8Row(rows + idx[j + kLookAhead] * stride,
                                  n);
                const int8_t *row = rows + idx[j] * stride;
                const float ev = evk[j];
                const __m256 av = _mm256_set1_ps(ev);
                size_t i = 0;
                for (; i + 8 <= n; i += 8) {
                    const __m256 rv =
                        _mm256_fmadd_ps(sv, i8Load8(row + i), zv);
                    _mm256_storeu_ps(
                        acc + i,
                        _mm256_fmadd_ps(av, rv,
                                        _mm256_loadu_ps(acc + i)));
                }
                for (; i < n; ++i) {
                    const float ri = std::fma(
                        scale, static_cast<float>(row[i]), zero);
                    acc[i] = std::fma(ev, ri, acc[i]);
                }
            }
        }
        return;
    }
    for (size_t r = 0; r < count; ++r) {
        // Unconditional look-ahead prefetch: rows are visited in
        // order even when most are skipped, and the skip decision for
        // row r+k isn't known yet, so this trades a few spurious line
        // fills for never stalling on a kept row's first touch.
        prefetchI8Row(rows + (r + kI8PrefetchRows) * stride, n);
        const int8_t *row = rows + r * stride;
        size_t nk = 0;
        for (size_t q = 0; q < ne; ++q) {
            const float ev = e[q * estride + r];
            const double s = running_sums[q] + ev;
            running_sums[q] = s;
            if (threshold > 0.f && double(ev) < double(threshold) * s) {
                ++skipped;
                continue;
            }
            ++kept;
            alpha[nk] = ev;
            dst[nk] = acc + q * accstride;
            ++nk;
        }
        if (nk == 0)
            continue;
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const __m256 rv = _mm256_fmadd_ps(sv, i8Load8(row + i), zv);
            for (size_t j = 0; j < nk; ++j) {
                _mm256_storeu_ps(
                    dst[j] + i,
                    _mm256_fmadd_ps(_mm256_set1_ps(alpha[j]), rv,
                                    _mm256_loadu_ps(dst[j] + i)));
            }
        }
        for (; i < n; ++i) {
            const float ri =
                std::fma(scale, static_cast<float>(row[i]), zero);
            for (size_t j = 0; j < nk; ++j)
                dst[j][i] = std::fma(alpha[j], ri, dst[j][i]);
        }
    }
}

/**
 * Canonical fused finite check + range scan (see kernels.hh): eight
 * lanes of vminps(x, lo) / vmaxps(x, hi), the pairwise 128-bit-half
 * reduction below, scalar tail — the scalar backend replays each
 * select. A lane is non-finite iff |x| is not below +inf (NaN
 * compares unordered), accumulated as one mask.
 */
bool
finiteRangeI8Avx2(const float *x, size_t n, float &lo, float &hi)
{
    const __m256 inf =
        _mm256_set1_ps(std::numeric_limits<float>::infinity());
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 l = inf;
    __m256 h = _mm256_sub_ps(_mm256_setzero_ps(), inf);
    __m256 bad = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(_mm256_and_ps(v, absmask),
                                              inf, _CMP_NLT_UQ));
        l = _mm256_min_ps(v, l);
        h = _mm256_max_ps(v, h);
    }
    __m128 ml = _mm_min_ps(_mm256_castps256_ps128(l),
                           _mm256_extractf128_ps(l, 1));
    ml = _mm_min_ps(ml, _mm_movehl_ps(ml, ml));
    ml = _mm_min_ss(ml, _mm_shuffle_ps(ml, ml, 0x55));
    __m128 mh = _mm_max_ps(_mm256_castps256_ps128(h),
                           _mm256_extractf128_ps(h, 1));
    mh = _mm_max_ps(mh, _mm_movehl_ps(mh, mh));
    mh = _mm_max_ss(mh, _mm_shuffle_ps(mh, mh, 0x55));
    float rl = _mm_cvtss_f32(ml), rh = _mm_cvtss_f32(mh);
    bool finite = _mm256_movemask_ps(bad) == 0;
    for (; i < n; ++i) {
        finite &= std::isfinite(x[i]);
        rl = (x[i] < rl) ? x[i] : rl;
        rh = (x[i] > rh) ? x[i] : rh;
    }
    lo = rl;
    hi = rh;
    return finite;
}

/**
 * Affine int8 quantize (see kernels.hh). vcvtps2dq rounds under the
 * MXCSR mode, the same one lrintf uses. Clamping in float before the
 * conversion equals clamping lrintf's result, except where lrintf
 * overflows (NaN, +-inf, |v| >= 2^63) and returns LONG_MIN: those
 * lanes are forced to -128 explicitly, so every input matches the
 * scalar backend, which also encodes the tail.
 */
void
quantizeI8Avx2(const float *x, size_t n, float scale, float zero,
               int8_t *q)
{
    if (scale == 0.f) { // constant chunk: every element equals zero
        std::memset(q, 0, n);
        return;
    }
    const __m256 vinv = _mm256_set1_ps(1.f / scale);
    const __m256 vzero = _mm256_set1_ps(zero);
    const __m256 qmin = _mm256_set1_ps(-128.f);
    const __m256 qmax = _mm256_set1_ps(127.f);
    const __m256 lmax = _mm256_set1_ps(0x1p63f);
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_mul_ps(
            _mm256_sub_ps(_mm256_loadu_ps(x + i), vzero), vinv);
        const __m256 inrange =
            _mm256_cmp_ps(_mm256_and_ps(v, absmask), lmax, _CMP_LT_OQ);
        const __m256 c = _mm256_blendv_ps(
            qmin, _mm256_min_ps(_mm256_max_ps(v, qmin), qmax), inrange);
        const __m256i w = _mm256_cvtps_epi32(c);
        const __m128i w16 = _mm_packs_epi32(
            _mm256_castsi256_si128(w), _mm256_extracti128_si256(w, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(q + i),
                         _mm_packs_epi16(w16, w16));
    }
    scalar::quantizeI8(x + i, n - i, scale, zero, q + i); // < 8 left
}

/**
 * Vector e^x, Cephes-style: split x = n*ln2 + r with |r| <= ln2/2,
 * evaluate a degree-6 polynomial for e^r, scale by 2^n through the
 * float exponent field. Inputs above 88.376 resolve to +inf and below
 * -87.337 to 0 so the boundary behaviour matches std::exp (the scalar
 * path's denormal outputs flush to zero, a < 1.2e-38 absolute
 * difference).
 */
inline __m256
exp8(__m256 x)
{
    const __m256 hi = _mm256_set1_ps(88.3762626647950f);
    const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
    const __m256 over = _mm256_cmp_ps(x, hi, _CMP_GT_OQ);
    const __m256 under = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);

    __m256 xc = _mm256_min_ps(_mm256_max_ps(x, lo), hi);

    // n = round(x / ln2), computed as floor(x * log2e + 0.5).
    __m256 fx = _mm256_fmadd_ps(xc,
                                _mm256_set1_ps(1.44269504088896341f),
                                _mm256_set1_ps(0.5f));
    fx = _mm256_floor_ps(fx);

    // r = x - n*ln2, with ln2 split for extra precision.
    __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), xc);
    r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);

    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
    y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));

    // y *= 2^n via the exponent field.
    __m256i bits = _mm256_cvttps_epi32(fx);
    bits = _mm256_add_epi32(bits, _mm256_set1_epi32(127));
    bits = _mm256_slli_epi32(bits, 23);
    y = _mm256_mul_ps(y, _mm256_castsi256_ps(bits));

    y = _mm256_blendv_ps(
        y, _mm256_set1_ps(std::numeric_limits<float>::infinity()), over);
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(), under);
    return y;
}

void
expInplaceAvx2(float *x, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i, exp8(_mm256_loadu_ps(x + i)));
    if (i < n) {
        // Tail through the same vector path so results do not depend
        // on where the 8-lane boundary falls.
        float buf[8];
        std::memcpy(buf, x + i, (n - i) * sizeof(float));
        _mm256_storeu_ps(buf, exp8(_mm256_loadu_ps(buf)));
        std::memcpy(x + i, buf, (n - i) * sizeof(float));
    }
}

void
expShiftInplaceAvx2(float *x, size_t n, float shift)
{
    const __m256 sh = _mm256_set1_ps(shift);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            x + i, exp8(_mm256_sub_ps(_mm256_loadu_ps(x + i), sh)));
    if (i < n) {
        float buf[8];
        std::memcpy(buf, x + i, (n - i) * sizeof(float));
        _mm256_storeu_ps(buf,
                         exp8(_mm256_sub_ps(_mm256_loadu_ps(buf), sh)));
        std::memcpy(x + i, buf, (n - i) * sizeof(float));
    }
}

// --- gemm: packed-B 4x16 register-tiled micro-kernel ----------------

constexpr size_t kKc = 256; ///< k-panel depth (B panel rows per pack)
constexpr size_t kNr = 16;  ///< micro-kernel width (two YMM registers)

/**
 * Pack the (kc x nf) panel of B starting at `b` (leading dimension
 * ldb, nf a multiple of 16) into tile-major order: for each 16-wide
 * column tile, kc consecutive rows of 16 contiguous floats. The
 * micro-kernel then streams the panel linearly.
 */
void
packB(const float *b, size_t ldb, size_t kc, size_t nf, float *pack)
{
    for (size_t t = 0; t < nf / kNr; ++t) {
        const float *src = b + t * kNr;
        for (size_t p = 0; p < kc; ++p) {
            _mm256_storeu_ps(pack, _mm256_loadu_ps(src));
            _mm256_storeu_ps(pack + 8, _mm256_loadu_ps(src + 8));
            src += ldb;
            pack += kNr;
        }
    }
}

/** C[4 x 16] += A[4 x kc] (lda-strided) * packed B panel tile. */
inline void
micro4x16(const float *a, size_t lda, const float *pb, size_t kc,
          float *c, size_t ldc)
{
    __m256 c00 = _mm256_loadu_ps(c + 0 * ldc);
    __m256 c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    __m256 c10 = _mm256_loadu_ps(c + 1 * ldc);
    __m256 c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    __m256 c20 = _mm256_loadu_ps(c + 2 * ldc);
    __m256 c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    __m256 c30 = _mm256_loadu_ps(c + 3 * ldc);
    __m256 c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    for (size_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_loadu_ps(pb);
        const __m256 b1 = _mm256_loadu_ps(pb + 8);
        pb += kNr;
        const __m256 a0 = _mm256_broadcast_ss(a + 0 * lda + p);
        c00 = _mm256_fmadd_ps(a0, b0, c00);
        c01 = _mm256_fmadd_ps(a0, b1, c01);
        const __m256 a1 = _mm256_broadcast_ss(a + 1 * lda + p);
        c10 = _mm256_fmadd_ps(a1, b0, c10);
        c11 = _mm256_fmadd_ps(a1, b1, c11);
        const __m256 a2 = _mm256_broadcast_ss(a + 2 * lda + p);
        c20 = _mm256_fmadd_ps(a2, b0, c20);
        c21 = _mm256_fmadd_ps(a2, b1, c21);
        const __m256 a3 = _mm256_broadcast_ss(a + 3 * lda + p);
        c30 = _mm256_fmadd_ps(a3, b0, c30);
        c31 = _mm256_fmadd_ps(a3, b1, c31);
    }
    _mm256_storeu_ps(c + 0 * ldc, c00);
    _mm256_storeu_ps(c + 0 * ldc + 8, c01);
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

/** C[1 x 16] += A[1 x kc] * packed B panel tile (m-remainder rows). */
inline void
micro1x16(const float *a, const float *pb, size_t kc, float *c)
{
    __m256 c0 = _mm256_loadu_ps(c);
    __m256 c1 = _mm256_loadu_ps(c + 8);
    for (size_t p = 0; p < kc; ++p) {
        const __m256 av = _mm256_broadcast_ss(a + p);
        c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb), c0);
        c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb + 8), c1);
        pb += kNr;
    }
    _mm256_storeu_ps(c, c0);
    _mm256_storeu_ps(c + 8, c1);
}

void
gemmAvx2(const float *a, const float *b, float *c,
         size_t m, size_t k, size_t n, bool accumulate)
{
    if (!accumulate) {
        for (size_t r = 0; r < m; ++r)
            std::memset(c + r * n, 0, n * sizeof(float));
    }

    const size_t nf = n / kNr * kNr;
    // Reused packing scratch; the only allocation in the BLAS layer
    // (documented in kernels.hh). thread_local keeps gemm reentrant
    // across pool workers.
    thread_local std::vector<float> packbuf;

    for (size_t p0 = 0; p0 < k; p0 += kKc) {
        const size_t kc = std::min(kKc, k - p0);
        if (nf > 0) {
            packbuf.resize(kc * nf);
            packB(b + p0 * n, n, kc, nf, packbuf.data());
            size_t r = 0;
            for (; r + 4 <= m; r += 4) {
                for (size_t t = 0; t < nf / kNr; ++t)
                    micro4x16(a + r * k + p0, k,
                              packbuf.data() + t * kc * kNr, kc,
                              c + r * n + t * kNr, n);
            }
            for (; r < m; ++r) {
                for (size_t t = 0; t < nf / kNr; ++t)
                    micro1x16(a + r * k + p0,
                              packbuf.data() + t * kc * kNr, kc,
                              c + r * n + t * kNr);
            }
        }
        // Column remainder (n % 16) straight out of B.
        if (nf < n) {
            for (size_t r = 0; r < m; ++r) {
                float *crow = c + r * n;
                for (size_t p = p0; p < p0 + kc; ++p) {
                    const float av = a[r * k + p];
                    const float *brow = b + p * n;
                    for (size_t j = nf; j < n; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

/**
 * Canonical chunk-summary bound (see kernels.hh): 8-wide
 * mul/mul/max/add over the body — vmaxps selects the second operand
 * on equality, which the scalar backend's (a > b) ? a : b replays —
 * then hsum8's pairwise reduction and a scalar tail.
 */
float
chunkBoundAvx2(const float *x, const float *lo, const float *hi,
               size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 xv = _mm256_loadu_ps(x + i);
        const __m256 a = _mm256_mul_ps(xv, _mm256_loadu_ps(hi + i));
        const __m256 b = _mm256_mul_ps(xv, _mm256_loadu_ps(lo + i));
        acc = _mm256_add_ps(acc, _mm256_max_ps(a, b));
    }
    float r = hsum8(acc);
    for (; i < n; ++i) {
        const float a = x[i] * hi[i];
        const float b = x[i] * lo[i];
        r += (a > b) ? a : b;
    }
    return r;
}

void
chunkBoundBatchAvx2(const float *x, size_t nx, size_t xstride,
                    const float *lo, const float *hi, size_t count,
                    size_t n, size_t stride, float *out, size_t ostride)
{
    // The summary block is tiny next to the KB sweep it gates (two
    // fp32 rows per *chunk*), so a plain per-(query, summary) loop is
    // enough; the canonical per-pair order keeps results independent
    // of any future tiling.
    for (size_t q = 0; q < nx; ++q) {
        const float *xq = x + q * xstride;
        float *o = out + q * ostride;
        for (size_t c = 0; c < count; ++c)
            o[c] = chunkBoundAvx2(xq, lo + c * stride, hi + c * stride,
                                  n);
    }
}

const KernelTable kAvx2Table = {
    "avx2",         dotAvx2,          axpyAvx2,
    scalAvx2,       sumAvx2,          maxElementAvx2,
    dotBatchAvx2,   dotBatchMultiAvx2,
    weightedSumSkipAvx2,              weightedSumSkipMultiAvx2,
    dotBatchMultiBf16Avx2,            weightedSumSkipMultiBf16Avx2,
    dotBatchMultiI8Avx2,              weightedSumSkipMultiI8Avx2,
    finiteRangeI8Avx2,                quantizeI8Avx2,
    chunkBoundBatchAvx2,
    gemmAvx2,       expInplaceAvx2,   expShiftInplaceAvx2,
};

} // namespace

const KernelTable *
avx2Kernels()
{
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return &kAvx2Table;
    return nullptr;
}

} // namespace mnnfast::blas::detail

#else // !(__AVX2__ && __FMA__)

namespace mnnfast::blas::detail {

const KernelTable *
avx2Kernels()
{
    return nullptr;
}

} // namespace mnnfast::blas::detail

#endif
