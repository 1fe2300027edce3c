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
 *  - dotBatchMulti / weightedSumSkipMulti: one body each, templated on
 *    the row codec (fp32 load, bf16 widen, int8 widen + affine code),
 *    register-tiled over queries x rows in the canonical order the
 *    scalar backend replays;
 *  - exp: Cephes-style polynomial (2^n * P(r) after range reduction),
 *    ~2 ulp, with explicit inf/0 resolution outside [-87.34, 88.38]
 *    so overflow behaves like std::exp.
 */

#include "blas/kernels_detail.hh"


#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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

// --- row codecs -------------------------------------------------------

/** 8 fp32 elements, loaded as is. */
inline __m256
widen8(const float *p)
{
    return _mm256_loadu_ps(p);
}

/**
 * Widen 8 bf16 elements to fp32 lanes: zero-extend to 32 bits and
 * shift into the high half. Exact (no rounding), so the upconverted
 * lanes equal bf16ToFloat element-for-element.
 */
inline __m256
widen8(const uint16_t *p)
{
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    const __m256i w = _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
    return _mm256_castsi256_ps(w);
}

/**
 * Widen 8 int8 elements to fp32 lanes: sign-extend to 32 bits, then
 * int->float convert. Exact for the int8 range (no rounding), so the
 * widened lanes equal static_cast<float>(row[i]) element-for-element.
 */
inline __m256
widen8(const int8_t *p)
{
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
    return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
}

/** 8 stored elements as the fp32 values they encode (detail::dequant). */
template <class T>
inline __m256
dequant8(const T *p, __m256 scale, __m256 zero)
{
    if constexpr (kAffine<T>)
        return _mm256_fmadd_ps(scale, widen8(p), zero);
    else
        return widen8(p);
}

/**
 * Canonical query sum for the factored affine dot: vertical 8-lane
 * adds, hsum8, scalar tail — the scalar backend replays this order.
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

/** Row distance the streaming kernels prefetch ahead of the compute. */
constexpr size_t kPrefetchRows = 8;

/**
 * Codec trait: whether the multi-query weighted sum prefetches every
 * row ahead, before its skip decision is known. An int8 row at the
 * engines' widths is one cache line; an fp32 row at ed=64 is four,
 * and under zero-skipping most of them belong to rows that are never
 * read (measured at ed=64: f32 nq=4 with skipping streamed 3-4x slower
 * with it, and the dense f32 sweep gained nothing measurable).
 */
template <class T>
inline constexpr bool kPrefetchSkippableRows = sizeof(T) == 1;

/**
 * Prefetch one stored row (n elements at `row`) into L1. The dot tiles
 * and the weighted sum's kept-row list retire rows faster than the
 * out-of-order window fills lines (an int8 row is 64 elements per
 * line), so an explicit prefetch a few rows ahead keeps the stream
 * saturated; it also sped the f32 dot sweeps at ed=64 by ~10-25%.
 * Hint-only: never changes results.
 *
 * Look-ahead indices are deliberately NOT clamped to the call's row
 * count: the engines sweep one contiguous matrix in strip-sized
 * calls, so rows past this call are almost always the next call's
 * rows, and clamping would stall the stream at every strip boundary.
 * At the true end of the matrix the prefetch reaches at most
 * kPrefetchRows rows past the allocation — prefetch instructions never
 * fault, so this is harmless.
 */
template <class T>
inline void
prefetchRow(const T *row, size_t n)
{
    const char *p = reinterpret_cast<const char *>(row);
    for (size_t b = 0; b < n * sizeof(T); b += 64)
        _mm_prefetch(p + b, _MM_HINT_T0);
}

/**
 * One NQ-query x NR-row register tile of canonical dots (see
 * kernels.hh): each (q, r) pair is ONE 8-lane fma chain over the
 * widened body, hsum8's pairwise reduction and a std::fma tail —
 * exactly the scalar backend's lane walk — finished with the codec's
 * affine combine (qs[q] = zero * qsum(x_q)). Each row load and widen
 * feeds all NQ queries, so tiles amortize the row stream; because
 * every pair keeps its own chain, no tile shape changes bits.
 */
template <size_t NQ, size_t NR, class T>
inline void
dotTile(const float *x, size_t xstride, const T *rows, size_t stride,
        size_t n, float scale, const float *qs, float *out,
        size_t ostride)
{
    __m256 acc[NQ][NR];
#pragma GCC unroll 8
    for (size_t a = 0; a < NQ; ++a)
#pragma GCC unroll 8
        for (size_t b = 0; b < NR; ++b)
            acc[a][b] = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 xv[NQ];
#pragma GCC unroll 8
        for (size_t a = 0; a < NQ; ++a)
            xv[a] = _mm256_loadu_ps(x + a * xstride + i);
#pragma GCC unroll 8
        for (size_t b = 0; b < NR; ++b) {
            const __m256 rv = widen8(rows + b * stride + i);
#pragma GCC unroll 8
            for (size_t a = 0; a < NQ; ++a)
                acc[a][b] = _mm256_fmadd_ps(xv[a], rv, acc[a][b]);
        }
    }
    float s[NQ][NR];
#pragma GCC unroll 8
    for (size_t a = 0; a < NQ; ++a)
#pragma GCC unroll 8
        for (size_t b = 0; b < NR; ++b)
            s[a][b] = hsum8(acc[a][b]);
    for (; i < n; ++i) {
#pragma GCC unroll 8
        for (size_t b = 0; b < NR; ++b) {
            const float rv = widen(rows[b * stride + i]);
#pragma GCC unroll 8
            for (size_t a = 0; a < NQ; ++a)
                s[a][b] = std::fma(x[a * xstride + i], rv, s[a][b]);
        }
    }
#pragma GCC unroll 8
    for (size_t a = 0; a < NQ; ++a)
#pragma GCC unroll 8
        for (size_t b = 0; b < NR; ++b)
            out[a * ostride + b] = finishDot<T>(s[a][b], scale, qs[a]);
}

/**
 * Query-blocked batched dots, one body for every codec: 2 queries x
 * 4 rows in the main tile (8 accumulators + 2 query + 1 row vector in
 * flight; one row widen feeds both queries), then for a lone query
 * 1 x 8 tiles — eight independent chains cover the fma latency AND
 * keep enough line fills in flight that a single-query sweep streams
 * at the convert-limited rate — and 1 x 4, with 1-row tiles for row
 * tails. Full tiles prefetch kPrefetchRows ahead (see prefetchRow).
 */
template <class T>
void
dotBody(const float *x, size_t nx, size_t xstride, const T *rows,
        size_t count, size_t n, size_t stride, float scale, float zero,
        float *out, size_t ostride)
{
    const auto affineTerm = [&](const float *xq) {
        return kAffine<T> ? zero * querySumAvx2(xq, n) : 0.f;
    };
    size_t q = 0;
    for (; q + 2 <= nx; q += 2) {
        const float *xq = x + q * xstride;
        float *oq = out + q * ostride;
        const float qs[2] = {affineTerm(xq), affineTerm(xq + xstride)};
        size_t r = 0;
        for (; r + 4 <= count; r += 4) {
            for (size_t k = 0; k < 4; ++k)
                prefetchRow(rows + (r + kPrefetchRows + k) * stride, n);
            dotTile<2, 4>(xq, xstride, rows + r * stride, stride, n,
                          scale, qs, oq + r, ostride);
        }
        for (; r < count; ++r)
            dotTile<2, 1>(xq, xstride, rows + r * stride, stride, n,
                          scale, qs, oq + r, ostride);
    }
    if (q < nx) {
        const float *xq = x + q * xstride;
        float *oq = out + q * ostride;
        const float qs[1] = {affineTerm(xq)};
        size_t r = 0;
        for (; r + 8 <= count; r += 8) {
            for (size_t k = 0; k < 8; ++k)
                prefetchRow(rows + (r + kPrefetchRows + k) * stride, n);
            dotTile<1, 8>(xq, xstride, rows + r * stride, stride, n,
                          scale, qs, oq + r, ostride);
        }
        for (; r + 4 <= count; r += 4)
            dotTile<1, 4>(xq, xstride, rows + r * stride, stride, n,
                          scale, qs, oq + r, ostride);
        for (; r < count; ++r)
            dotTile<1, 1>(xq, xstride, rows + r * stride, stride, n,
                          scale, qs, oq + r, ostride);
    }
}

/**
 * Accumulate one kept row into nk accumulators: each 8-lane block of
 * the row is loaded and dequantized once, then fma'd into every kept
 * accumulator while it sits in a register. Tail elements use the same
 * dequant + std::fma steps as the scalar backend, so the update
 * rounding matches exactly.
 */
template <class T>
inline void
accumulateRow(const T *row, size_t n, float scale, float zero,
              const float (&alpha)[blas::kWsumQueryTile],
              float *const (&dst)[blas::kWsumQueryTile], size_t nk)
{
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 zv = _mm256_set1_ps(zero);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 rv = dequant8(row + i, sv, zv);
        for (size_t j = 0; j < nk; ++j)
            _mm256_storeu_ps(
                dst[j] + i,
                _mm256_fmadd_ps(_mm256_set1_ps(alpha[j]), rv,
                                _mm256_loadu_ps(dst[j] + i)));
    }
    for (; i < n; ++i) {
        const float ri = dequant(row[i], scale, zero);
        for (size_t j = 0; j < nk; ++j)
            dst[j][i] = std::fma(alpha[j], ri, dst[j][i]);
    }
}

/**
 * Query-blocked weighted sum, one body for every codec: for every row
 * the skip test runs per query in scalar double, the kept queries are
 * gathered into a scatter list, and the row is accumulated into all of
 * them at once (accumulateRow); int8 rows are prefetched
 * kPrefetchRows ahead (kPrefetchSkippableRows).
 *
 * A single query takes a two-pass path instead, since that is where
 * the skip rate is high (the threshold prunes most rows once the
 * running sum has grown): pass A is a branchless scalar scan that
 * advances the running-sum chain with exactly the same serial double
 * adds and skip predicate, compacting the kept rows' indices and
 * weights; pass B then streams ONLY the kept rows, prefetching ahead
 * through the index list (the per-row loop has to prefetch every row,
 * since the skip decision is not known yet, which at a 15% keep rate
 * wastes ~6x the M_OUT bandwidth). Per kept row the arithmetic is the
 * nk == 1 case of the per-row loop, in the same ascending row order,
 * so results are bit-identical to it and to the scalar backend.
 */
template <class T>
void
weightedSumBody(const float *e, size_t ne, size_t estride, const T *rows,
                size_t count, size_t n, size_t stride, float scale,
                float zero, float threshold, double *running_sums,
                float *acc, size_t accstride, uint64_t &kept,
                uint64_t &skipped)
{
    // Kept-query scatter list. Passing the fixed-size arrays (not bare
    // pointers) lets the compiler bound nk and specialise the
    // accumulate loop per kept count, as with the loop written inline.
    float alpha[blas::kWsumQueryTile];
    float *dst[blas::kWsumQueryTile] = {acc};
    if (ne == 1) {
        constexpr size_t kBlock = 512;
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
            for (size_t j = 0; j < std::min(kPrefetchRows, nkept); ++j)
                prefetchRow(rows + idx[j] * stride, n);
            for (size_t j = 0; j < nkept; ++j) {
                if (j + kPrefetchRows < nkept)
                    prefetchRow(rows + idx[j + kPrefetchRows] * stride, n);
                alpha[0] = evk[j];
                accumulateRow(rows + idx[j] * stride, n, scale, zero,
                              alpha, dst, 1);
            }
        }
        return;
    }
    for (size_t r = 0; r < count; ++r) {
        // Unconditional look-ahead prefetch: rows are visited in
        // order even when most are skipped, and the skip decision for
        // row r+k isn't known yet, so this trades a few spurious
        // one-line fills for never stalling on a kept row's first
        // touch.
        if constexpr (kPrefetchSkippableRows<T>)
            prefetchRow(rows + (r + kPrefetchRows) * stride, n);
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
        if (nk > 0)
            accumulateRow(rows + r * stride, n, scale, zero, alpha, dst,
                          nk);
    }
}

void
dotBatchMultiAvx2(const float *x, size_t nx, size_t xstride,
                  const Rows &rows, size_t count, size_t n, size_t stride,
                  float *out, size_t ostride)
{
    withRowType(rows, [&](const auto *p) {
        dotBody(x, nx, xstride, p, count, n, stride, rows.scale,
                rows.zero, out, ostride);
    });
}

void
weightedSumSkipMultiAvx2(const float *e, size_t ne, size_t estride,
                         const Rows &rows, size_t count, size_t n,
                         size_t stride, float threshold,
                         double *running_sums, float *acc,
                         size_t accstride, uint64_t &kept,
                         uint64_t &skipped)
{
    withRowType(rows, [&](const auto *p) {
        weightedSumBody(e, ne, estride, p, count, n, stride, rows.scale,
                        rows.zero, threshold, running_sums, acc,
                        accstride, kept, skipped);
    });
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
    dotBatchMultiAvx2,                weightedSumSkipMultiAvx2,
    finiteRangeI8Avx2,                quantizeI8Avx2,
    chunkBoundBatchAvx2,
    expInplaceAvx2, expShiftInplaceAvx2,
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
