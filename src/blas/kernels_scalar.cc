/**
 * @file
 * Portable scalar reference kernels (namespace blas::scalar).
 *
 * The dispatch fallback and the ground truth the SIMD backend is
 * property-tested against. The single-vector reductions are
 * hand-unrolled four-wide so the compiler can keep multiple dependency
 * chains in flight even without explicit vector code; the
 * knowledge-base streaming kernels replay the AVX2 backend's canonical
 * 8-lane order element for element, one body per operation for every
 * row codec.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "blas/kernels.hh"
#include "blas/kernels_detail.hh"

namespace mnnfast::blas::scalar {

float
dot(const float *x, const float *y, size_t n)
{
    // Four independent accumulators let the compiler keep four vector
    // FMA chains in flight instead of serializing on one register.
    float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += x[i + 0] * y[i + 0];
        acc1 += x[i + 1] * y[i + 1];
        acc2 += x[i + 2] * y[i + 2];
        acc3 += x[i + 3] * y[i + 3];
    }
    for (; i < n; ++i)
        acc0 += x[i] * y[i];
    return (acc0 + acc1) + (acc2 + acc3);
}

void
axpy(float alpha, const float *x, float *y, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scal(float alpha, float *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] *= alpha;
}

float
sum(const float *x, size_t n)
{
    float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += x[i + 0];
        acc1 += x[i + 1];
        acc2 += x[i + 2];
        acc3 += x[i + 3];
    }
    for (; i < n; ++i)
        acc0 += x[i];
    return (acc0 + acc1) + (acc2 + acc3);
}

float
maxElement(const float *x, size_t n)
{
    float m = x[0];
    for (size_t i = 1; i < n; ++i)
        m = std::max(m, x[i]);
    return m;
}

namespace {

/**
 * The fixed pairwise reduction of eight lanes — the AVX2 hsum8's exact
 * association.
 */
float
hsum8(const float *lane)
{
    return ((lane[0] + lane[4]) + (lane[2] + lane[6]))
         + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

/**
 * Canonical raw dot (see kernels.hh): eight fp32 fma lanes over the
 * 8-aligned body of the widened row (lane j holds elements i with
 * i % 8 == j), hsum8, then an fma tail. std::fma single-rounds exactly
 * like the vector fmadd and widening is exact, so this scalar walk is
 * bit-identical to the AVX2 backend's 8-lane chain for every codec.
 */
template <class T>
float
rawDot(const float *x, const T *row, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j)
            lane[j] = std::fma(x[i + j], detail::widen(row[i + j]),
                               lane[j]);
    }
    float r = hsum8(lane);
    for (; i < n; ++i)
        r = std::fma(x[i], detail::widen(row[i]), r);
    return r;
}

/**
 * Canonical query sum for the factored affine dot: the same 8-lane
 * walk and pairwise reduction as the dot chains, with plain adds (the
 * AVX2 backend's vertical add + hsum8 is exactly this).
 */
float
querySum(const float *x, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j)
            lane[j] += x[i + j];
    }
    float r = hsum8(lane);
    for (; i < n; ++i)
        r += x[i];
    return r;
}

template <class T>
void
dotBody(const float *x, size_t nx, size_t xstride, const T *rows,
        size_t count, size_t n, size_t stride, float scale, float zero,
        float *out, size_t ostride)
{
    for (size_t q = 0; q < nx; ++q) {
        const float *xq = x + q * xstride;
        // zero * qsum(x_q) is a per-query constant, so the combine
        // depends only on (x_q, row, scale, zero) — sweep splits and
        // tile shapes can never change bits.
        const float qs = detail::kAffine<T> ? zero * querySum(xq, n) : 0.f;
        for (size_t r = 0; r < count; ++r)
            out[q * ostride + r] = detail::finishDot<T>(
                rawDot(xq, rows + r * stride, n), scale, qs);
    }
}

template <class T>
void
weightedSumBody(const float *e, size_t ne, size_t estride, const T *rows,
                size_t count, size_t n, size_t stride, float scale,
                float zero, float threshold, double *running_sums,
                float *acc, size_t accstride, uint64_t &kept,
                uint64_t &skipped)
{
    // Per-(query, row) scalar-double skip arithmetic; each element
    // takes the codec's dequantization (one fma for I8) plus one
    // accumulate fma, both single-rounded like the AVX2 fmadds.
    for (size_t r = 0; r < count; ++r) {
        const T *row = rows + r * stride;
        for (size_t q = 0; q < ne; ++q) {
            const float ev = e[q * estride + r];
            const double s = running_sums[q] + ev;
            running_sums[q] = s;
            if (threshold > 0.f && double(ev) < double(threshold) * s) {
                ++skipped;
                continue;
            }
            ++kept;
            float *dst = acc + q * accstride;
            for (size_t i = 0; i < n; ++i)
                dst[i] = std::fma(ev, detail::dequant(row[i], scale, zero),
                                  dst[i]);
        }
    }
}

} // namespace

void
dotBatchMulti(const float *x, size_t nx, size_t xstride, const Rows &rows,
              size_t count, size_t n, size_t stride, float *out,
              size_t ostride)
{
    detail::withRowType(rows, [&](const auto *p) {
        dotBody(x, nx, xstride, p, count, n, stride, rows.scale,
                rows.zero, out, ostride);
    });
}

void
weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                     const Rows &rows, size_t count, size_t n,
                     size_t stride, float threshold,
                     double *running_sums, float *acc, size_t accstride,
                     uint64_t &kept, uint64_t &skipped)
{
    detail::withRowType(rows, [&](const auto *p) {
        weightedSumBody(e, ne, estride, p, count, n, stride, rows.scale,
                        rows.zero, threshold, running_sums, acc,
                        accstride, kept, skipped);
    });
}

bool
finiteRangeI8(const float *x, size_t n, float &lo, float &hi)
{
    // Lane-for-lane replay of the AVX2 scan: vminps(x, lo) keeps
    // (x < lo) ? x : lo, vmaxps(x, hi) keeps (x > hi) ? x : hi.
    const auto mn = [](float a, float b) { return (a < b) ? a : b; };
    const auto mx = [](float a, float b) { return (a > b) ? a : b; };
    constexpr float inf = std::numeric_limits<float>::infinity();
    float l[8] = {inf, inf, inf, inf, inf, inf, inf, inf};
    float h[8] = {-inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf};
    bool finite = true;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j) {
            const float v = x[i + j];
            finite &= std::isfinite(v);
            l[j] = mn(v, l[j]);
            h[j] = mx(v, h[j]);
        }
    }
    float rl = mn(mn(mn(l[0], l[4]), mn(l[2], l[6])),
                  mn(mn(l[1], l[5]), mn(l[3], l[7])));
    float rh = mx(mx(mx(h[0], h[4]), mx(h[2], h[6])),
                  mx(mx(h[1], h[5]), mx(h[3], h[7])));
    for (; i < n; ++i) {
        finite &= std::isfinite(x[i]);
        rl = mn(x[i], rl);
        rh = mx(x[i], rh);
    }
    lo = rl;
    hi = rh;
    return finite;
}

void
quantizeI8(const float *x, size_t n, float scale, float zero, int8_t *q)
{
    if (scale == 0.f) { // constant chunk: every element equals zero
        std::memset(q, 0, n);
        return;
    }
    const float inv = 1.f / scale;
    for (size_t i = 0; i < n; ++i) {
        const long v = std::lrintf((x[i] - zero) * inv);
        q[i] = static_cast<int8_t>(std::clamp<long>(v, -128, 127));
    }
}

namespace {

/**
 * Canonical chunk-summary bound (see kernels.hh): the bf16-style
 * 8-lane walk, each lane adding (a > b) ? a : b of the two
 * single-rounded products — exactly vmaxps's select (second operand
 * wins on equality), so the AVX2 backend's mul/mul/max/add chain is
 * replayed bit for bit — then the fixed pairwise reduction and a
 * scalar tail.
 */
float
chunkBoundOne(const float *x, const float *lo, const float *hi, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j) {
            const float a = x[i + j] * hi[i + j];
            const float b = x[i + j] * lo[i + j];
            lane[j] += (a > b) ? a : b;
        }
    }
    float r = hsum8(lane);
    for (; i < n; ++i) {
        const float a = x[i] * hi[i];
        const float b = x[i] * lo[i];
        r += (a > b) ? a : b;
    }
    return r;
}

} // namespace

void
chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                const float *lo, const float *hi, size_t count, size_t n,
                size_t stride, float *out, size_t ostride)
{
    for (size_t q = 0; q < nx; ++q) {
        const float *xq = x + q * xstride;
        for (size_t c = 0; c < count; ++c)
            out[q * ostride + c] =
                chunkBoundOne(xq, lo + c * stride, hi + c * stride, n);
    }
}

void
expInplace(float *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] = std::exp(x[i]);
}

void
expShiftInplace(float *x, size_t n, float shift)
{
    for (size_t i = 0; i < n; ++i)
        x[i] = std::exp(x[i] - shift);
}

} // namespace mnnfast::blas::scalar
