/**
 * @file
 * Portable scalar reference kernels (namespace blas::scalar).
 *
 * These are the seed implementations, kept verbatim as the dispatch
 * fallback and as the ground truth the SIMD backend is property-tested
 * against. Hand-unrolled four-wide so the compiler can keep multiple
 * dependency chains in flight even without explicit vector code.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "blas/kernels.hh"
#include "util/bf16.hh"
#include "util/logging.hh"

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

void
dotBatch(const float *x, const float *rows, size_t count, size_t n,
         size_t stride, float *out)
{
    for (size_t r = 0; r < count; ++r)
        out[r] = dot(x, rows + r * stride, n);
}

void
dotBatchMulti(const float *x, size_t nx, size_t xstride,
              const float *rows, size_t count, size_t n, size_t stride,
              float *out, size_t ostride)
{
    // The reference path is the per-query loop the query-blocked
    // backends must match bit-for-bit.
    for (size_t q = 0; q < nx; ++q)
        dotBatch(x + q * xstride, rows, count, n, stride,
                 out + q * ostride);
}

void
weightedSumSkip(const float *e, const float *rows, size_t count,
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
        axpy(ev, rows + r * stride, acc, n);
    }
    running_sum = s;
}

void
weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                     const float *rows, size_t count, size_t n,
                     size_t stride, float threshold,
                     double *running_sums, float *acc, size_t accstride,
                     uint64_t &kept, uint64_t &skipped)
{
    // Queries are independent (separate running sums and
    // accumulators), so the per-query reference loop is the
    // definition the query-blocked backend must reproduce exactly.
    for (size_t q = 0; q < ne; ++q)
        weightedSumSkip(e + q * estride, rows, count, n, stride,
                        threshold, running_sums[q], acc + q * accstride,
                        kept, skipped);
}

namespace {

/**
 * Canonical bf16 dot product (see kernels.hh): eight fp32 fma lanes
 * over the 8-aligned body (lane j holds elements i with i % 8 == j),
 * the fixed pairwise lane reduction of the AVX2 hsum, then an fma
 * tail. std::fma single-rounds exactly like the vector fmadd, so this
 * scalar walk is bit-identical to the AVX2 backend's 8-lane chain.
 */
float
dotBf16One(const float *x, const uint16_t *row, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j)
            lane[j] = std::fma(x[i + j], bf16ToFloat(row[i + j]),
                               lane[j]);
    }
    // The AVX2 horizontal sum's exact association.
    float r = ((lane[0] + lane[4]) + (lane[2] + lane[6]))
            + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    for (; i < n; ++i)
        r = std::fma(x[i], bf16ToFloat(row[i]), r);
    return r;
}

} // namespace

void
dotBatchMultiBf16(const float *x, size_t nx, size_t xstride,
                  const uint16_t *rows, size_t count, size_t n,
                  size_t stride, float *out, size_t ostride)
{
    for (size_t q = 0; q < nx; ++q) {
        for (size_t r = 0; r < count; ++r)
            out[q * ostride + r] =
                dotBf16One(x + q * xstride, rows + r * stride, n);
    }
}

void
weightedSumSkipMultiBf16(const float *e, size_t ne, size_t estride,
                         const uint16_t *rows, size_t count, size_t n,
                         size_t stride, float threshold,
                         double *running_sums, float *acc,
                         size_t accstride, uint64_t &kept,
                         uint64_t &skipped)
{
    // Same per-(query, row) scalar-double skip arithmetic as the fp32
    // kernel; each accumulator element takes one single-rounded fma,
    // so the update is bit-identical to the AVX2 backend's fmadd.
    for (size_t r = 0; r < count; ++r) {
        const uint16_t *row = rows + r * stride;
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
                dst[i] = std::fma(ev, bf16ToFloat(row[i]), dst[i]);
        }
    }
}

namespace {

/**
 * Canonical raw int8 dot: the bf16 lane walk over the exactly-widened
 * int8 elements (int8 -> fp32 is lossless, matching the AVX2 cvt
 * pair), so lane j holds fma chains of x[i]*float(row[i]). The affine
 * code is applied by the caller in the factored form of kernels.hh.
 */
float
dotI8RawOne(const float *x, const int8_t *row, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j)
            lane[j] = std::fma(x[i + j],
                               static_cast<float>(row[i + j]), lane[j]);
    }
    float r = ((lane[0] + lane[4]) + (lane[2] + lane[6]))
            + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    for (; i < n; ++i)
        r = std::fma(x[i], static_cast<float>(row[i]), r);
    return r;
}

/**
 * Canonical query sum for the i8 factored dot: the same 8-lane walk
 * and pairwise reduction as the dot chains, with plain adds (the AVX2
 * backend's vertical add + hsum8 is exactly this).
 */
float
querySumOne(const float *x, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j)
            lane[j] += x[i + j];
    }
    float r = ((lane[0] + lane[4]) + (lane[2] + lane[6]))
            + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    for (; i < n; ++i)
        r += x[i];
    return r;
}

} // namespace

void
dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                const int8_t *rows, size_t count, size_t n,
                size_t stride, float scale, float zero, float *out,
                size_t ostride)
{
    for (size_t q = 0; q < nx; ++q) {
        const float *xq = x + q * xstride;
        // zero * qsum(x_q) is a per-query constant, so the combine
        // below depends only on (x_q, row, scale, zero) — sweep
        // splits and tile shapes can never change bits.
        const float qs = zero * querySumOne(xq, n);
        for (size_t r = 0; r < count; ++r)
            out[q * ostride + r] =
                std::fma(scale, dotI8RawOne(xq, rows + r * stride, n),
                         qs);
    }
}

void
weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                       const int8_t *rows, size_t count, size_t n,
                       size_t stride, float scale, float zero,
                       float threshold, double *running_sums, float *acc,
                       size_t accstride, uint64_t &kept,
                       uint64_t &skipped)
{
    // Same per-(query, row) scalar-double skip arithmetic as the
    // f32/bf16 kernels; each element takes one dequant fma plus one
    // accumulate fma, both single-rounded like the AVX2 fmadds.
    for (size_t r = 0; r < count; ++r) {
        const int8_t *row = rows + r * stride;
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
            for (size_t i = 0; i < n; ++i) {
                const float ri =
                    std::fma(scale, static_cast<float>(row[i]), zero);
                dst[i] = std::fma(ev, ri, dst[i]);
            }
        }
    }
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
    float r = ((lane[0] + lane[4]) + (lane[2] + lane[6]))
            + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
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

namespace {

// Blocked inner kernel: accumulate a (4 x n) strip of C from a
// (4 x kc) strip of A and a (kc x n) panel of B.
void
gemmStrip4(const float *a, const float *b, float *c,
           size_t kc, size_t n, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t p = 0; p < kc; ++p) {
        const float a0 = a[0 * lda + p];
        const float a1 = a[1 * lda + p];
        const float a2 = a[2 * lda + p];
        const float a3 = a[3 * lda + p];
        const float *brow = b + p * ldb;
        for (size_t j = 0; j < n; ++j) {
            const float bj = brow[j];
            c[0 * ldc + j] += a0 * bj;
            c[1 * ldc + j] += a1 * bj;
            c[2 * ldc + j] += a2 * bj;
            c[3 * ldc + j] += a3 * bj;
        }
    }
}

} // namespace

void
gemm(const float *a, const float *b, float *c,
     size_t m, size_t k, size_t n, bool accumulate)
{
    if (!accumulate) {
        for (size_t r = 0; r < m; ++r)
            std::memset(c + r * n, 0, n * sizeof(float));
    }

    // Panel size along k chosen so a B panel (kc x n) of a typical
    // MemNN layer stays resident in L1/L2 while four C rows accumulate.
    constexpr size_t kc_block = 256;

    size_t r = 0;
    for (; r + 4 <= m; r += 4) {
        for (size_t p0 = 0; p0 < k; p0 += kc_block) {
            const size_t kc = std::min(kc_block, k - p0);
            gemmStrip4(a + r * k + p0, b + p0 * n, c + r * n,
                       kc, n, k, n, n);
        }
    }
    for (; r < m; ++r) {
        for (size_t p = 0; p < k; ++p)
            axpy(a[r * k + p], b + p * n, c + r * n, n);
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
