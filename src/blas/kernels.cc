/**
 * @file
 * Kernel dispatch layer: binds the public blas:: entry points to the
 * scalar reference (kernels_scalar.cc) or the AVX2+FMA backend
 * (kernels_avx2.cc). The backend is chosen exactly once, at first use,
 * from the host CPU features and the MNNFAST_NO_SIMD environment
 * variable; composite kernels (gemv, softmax, ...) are built here on
 * top of the dispatched primitives so both backends share one
 * definition of the algorithm.
 */

#include "blas/kernels.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "blas/kernels_detail.hh"
#include "util/logging.hh"

namespace mnnfast::blas {

namespace {

detail::KernelTable
scalarTable()
{
    return {
        "scalar",      scalar::dot,        scalar::axpy,
        scalar::scal,  scalar::sum,        scalar::maxElement,
        scalar::dotBatchMulti,             scalar::weightedSumSkipMulti,
        scalar::finiteRangeI8,             scalar::quantizeI8,
        scalar::chunkBoundBatch,
        scalar::expInplace,                scalar::expShiftInplace,
    };
}

/**
 * The active backend, resolved once (thread-safe static init).
 * MNNFAST_NO_SIMD set to anything but "0" or "" pins the scalar path.
 */
const detail::KernelTable &
active()
{
    static const detail::KernelTable table = [] {
        if (const char *env = std::getenv("MNNFAST_NO_SIMD");
            env && env[0] != '\0' && std::strcmp(env, "0") != 0)
            return scalarTable();
        if (const detail::KernelTable *avx2 = detail::avx2Kernels())
            return *avx2;
        return scalarTable();
    }();
    return table;
}

} // namespace

bool
simdActive()
{
    return std::strcmp(active().name, "scalar") != 0;
}

const char *
kernelBackendName()
{
    return active().name;
}

float
dot(const float *x, const float *y, size_t n)
{
    return active().dot(x, y, n);
}

void
axpy(float alpha, const float *x, float *y, size_t n)
{
    active().axpy(alpha, x, y, n);
}

void
scal(float alpha, float *x, size_t n)
{
    active().scal(alpha, x, n);
}

void
zero(float *x, size_t n)
{
    // n == 0 may come with a null pointer (e.g. an empty arena span),
    // which memset's nonnull contract forbids even for zero bytes.
    if (n > 0)
        std::memset(x, 0, n * sizeof(float));
}

void
copy(const float *src, float *dst, size_t n)
{
    if (n > 0)
        std::memcpy(dst, src, n * sizeof(float));
}

float
sum(const float *x, size_t n)
{
    return active().sum(x, n);
}

float
maxElement(const float *x, size_t n)
{
    mnn_assert(n > 0, "maxElement of empty vector");
    return active().maxElement(x, n);
}

void
dotBatchMulti(const float *x, size_t nx, size_t xstride, const Rows &rows,
              size_t count, size_t n, size_t stride, float *out,
              size_t ostride)
{
    mnn_assert(stride >= n && xstride >= n && ostride >= count,
               "dotBatchMulti stride shorter than row length");
    active().dotBatchMulti(x, nx, xstride, rows, count, n, stride, out,
                           ostride);
}

void
weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                     const Rows &rows, size_t count, size_t n,
                     size_t stride, float threshold,
                     double *running_sums, float *acc, size_t accstride,
                     uint64_t &kept, uint64_t &skipped)
{
    mnn_assert(stride >= n && accstride >= n && estride >= count,
               "weightedSumSkipMulti stride shorter than row length");
    // The backend's kept-set scatter list is a fixed stack array of
    // kWsumQueryTile entries; split larger batches here so callers
    // can pass any ne. Query tiles are independent, so tiling cannot
    // change results.
    for (size_t q0 = 0; q0 < ne; q0 += kWsumQueryTile) {
        const size_t qb = std::min(kWsumQueryTile, ne - q0);
        active().weightedSumSkipMulti(
            e + q0 * estride, qb, estride, rows, count, n, stride,
            threshold, running_sums + q0, acc + q0 * accstride,
            accstride, kept, skipped);
    }
}

bool
finiteRangeI8(const float *x, size_t n, float &lo, float &hi)
{
    mnn_assert(n > 0, "finiteRangeI8 of empty vector");
    return active().finiteRangeI8(x, n, lo, hi);
}

void
quantizeI8(const float *x, size_t n, float scale, float zero, int8_t *q)
{
    active().quantizeI8(x, n, scale, zero, q);
}

void
chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                const float *lo, const float *hi, size_t count, size_t n,
                size_t stride, float *out, size_t ostride)
{
    mnn_assert(stride >= n && xstride >= n && ostride >= count,
               "chunkBoundBatch stride shorter than row length");
    active().chunkBoundBatch(x, nx, xstride, lo, hi, count, n, stride,
                             out, ostride);
}

void
gemv(const float *a, size_t rows, size_t cols, const float *x, float *y)
{
    dotBatchMulti(x, 1, cols, Rows(a), rows, cols, cols, y, rows);
}

void
expInplace(float *x, size_t n)
{
    active().expInplace(x, n);
}

void
expShiftInplace(float *x, size_t n, float shift)
{
    active().expShiftInplace(x, n, shift);
}

void
softmax(float *x, size_t n)
{
    if (n == 0)
        return;
    const float m = maxElement(x, n);
    expShiftInplace(x, n, m);
    const float s = sum(x, n);
    scal(1.0f / s, x, n);
}

} // namespace mnnfast::blas
