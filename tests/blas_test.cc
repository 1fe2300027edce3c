/**
 * @file
 * Unit and property tests for src/blas against naive references,
 * parameterized across sizes including non-multiples of the unroll
 * and blocking factors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "blas/kernels.hh"
#include "util/bf16.hh"
#include "util/rng.hh"

namespace mnnfast::blas {
namespace {

std::vector<float>
randomVec(size_t n, uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = rng.uniformRange(-1.0f, 1.0f);
    return v;
}

float
naiveDot(const std::vector<float> &x, const std::vector<float> &y)
{
    double acc = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        acc += double(x[i]) * y[i];
    return static_cast<float>(acc);
}

class KernelSizes : public ::testing::TestWithParam<size_t>
{};

TEST_P(KernelSizes, DotMatchesNaive)
{
    const size_t n = GetParam();
    const auto x = randomVec(n, 1), y = randomVec(n, 2);
    EXPECT_NEAR(dot(x.data(), y.data(), n), naiveDot(x, y),
                1e-4 * std::max<size_t>(n, 1));
}

TEST_P(KernelSizes, AxpyMatchesNaive)
{
    const size_t n = GetParam();
    const auto x = randomVec(n, 3);
    auto y = randomVec(n, 4);
    auto expected = y;
    for (size_t i = 0; i < n; ++i)
        expected[i] += 2.5f * x[i];
    axpy(2.5f, x.data(), y.data(), n);
    // Tolerance scaled by the term magnitudes, not the result: the
    // FMA path single-rounds a*x + y, so when the terms nearly cancel
    // the two roundings differ by ~ulp(a*x), far above ulp(result).
    for (size_t i = 0; i < n; ++i) {
        const float mag =
            std::abs(2.5f * x[i]) + std::abs(expected[i] - 2.5f * x[i]);
        ASSERT_NEAR(y[i], expected[i], 1e-6f * mag + 1e-7f);
    }
}

TEST_P(KernelSizes, ScalScales)
{
    const size_t n = GetParam();
    auto x = randomVec(n, 5);
    const auto orig = x;
    scal(-3.0f, x.data(), n);
    for (size_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(x[i], -3.0f * orig[i]);
}

TEST_P(KernelSizes, SumMatchesNaive)
{
    const size_t n = GetParam();
    const auto x = randomVec(n, 6);
    double expected = 0.0;
    for (float v : x)
        expected += v;
    EXPECT_NEAR(sum(x.data(), n), expected,
                1e-4 * std::max<size_t>(n, 1));
}

TEST_P(KernelSizes, ZeroAndCopy)
{
    const size_t n = GetParam();
    auto x = randomVec(n, 7);
    std::vector<float> y(n, -1.0f);
    copy(x.data(), y.data(), n);
    EXPECT_EQ(x, y);
    zero(x.data(), n);
    for (float v : x)
        ASSERT_EQ(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelSizes,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 15,
                                           16, 17, 48, 100, 255, 1024));

TEST(MaxElement, FindsMaximum)
{
    std::vector<float> v = {-5.f, 2.f, 7.f, 7.f, -1.f};
    EXPECT_FLOAT_EQ(maxElement(v.data(), v.size()), 7.f);
}

TEST(MaxElement, SingleElement)
{
    float v = -3.f;
    EXPECT_FLOAT_EQ(maxElement(&v, 1), -3.f);
}

TEST(MaxElement, EmptyPanics)
{
    float v = 0.f;
    EXPECT_DEATH(maxElement(&v, 0), "maxElement");
}

struct GemvDims
{
    size_t rows;
    size_t cols;
};

class GemvTest : public ::testing::TestWithParam<GemvDims>
{};

TEST_P(GemvTest, MatchesNaive)
{
    const auto [rows, cols] = GetParam();
    const auto a = randomVec(rows * cols, 11);
    const auto x = randomVec(cols, 12);
    std::vector<float> y(rows, -9.f);
    gemv(a.data(), rows, cols, x.data(), y.data());
    for (size_t r = 0; r < rows; ++r) {
        double ref = 0.0;
        for (size_t c = 0; c < cols; ++c)
            ref += double(a[r * cols + c]) * x[c];
        ASSERT_NEAR(y[r], ref, 1e-3) << "row " << r;
    }
}

TEST_P(GemvTest, TransposedMatchesNaive)
{
    const auto [rows, cols] = GetParam();
    const auto a = randomVec(rows * cols, 13);
    const auto x = randomVec(rows, 14);
    std::vector<float> y(cols, -9.f);
    gemvT(a.data(), rows, cols, x.data(), y.data());
    for (size_t c = 0; c < cols; ++c) {
        double ref = 0.0;
        for (size_t r = 0; r < rows; ++r)
            ref += double(a[r * cols + c]) * x[r];
        ASSERT_NEAR(y[c], ref, 1e-3) << "col " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, GemvTest,
    ::testing::Values(GemvDims{1, 1}, GemvDims{3, 5}, GemvDims{5, 3},
                      GemvDims{16, 16}, GemvDims{33, 48},
                      GemvDims{100, 7}));

TEST(Softmax, SumsToOne)
{
    auto x = randomVec(100, 31);
    softmax(x.data(), x.size());
    EXPECT_NEAR(sum(x.data(), x.size()), 1.0f, 1e-5);
    for (float v : x)
        ASSERT_GT(v, 0.0f);
}

TEST(Softmax, StableForLargeLogits)
{
    std::vector<float> x = {1000.f, 1001.f, 999.f};
    softmax(x.data(), x.size());
    EXPECT_NEAR(sum(x.data(), x.size()), 1.0f, 1e-5);
    EXPECT_GT(x[1], x[0]);
    EXPECT_GT(x[0], x[2]);
}

TEST(Softmax, UniformInputGivesUniformOutput)
{
    std::vector<float> x(10, 0.3f);
    softmax(x.data(), x.size());
    for (float v : x)
        ASSERT_NEAR(v, 0.1f, 1e-6);
}

TEST(Softmax, EmptyIsNoOp)
{
    softmax(nullptr, 0);
    SUCCEED();
}

TEST(Softmax, OrderPreserving)
{
    std::vector<float> x = {0.1f, 2.0f, -1.0f, 0.5f};
    softmax(x.data(), x.size());
    EXPECT_GT(x[1], x[3]);
    EXPECT_GT(x[3], x[0]);
    EXPECT_GT(x[0], x[2]);
}

TEST(ExpInplace, MatchesStdExp)
{
    auto x = randomVec(33, 41);
    const auto orig = x;
    expInplace(x.data(), x.size());
    // The vectorized exponential is accurate to ~2 ulp, not
    // bit-identical to libm.
    for (size_t i = 0; i < x.size(); ++i) {
        const float ref = std::exp(orig[i]);
        ASSERT_NEAR(x[i], ref, 2e-6f * ref);
    }
}

TEST(Dispatch, BackendNameMatchesSimdFlag)
{
    const std::string name = kernelBackendName();
    if (simdActive())
        EXPECT_EQ(name, "avx2");
    else
        EXPECT_EQ(name, "scalar");
}

// ---------------------------------------------------------------------
// SIMD-vs-scalar property tests. Every dispatched kernel is compared
// against the portable reference in blas::scalar across sizes spanning
// 0..1025 (odd lengths, non-multiples of every vector width and unroll
// factor), unaligned base offsets, and inputs including negatives and
// denormals. On hosts where dispatch resolves to the scalar table the
// comparison is trivially exact — the suite then simply pins the
// scalar path's behaviour.
// ---------------------------------------------------------------------

/** Sizes crossing all vector-width and unroll boundaries. */
const size_t kSweepSizes[] = {0,   1,   2,   3,   5,   7,    8,    9,
                              15,  16,  17,  31,  32,  33,   63,   64,
                              65,  100, 127, 128, 129, 255,  256,  257,
                              511, 512, 513, 999, 1000, 1023, 1024, 1025};

/** Base offsets 0..3 break 32-byte (and 16-byte) alignment. */
constexpr size_t kMaxOffset = 4;

/**
 * A vector with a deliberately nasty value mix: the usual [-1, 1)
 * range plus interspersed negatives, exact zeros, denormals, and
 * sign flips, padded by `pad` so callers can slide the base pointer.
 */
std::vector<float>
nastyVec(size_t n, uint64_t seed, size_t pad = kMaxOffset)
{
    XorShiftRng rng(seed);
    std::vector<float> v(n + pad);
    for (size_t i = 0; i < v.size(); ++i) {
        float x = rng.uniformRange(-1.0f, 1.0f);
        switch (i % 7) {
        case 3:
            x = 0.0f;
            break;
        case 5:
            x = (x < 0 ? -1.f : 1.f) * 1.1754944e-38f * 0.5f; // denormal
            break;
        default:
            break;
        }
        v[i] = x;
    }
    return v;
}

class SimdVsScalar : public ::testing::TestWithParam<size_t>
{};

TEST_P(SimdVsScalar, Dot)
{
    const size_t n = GetParam();
    const auto x = nastyVec(n, 101), y = nastyVec(n, 102);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        const float got = dot(x.data() + off, y.data() + off, n);
        const float ref = scalar::dot(x.data() + off, y.data() + off, n);
        ASSERT_NEAR(got, ref, 1e-5f * std::max<float>(n, 1.f))
            << "n=" << n << " off=" << off;
    }
}

TEST_P(SimdVsScalar, Axpy)
{
    const size_t n = GetParam();
    const auto x = nastyVec(n, 103);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto y1 = nastyVec(n, 104);
        auto y2 = y1;
        axpy(-1.7f, x.data() + off, y1.data() + off, n);
        scalar::axpy(-1.7f, x.data() + off, y2.data() + off, n);
        for (size_t i = 0; i < n + kMaxOffset; ++i) {
            if (i < off || i >= off + n) {
                ASSERT_EQ(y1[i], y2[i]) // outside the span: untouched
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            const float term = std::abs(1.7f * x[i - off]);
            ASSERT_NEAR(y1[i], y2[i],
                        1e-6f * (term + std::abs(y2[i])) + 1e-7f)
                << "n=" << n << " off=" << off << " i=" << i;
        }
    }
}

TEST_P(SimdVsScalar, Scal)
{
    const size_t n = GetParam();
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto x1 = nastyVec(n, 105);
        auto x2 = x1;
        scal(0.731f, x1.data() + off, n);
        scalar::scal(0.731f, x2.data() + off, n);
        for (size_t i = 0; i < n + kMaxOffset; ++i)
            ASSERT_EQ(x1[i], x2[i]) // one rounding each: bit-identical
                << "n=" << n << " off=" << off << " i=" << i;
    }
}

TEST_P(SimdVsScalar, Sum)
{
    const size_t n = GetParam();
    const auto x = nastyVec(n, 106);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        ASSERT_NEAR(sum(x.data() + off, n), scalar::sum(x.data() + off, n),
                    1e-5f * std::max<float>(n, 1.f))
            << "n=" << n << " off=" << off;
    }
}

TEST_P(SimdVsScalar, MaxElement)
{
    const size_t n = GetParam();
    if (n == 0)
        return; // empty input is a fatal precondition, tested elsewhere
    const auto x = nastyVec(n, 107);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        ASSERT_EQ(maxElement(x.data() + off, n),
                  scalar::maxElement(x.data() + off, n))
            << "n=" << n << " off=" << off;
    }
}

TEST_P(SimdVsScalar, ExpInplace)
{
    const size_t n = GetParam();
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto x1 = nastyVec(n, 108);
        // widen the argument range to hit under/overflow handling
        for (size_t i = 0; i < x1.size(); ++i)
            x1[i] *= (i % 3 == 0) ? 95.f : 10.f;
        auto x2 = x1;
        expInplace(x1.data() + off, n);
        scalar::expInplace(x2.data() + off, n);
        for (size_t i = 0; i < n + kMaxOffset; ++i) {
            if (i < off || i >= off + n) {
                ASSERT_EQ(x1[i], x2[i]) // outside the span: untouched
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            if (std::isinf(x2[i])) { // both overflow to +inf
                ASSERT_EQ(x1[i], x2[i])
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            // ~2 ulp relative, plus an absolute floor where the vector
            // exp flushes sub-e^-87.3 results to zero and libm returns
            // a denormal.
            ASSERT_NEAR(x1[i], x2[i], 2e-6f * x2[i] + 1e-37f)
                << "n=" << n << " off=" << off << " i=" << i;
        }
    }
}

TEST_P(SimdVsScalar, ExpShiftInplace)
{
    const size_t n = GetParam();
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto x1 = nastyVec(n, 109);
        for (float &v : x1)
            v = v * 50.f + 60.f; // logits in [10, 110]
        auto x2 = x1;
        expShiftInplace(x1.data() + off, n, 110.f);
        scalar::expShiftInplace(x2.data() + off, n, 110.f);
        for (size_t i = 0; i < n + kMaxOffset; ++i) {
            if (i < off || i >= off + n) {
                ASSERT_EQ(x1[i], x2[i]) // outside the span: untouched
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            ASSERT_NEAR(x1[i], x2[i], 2e-6f * x2[i] + 1e-37f)
                << "n=" << n << " off=" << off << " i=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimdVsScalar,
                         ::testing::ValuesIn(kSweepSizes));

TEST(Bf16Convert, RoundTripWithinRelativeBound)
{
    // Round-to-nearest-even on an 8-bit mantissa: the round-trip
    // error of any normal float is at most 2^-8 of its magnitude.
    const auto x = nastyVec(4096, 601, 0);
    for (float v : x) {
        const float rt = bf16ToFloat(bf16FromFloat(v));
        ASSERT_LE(std::abs(rt - v), std::abs(v) * 0x1p-8f) << "v=" << v;
    }
}

TEST(Bf16Convert, ExactValuesSurvive)
{
    // Values already representable in bf16 must round-trip exactly.
    for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f,
                    1.5f, 3.0f, 256.0f}) {
        const float rt = bf16ToFloat(bf16FromFloat(v));
        ASSERT_EQ(std::memcmp(&rt, &v, sizeof(float)), 0) << "v=" << v;
    }
}

TEST(Bf16Convert, SpecialsPropagate)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(bf16ToFloat(bf16FromFloat(inf)), inf);
    EXPECT_EQ(bf16ToFloat(bf16FromFloat(-inf)), -inf);
    EXPECT_TRUE(std::isnan(
        bf16ToFloat(bf16FromFloat(std::nanf("")))));
}

// ---------------------------------------------------------------------
// Knowledge-base streaming kernels. One body per operation serves all
// three row codecs, with one canonical accumulation order that both
// backends implement, so for every codec the dispatched kernel must
// match the scalar reference BIT-FOR-BIT (not just within tolerance),
// on any host, and results never depend on the query batch or on how
// a row sweep is split into calls — the property the engines rely on
// when they cut sweeps at strip and quantization-group boundaries.
// ---------------------------------------------------------------------

/** nastyVec rounded to bf16 storage. */
std::vector<uint16_t>
nastyVecBf16(size_t n, uint64_t seed)
{
    const auto f = nastyVec(n, seed, 0);
    std::vector<uint16_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = bf16FromFloat(f[i]);
    return v;
}

/** Deterministic int8 rows covering the full [-128, 127] range. */
std::vector<int8_t>
nastyVecI8(size_t n, uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<int8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<int8_t>(static_cast<int>(rng.below(256)) - 128);
    return v;
}

const RowCodec kCodecs[] = {RowCodec::F32, RowCodec::BF16, RowCodec::I8};

const char *
codecName(RowCodec c)
{
    return c == RowCodec::F32 ? "f32" : c == RowCodec::BF16 ? "bf16" : "i8";
}

/**
 * n stored elements in one codec from one seed — nastyVec for F32,
 * nastyVecBf16 for BF16, nastyVecI8 under (scale, zero) for I8 — and
 * typed views into them.
 */
struct StoredRows
{
    RowCodec codec;
    std::vector<float> f32;
    std::vector<uint16_t> bf16;
    std::vector<int8_t> i8;
    float scale, zero;

    StoredRows(RowCodec c, size_t n, uint64_t seed, float s = 0.0123f,
               float z = -0.456f)
        : codec(c), scale(s), zero(z)
    {
        if (c == RowCodec::F32)
            f32 = nastyVec(n, seed, 0);
        else if (c == RowCodec::BF16)
            bf16 = nastyVecBf16(n, seed);
        else
            i8 = nastyVecI8(n, seed);
    }

    /** View from element `at` on. */
    Rows
    at(size_t elem) const
    {
        if (codec == RowCodec::F32)
            return Rows(f32.data() + elem);
        if (codec == RowCodec::BF16)
            return Rows(bf16.data() + elem);
        return Rows(i8.data() + elem, scale, zero);
    }
};

/** e values are exp outputs: positive. */
std::vector<float>
expLike(size_t n, uint64_t seed)
{
    auto e = nastyVec(n, seed, 0);
    for (float &v : e)
        v = std::abs(v) + 1e-3f;
    return e;
}

void
expectDotMatchesScalar(RowCodec codec, uint64_t xseed, uint64_t rseed)
{
    const size_t d_cases[] = {0, 1, 7, 8, 9, 15, 16, 17, 64, 67, 129, 256};
    for (size_t d : d_cases) {
        const size_t stride = d + 3, xstride = d + 1;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                          size_t(8), size_t(9)}) {
            for (size_t count : {size_t(0), size_t(1), size_t(3),
                                 size_t(4), size_t(5), size_t(17),
                                 size_t(64)}) {
                const size_t ostride = count + 2;
                const auto x = nastyVec(nq * xstride, xseed, 0);
                const StoredRows rows(codec, count * stride, rseed);
                std::vector<float> got(nq * ostride, -9.f);
                std::vector<float> ref(nq * ostride, -9.f);

                dotBatchMulti(x.data(), nq, xstride, rows.at(0), count, d,
                              stride, got.data(), ostride);
                scalar::dotBatchMulti(x.data(), nq, xstride, rows.at(0),
                                      count, d, stride, ref.data(),
                                      ostride);

                for (size_t i = 0; i < got.size(); ++i)
                    ASSERT_EQ(got[i], ref[i])
                        << codecName(codec) << " d=" << d << " nq=" << nq
                        << " count=" << count << " i=" << i;
            }
        }
    }
}

TEST(DotBatchMulti, BitIdenticalToScalarReference)
{
    expectDotMatchesScalar(RowCodec::F32, 601, 602);
}

TEST(DotBatchMultiBf16, BitIdenticalToScalarReference)
{
    expectDotMatchesScalar(RowCodec::BF16, 611, 612);
}

TEST(DotBatchMultiI8, BitIdenticalToScalarReference)
{
    expectDotMatchesScalar(RowCodec::I8, 641, 642);
}

TEST(DotBatchMulti, BitIdenticalToPerQueryDotBatch)
{
    // Query-batch invariance: every (query, row) dot carries out the
    // same accumulation order whatever tile it lands in, so one call
    // over nq queries is bit-identical to nq single-query calls of the
    // same kernel — whichever backend dispatch resolved to.
    const size_t d = 129, stride = 133, xstride = 131;
    for (RowCodec codec : kCodecs) {
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                          size_t(8), size_t(9)}) {
            for (size_t count : {size_t(0), size_t(1), size_t(3),
                                 size_t(4), size_t(5), size_t(17),
                                 size_t(64)}) {
                const size_t ostride = count + 2; // padded: catch strays
                const auto x = nastyVec(nq * xstride, 501);
                const StoredRows rows(codec, count * stride, 502);
                std::vector<float> got(nq * ostride, -9.f);
                std::vector<float> ref(nq * ostride, -9.f);

                dotBatchMulti(x.data(), nq, xstride, rows.at(0), count, d,
                              stride, got.data(), ostride);
                for (size_t q = 0; q < nq; ++q)
                    dotBatchMulti(x.data() + q * xstride, 1, xstride,
                                  rows.at(0), count, d, stride,
                                  ref.data() + q * ostride, ostride);

                for (size_t i = 0; i < got.size(); ++i)
                    ASSERT_EQ(got[i], ref[i])
                        << codecName(codec) << " nq=" << nq
                        << " count=" << count << " i=" << i;
            }
        }
    }
}

void
expectDotSplitInvariant(RowCodec codec)
{
    // One call over [0, count) must equal a call over [0, c) plus a
    // call over [c, count) at ANY split point, and a sweep of 6-row
    // calls: scores are per-(q, r) independent.
    const size_t count = 37, nq = 5;
    for (size_t d : {size_t(64), size_t(129)}) {
        const auto x = nastyVec(nq * d, 645, 0);
        const StoredRows rows(codec, count * d, 646, 0.017f, 0.31f);
        std::vector<float> whole(nq * count, -9.f);
        dotBatchMulti(x.data(), nq, d, rows.at(0), count, d, d,
                      whole.data(), count);
        for (size_t c : {size_t(1), size_t(4), size_t(6), size_t(13),
                         size_t(36)}) {
            std::vector<float> split(nq * count, -9.f);
            if (c == 6) {
                for (size_t r = 0; r < count; r += c)
                    dotBatchMulti(x.data(), nq, d, rows.at(r * d),
                                  std::min(c, count - r), d, d,
                                  split.data() + r, count);
            } else {
                dotBatchMulti(x.data(), nq, d, rows.at(0), c, d, d,
                              split.data(), count);
                dotBatchMulti(x.data(), nq, d, rows.at(c * d), count - c,
                              d, d, split.data() + c, count);
            }
            for (size_t i = 0; i < whole.size(); ++i)
                ASSERT_EQ(split[i], whole[i])
                    << codecName(codec) << " d=" << d << " c=" << c
                    << " i=" << i;
        }
    }
}

TEST(DotBatchMulti, RowSweepSplitInvariant)
{
    expectDotSplitInvariant(RowCodec::F32);
}

TEST(DotBatchMultiBf16, RowSweepSplitInvariant)
{
    expectDotSplitInvariant(RowCodec::BF16);
}

TEST(DotBatchMultiI8, RowSweepSplitInvariant)
{
    expectDotSplitInvariant(RowCodec::I8);
}

TEST(DotBatchMultiBf16, MatchesWideningDoubleReference)
{
    // Accuracy (not just self-consistency): against a double-precision
    // dot over the upconverted rows the kernel is ordinary fp32
    // summation, so the usual O(d) rounding bound applies.
    const size_t d = 256, count = 33, nq = 4;
    const auto x = nastyVec(nq * d, 613, 0);
    const auto rows = nastyVecBf16(count * d, 614);
    std::vector<float> got(nq * count);
    dotBatchMulti(x.data(), nq, d, Rows(rows.data()), count, d, d,
                  got.data(), count);
    for (size_t q = 0; q < nq; ++q) {
        for (size_t r = 0; r < count; ++r) {
            double ref = 0.0;
            for (size_t i = 0; i < d; ++i)
                ref += double(x[q * d + i])
                     * double(bf16ToFloat(rows[r * d + i]));
            ASSERT_NEAR(got[q * count + r], ref, 1e-5 * d)
                << "q=" << q << " r=" << r;
        }
    }
}

TEST(DotBatchMultiI8, MatchesWideningDoubleReference)
{
    // Accuracy against a double-precision dot over the dequantized
    // rows: the kernel computes fma(scale, rawdot, zero * qsum) with
    // fp32 rawdot/qsum accumulation, so the usual O(d) rounding bound
    // applies — scaled by the row magnitudes (|q| <= 128).
    const size_t d = 256, count = 33, nq = 4;
    const float scale = 0.0123f, zero = -0.456f;
    const auto x = nastyVec(nq * d, 643, 0);
    const auto rows = nastyVecI8(count * d, 644);
    std::vector<float> got(nq * count);
    dotBatchMultiI8(x.data(), nq, d, rows.data(), count, d, d, scale,
                    zero, got.data(), count);
    for (size_t q = 0; q < nq; ++q) {
        for (size_t r = 0; r < count; ++r) {
            double ref = 0.0;
            for (size_t i = 0; i < d; ++i)
                ref += double(x[q * d + i])
                     * (double(scale) * rows[r * d + i] + double(zero));
            ASSERT_NEAR(got[q * count + r], ref, 1e-4 * d)
                << "q=" << q << " r=" << r;
        }
    }
}

void
expectWeightedSumMatchesScalar(RowCodec codec, uint64_t seed)
{
    // Batch sizes cross the kWsumQueryTile dispatch split; the scalar
    // reference takes any ne, so no tiling is needed there.
    const size_t d = 65, stride = 67;
    for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                      kWsumQueryTile, kWsumQueryTile + 1,
                      2 * kWsumQueryTile + 1}) {
        for (float threshold : {0.0f, 0.05f, 0.5f}) {
            for (size_t count : {size_t(0), size_t(1), size_t(7),
                                 size_t(100)}) {
                const size_t estride = count + 3;
                const size_t accstride = d + 5;
                const auto e = expLike(nq * estride, seed);
                const StoredRows rows(codec, count * stride, seed + 1);

                auto acc1 = nastyVec(nq * accstride, seed + 2, 0);
                auto acc2 = acc1;
                std::vector<double> s1(nq), s2(nq);
                for (size_t q = 0; q < nq; ++q)
                    s1[q] = s2[q] = 0.25 * double(q);
                uint64_t kept1 = 0, skip1 = 0, kept2 = 0, skip2 = 0;

                weightedSumSkipMulti(e.data(), nq, estride, rows.at(0),
                                     count, d, stride, threshold,
                                     s1.data(), acc1.data(), accstride,
                                     kept1, skip1);
                scalar::weightedSumSkipMulti(
                    e.data(), nq, estride, rows.at(0), count, d, stride,
                    threshold, s2.data(), acc2.data(), accstride, kept2,
                    skip2);

                ASSERT_EQ(kept1, kept2)
                    << codecName(codec) << " nq=" << nq
                    << " th=" << threshold << " count=" << count;
                ASSERT_EQ(skip1, skip2);
                ASSERT_EQ(kept1 + skip1, uint64_t(nq) * count);
                for (size_t q = 0; q < nq; ++q)
                    ASSERT_EQ(s1[q], s2[q]) << "nq=" << nq << " q=" << q;
                for (size_t i = 0; i < acc1.size(); ++i)
                    ASSERT_EQ(acc1[i], acc2[i])
                        << codecName(codec) << " nq=" << nq
                        << " th=" << threshold << " count=" << count
                        << " i=" << i;
            }
        }
    }
}

TEST(WeightedSumSkipMulti, BitIdenticalToScalarReference)
{
    expectWeightedSumMatchesScalar(RowCodec::F32, 681);
}

TEST(WeightedSumSkipMultiBf16, BitIdenticalToScalarReference)
{
    expectWeightedSumMatchesScalar(RowCodec::BF16, 621);
}

TEST(WeightedSumSkipMultiI8, BitIdenticalToScalarReference)
{
    expectWeightedSumMatchesScalar(RowCodec::I8, 651);
}

TEST(WeightedSumSkipMulti, BitIdenticalToPerQuerySweep)
{
    // Query-batch invariance for the weighted sum: per-(query, row)
    // skip decisions, running sums and accumulator bits of one
    // nq-query call must match nq single-query calls of the same
    // kernel (which take the backend's single-query path). Batch sizes
    // cross the kWsumQueryTile dispatch split.
    const size_t d = 65, stride = 67;
    for (RowCodec codec : kCodecs) {
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                          kWsumQueryTile, kWsumQueryTile + 1,
                          2 * kWsumQueryTile + 1}) {
            for (float threshold : {0.0f, 0.05f, 0.5f}) {
                for (size_t count : {size_t(0), size_t(1), size_t(7),
                                     size_t(100)}) {
                    const size_t estride = count + 3;
                    const size_t accstride = d + 5;
                    const auto e = expLike(nq * estride, 503);
                    const StoredRows rows(codec, count * stride, 504);

                    auto acc1 = nastyVec(nq * accstride, 505);
                    auto acc2 = acc1;
                    std::vector<double> s1(nq), s2(nq);
                    for (size_t q = 0; q < nq; ++q)
                        s1[q] = s2[q] = 0.25 * double(q);
                    uint64_t kept1 = 0, skip1 = 0, kept2 = 0, skip2 = 0;

                    weightedSumSkipMulti(e.data(), nq, estride,
                                         rows.at(0), count, d, stride,
                                         threshold, s1.data(),
                                         acc1.data(), accstride, kept1,
                                         skip1);
                    for (size_t q = 0; q < nq; ++q)
                        weightedSumSkipMulti(
                            e.data() + q * estride, 1, estride,
                            rows.at(0), count, d, stride, threshold,
                            s2.data() + q, acc2.data() + q * accstride,
                            accstride, kept2, skip2);

                    ASSERT_EQ(kept1, kept2)
                        << codecName(codec) << " nq=" << nq
                        << " th=" << threshold << " count=" << count;
                    ASSERT_EQ(skip1, skip2);
                    ASSERT_EQ(kept1 + skip1, uint64_t(nq) * count);
                    for (size_t q = 0; q < nq; ++q)
                        ASSERT_EQ(s1[q], s2[q])
                            << "nq=" << nq << " q=" << q;
                    for (size_t i = 0; i < acc1.size(); ++i)
                        ASSERT_EQ(acc1[i], acc2[i])
                            << codecName(codec) << " nq=" << nq
                            << " th=" << threshold << " count=" << count
                            << " i=" << i;
                }
            }
        }
    }
}

TEST(WeightedSumSkipMulti, ZeroThresholdKeepsEverything)
{
    // Threshold 0 is the dense weighted sum: every row is kept for
    // every query, and each running sum is exactly the serial double
    // sum of that query's e values.
    const size_t d = 16, count = 50, nq = 3;
    const auto e = expLike(nq * count, 303);
    for (RowCodec codec : kCodecs) {
        const StoredRows rows(codec, count * d, 304);
        std::vector<float> acc(nq * d, 0.f);
        std::vector<double> s(nq, 0.0);
        uint64_t kept = 0, skipped = 0;
        weightedSumSkipMulti(e.data(), nq, count, rows.at(0), count, d, d,
                             0.f, s.data(), acc.data(), d, kept, skipped);
        EXPECT_EQ(kept, nq * count) << codecName(codec);
        EXPECT_EQ(skipped, 0u) << codecName(codec);
        for (size_t q = 0; q < nq; ++q) {
            double eref = 0.0;
            for (size_t i = 0; i < count; ++i)
                eref += e[q * count + i];
            EXPECT_EQ(s[q], eref) << codecName(codec) << " q=" << q;
        }
    }
}

void
expectSkipDecisionsMatchF32(RowCodec codec, uint64_t seed)
{
    // The skip test is scalar double arithmetic on the e values in
    // every codec — rows never enter the decision — so kept and
    // skipped counts must agree exactly with the fp32 rows on the same
    // e matrix.
    const size_t d = 32, count = 200, nq = 5;
    const auto e = expLike(nq * count, seed);
    const StoredRows rows(codec, count * d, seed + 1, 0.01f, -0.2f);
    const auto rows32 = nastyVec(count * d, seed + 2, 0);
    for (float threshold : {0.01f, 0.1f}) {
        std::vector<float> a1(nq * d, 0.f), a2(nq * d, 0.f);
        std::vector<double> s1(nq, 0.0), s2(nq, 0.0);
        uint64_t kept1 = 0, skip1 = 0, kept2 = 0, skip2 = 0;
        weightedSumSkipMulti(e.data(), nq, count, rows.at(0), count, d, d,
                             threshold, s1.data(), a1.data(), d, kept1,
                             skip1);
        weightedSumSkipMulti(e.data(), nq, count, rows32.data(), count, d,
                             d, threshold, s2.data(), a2.data(), d, kept2,
                             skip2);
        ASSERT_EQ(kept1, kept2) << "th=" << threshold;
        ASSERT_EQ(skip1, skip2) << "th=" << threshold;
        for (size_t q = 0; q < nq; ++q)
            ASSERT_EQ(s1[q], s2[q]) << "q=" << q;
    }
}

TEST(WeightedSumSkipMultiBf16, SkipDecisionsMatchFp32Kernel)
{
    expectSkipDecisionsMatchF32(RowCodec::BF16, 631);
}

TEST(WeightedSumSkipMultiI8, SkipDecisionsMatchFp32Kernel)
{
    expectSkipDecisionsMatchF32(RowCodec::I8, 661);
}

void
expectWeightedSumSplitInvariant(RowCodec codec)
{
    // Splitting the row range into consecutive calls (threading the
    // running sums through) must reproduce the single-call result
    // exactly: rows are processed in ascending order and the skip
    // state is entirely in running_sums.
    const size_t d = 48, count = 61, nq = 3;
    const float threshold = 0.05f;
    const auto e = expLike(nq * count, 671);
    const StoredRows rows(codec, count * d, 672, 0.02f, 0.1f);

    std::vector<float> a1(nq * d, 0.f);
    std::vector<double> s1(nq, 0.0);
    uint64_t kept1 = 0, skip1 = 0;
    weightedSumSkipMulti(e.data(), nq, count, rows.at(0), count, d, d,
                         threshold, s1.data(), a1.data(), d, kept1, skip1);

    for (size_t c : {size_t(1), size_t(8), size_t(30), size_t(60)}) {
        std::vector<float> a2(nq * d, 0.f);
        std::vector<double> s2(nq, 0.0);
        uint64_t kept2 = 0, skip2 = 0;
        weightedSumSkipMulti(e.data(), nq, count, rows.at(0), c, d, d,
                             threshold, s2.data(), a2.data(), d, kept2,
                             skip2);
        weightedSumSkipMulti(e.data() + c, nq, count, rows.at(c * d),
                             count - c, d, d, threshold, s2.data(),
                             a2.data(), d, kept2, skip2);
        ASSERT_EQ(kept2, kept1) << codecName(codec) << " c=" << c;
        ASSERT_EQ(skip2, skip1) << codecName(codec) << " c=" << c;
        for (size_t q = 0; q < nq; ++q)
            ASSERT_EQ(s2[q], s1[q]) << "c=" << c << " q=" << q;
        for (size_t i = 0; i < a1.size(); ++i)
            ASSERT_EQ(a2[i], a1[i])
                << codecName(codec) << " c=" << c << " i=" << i;
    }
}

TEST(WeightedSumSkipMulti, RowSweepSplitInvariant)
{
    expectWeightedSumSplitInvariant(RowCodec::F32);
}

TEST(WeightedSumSkipMultiBf16, RowSweepSplitInvariant)
{
    expectWeightedSumSplitInvariant(RowCodec::BF16);
}

TEST(WeightedSumSkipMultiI8, RowSweepSplitInvariant)
{
    expectWeightedSumSplitInvariant(RowCodec::I8);
}

// ---------------------------------------------------------------------
// int8 ingest kernels (core::KnowledgeBase's I8 append path). Both are
// bit-identical between backends by contract, including the sign of a
// zero extremum, round-half-even ties and every lrintf overflow case.
// ---------------------------------------------------------------------

uint32_t
bitsOf(float v)
{
    uint32_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

TEST(FiniteRangeI8, BitIdenticalToScalarReference)
{
    const size_t n_cases[] = {1, 7, 8, 9, 15, 16, 17, 64, 67, 129};
    for (size_t n : n_cases) {
        for (uint64_t seed : {701u, 702u, 703u}) {
            XorShiftRng rng(seed);
            std::vector<float> x(n);
            // Mixed-sign zeros compete for both extrema whenever the
            // draw is non-positive / non-negative throughout.
            const float span = seed == 703u ? 0.f : 3.f;
            const float sign = seed == 702u ? -1.f : 1.f;
            for (float &v : x)
                v = rng.below(3) == 0 ? (rng.below(2) ? 0.f : -0.f)
                                      : sign * rng.uniformRange(0.f, span);
            float lo = 9.f, hi = 9.f, rlo = 7.f, rhi = 7.f;
            ASSERT_TRUE(finiteRangeI8(x.data(), n, lo, hi));
            ASSERT_TRUE(scalar::finiteRangeI8(x.data(), n, rlo, rhi));
            ASSERT_EQ(bitsOf(lo), bitsOf(rlo)) << "n=" << n << " " << seed;
            ASSERT_EQ(bitsOf(hi), bitsOf(rhi)) << "n=" << n << " " << seed;
            EXPECT_EQ(lo, *std::min_element(x.begin(), x.end()));
            EXPECT_EQ(hi, *std::max_element(x.begin(), x.end()));
        }
    }
}

TEST(FiniteRangeI8, RejectsAnyNonFiniteElement)
{
    // Every position — 8-lane body and scalar tail — for each kind of
    // non-finite value. A NaN never wins a min/max comparison, so the
    // check cannot be read off the extrema.
    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity()};
    for (size_t n : {size_t(1), size_t(7), size_t(8), size_t(13),
                     size_t(24)}) {
        for (size_t at = 0; at < n; ++at) {
            for (float b : bad) {
                auto x = randomVec(n, 710 + n);
                x[at] = b;
                float lo, hi;
                EXPECT_FALSE(finiteRangeI8(x.data(), n, lo, hi))
                    << "n=" << n << " at=" << at << " v=" << b;
                EXPECT_FALSE(scalar::finiteRangeI8(x.data(), n, lo, hi))
                    << "n=" << n << " at=" << at << " v=" << b;
            }
        }
    }
}

TEST(QuantizeI8, RoundsHalfToEvenAndClampsLikeLrintf)
{
    // scale 0.5, zero 0: (x - zero) / scale == 2x exactly, so these
    // inputs land on exact .5 ties and on both clamp edges.
    const float scale = 0.5f, zero = 0.f;
    const float x[] = {0.25f,   0.75f,   -0.25f,  -0.75f, 63.25f,
                       63.5f,   63.75f,  64.f,    -64.f,  -64.25f,
                       -64.75f, 63.74f,  -65.f};
    const int expect[] = {0,    2,   0,    -2,   126, 127, 127,
                          127,  -128, -128, -128, 127, -128};
    const size_t n = std::size(x);
    std::vector<int8_t> q(n, 55);
    quantizeI8(x, n, scale, zero, q.data());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(int(q[i]), expect[i]) << "x=" << x[i];
}

TEST(QuantizeI8, BitIdenticalToScalarReference)
{
    constexpr float inf = std::numeric_limits<float>::infinity();
    // Ties, clamp edges, and lrintf's overflow cases (NaN, +-inf and
    // |v| >= 2^63, which lrintf maps to LONG_MIN -> -128) on top of a
    // random row, at every body/tail split.
    const float specials[] = {0.25f,  0.75f,  63.25f, 63.75f, -64.25f,
                              -64.75f, 63.5f, -64.f,  1e19f,  -1e19f,
                              4e18f,  -4e18f, inf,    -inf,
                              std::numeric_limits<float>::quiet_NaN()};
    for (size_t n : {size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(15), size_t(16), size_t(17), size_t(64),
                     size_t(67), size_t(200)}) {
        auto x = randomVec(n, 720 + n);
        for (float &v : x)
            v *= 40.f;
        for (size_t i = 0; i < n; i += 2)
            x[i] = specials[(i / 2) % std::size(specials)];
        for (const auto &[scale, zero] :
             {std::pair{0.5f, 0.f}, std::pair{0.0123f, -0.456f},
              std::pair{1e-3f, 10.f}, std::pair{0.f, 3.f}}) {
            std::vector<int8_t> got(n, 55), ref(n, 66);
            quantizeI8(x.data(), n, scale, zero, got.data());
            scalar::quantizeI8(x.data(), n, scale, zero, ref.data());
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(int(got[i]), int(ref[i]))
                    << "n=" << n << " scale=" << scale << " i=" << i
                    << " x=" << x[i];
        }
    }
    // A zero scale is the constant chunk: every code is 0.
    const auto x = randomVec(19, 730);
    std::vector<int8_t> q(19, 55);
    quantizeI8(x.data(), x.size(), 0.f, 1.f, q.data());
    for (int8_t v : q)
        EXPECT_EQ(int(v), 0);
}

} // namespace
} // namespace mnnfast::blas
