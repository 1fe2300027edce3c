/**
 * @file
 * Internal kernel-backend table and row-codec helpers shared between
 * the dispatch layer (kernels.cc) and the backend translation units.
 * Not installed; include only from src/blas.
 */

#ifndef MNNFAST_BLAS_KERNELS_DETAIL_HH
#define MNNFAST_BLAS_KERNELS_DETAIL_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "blas/kernels.hh"
#include "util/bf16.hh"

namespace mnnfast::blas::detail {

/** One full set of kernel entry points (see kernels.hh for contracts). */
struct KernelTable
{
    const char *name;
    float (*dot)(const float *, const float *, size_t);
    void (*axpy)(float, const float *, float *, size_t);
    void (*scal)(float, float *, size_t);
    float (*sum)(const float *, size_t);
    float (*maxElement)(const float *, size_t);
    void (*dotBatchMulti)(const float *, size_t, size_t, const Rows &,
                          size_t, size_t, size_t, float *, size_t);
    /** Query tile bounded by blas::kWsumQueryTile (dispatch splits). */
    void (*weightedSumSkipMulti)(const float *, size_t, size_t,
                                 const Rows &, size_t, size_t, size_t,
                                 float, double *, float *, size_t,
                                 uint64_t &, uint64_t &);
    bool (*finiteRangeI8)(const float *, size_t, float &, float &);
    void (*quantizeI8)(const float *, size_t, float, float, int8_t *);
    void (*chunkBoundBatch)(const float *, size_t, size_t,
                            const float *, const float *, size_t,
                            size_t, size_t, float *, size_t);
    void (*expInplace)(float *, size_t);
    void (*expShiftInplace)(float *, size_t, float);
};

/**
 * The AVX2+FMA backend, or nullptr when the translation unit was built
 * without AVX2 support or the host CPU lacks the features. Defined in
 * kernels_avx2.cc (which is compiled with -mavx2 -mfma on x86-64 and
 * degrades to a nullptr stub elsewhere).
 */
const KernelTable *avx2Kernels();

// --- row codecs -------------------------------------------------------
//
// A codec is the stored element type: float (F32), uint16_t (BF16) or
// int8_t (I8). The kernel bodies are templates over it; these helpers
// are the only per-codec arithmetic, shared by both backends.

/** Exact widening of one stored element to fp32. */
inline float widen(float v) { return v; }
inline float widen(uint16_t v) { return bf16ToFloat(v); }
inline float widen(int8_t v) { return static_cast<float>(v); }

/** True for codecs stored under an affine (scale, zero) code. */
template <class T>
inline constexpr bool kAffine = std::is_same_v<T, int8_t>;

/** One stored element as the fp32 value it encodes. */
template <class T>
inline float
dequant(T v, float scale, float zero)
{
    if constexpr (kAffine<T>)
        return std::fma(scale, widen(v), zero);
    else
        return widen(v);
}

/**
 * A canonical raw dot as the stored row's value: the factored affine
 * combine fma(scale, raw, qs) for I8 (qs = zero * qsum(x)), the raw
 * dot itself otherwise.
 */
template <class T>
inline float
finishDot(float raw, float scale, float qs)
{
    if constexpr (kAffine<T>)
        return std::fma(scale, raw, qs);
    else
        return raw;
}

/**
 * Call f with the view's first row as a typed pointer: the one place a
 * codec picks a kernel-body instantiation.
 */
template <class F>
inline void
withRowType(const Rows &rows, F &&f)
{
    switch (rows.codec) {
      case RowCodec::F32:
        f(static_cast<const float *>(rows.data));
        return;
      case RowCodec::BF16:
        f(static_cast<const uint16_t *>(rows.data));
        return;
      case RowCodec::I8:
        f(static_cast<const int8_t *>(rows.data));
        return;
    }
}

} // namespace mnnfast::blas::detail

#endif // MNNFAST_BLAS_KERNELS_DETAIL_HH
