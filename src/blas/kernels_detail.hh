/**
 * @file
 * Internal kernel-backend table shared between the dispatch layer
 * (kernels.cc) and the SIMD translation units. Not installed; include
 * only from src/blas.
 */

#ifndef MNNFAST_BLAS_KERNELS_DETAIL_HH
#define MNNFAST_BLAS_KERNELS_DETAIL_HH

#include <cstddef>
#include <cstdint>

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
    void (*dotBatch)(const float *, const float *, size_t, size_t,
                     size_t, float *);
    void (*dotBatchMulti)(const float *, size_t, size_t, const float *,
                          size_t, size_t, size_t, float *, size_t);
    void (*weightedSumSkip)(const float *, const float *, size_t, size_t,
                            size_t, float, double &, float *, uint64_t &,
                            uint64_t &);
    /** Query tile bounded by blas::kWsumQueryTile (dispatch splits). */
    void (*weightedSumSkipMulti)(const float *, size_t, size_t,
                                 const float *, size_t, size_t, size_t,
                                 float, double *, float *, size_t,
                                 uint64_t &, uint64_t &);
    void (*dotBatchMultiBf16)(const float *, size_t, size_t,
                              const uint16_t *, size_t, size_t, size_t,
                              float *, size_t);
    /** Query tile bounded by blas::kWsumQueryTile (dispatch splits). */
    void (*weightedSumSkipMultiBf16)(const float *, size_t, size_t,
                                     const uint16_t *, size_t, size_t,
                                     size_t, float, double *, float *,
                                     size_t, uint64_t &, uint64_t &);
    void (*dotBatchMultiI8)(const float *, size_t, size_t,
                            const int8_t *, size_t, size_t, size_t,
                            float, float, float *, size_t);
    /** Query tile bounded by blas::kWsumQueryTile (dispatch splits). */
    void (*weightedSumSkipMultiI8)(const float *, size_t, size_t,
                                   const int8_t *, size_t, size_t,
                                   size_t, float, float, float,
                                   double *, float *, size_t,
                                   uint64_t &, uint64_t &);
    bool (*finiteRangeI8)(const float *, size_t, float &, float &);
    void (*quantizeI8)(const float *, size_t, float, float, int8_t *);
    void (*chunkBoundBatch)(const float *, size_t, size_t,
                            const float *, const float *, size_t,
                            size_t, size_t, float *, size_t);
    void (*gemm)(const float *, const float *, float *, size_t, size_t,
                 size_t, bool);
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

} // namespace mnnfast::blas::detail

#endif // MNNFAST_BLAS_KERNELS_DETAIL_HH
