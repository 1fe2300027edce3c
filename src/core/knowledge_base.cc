#include "core/knowledge_base.hh"

#include <algorithm>
#include <cstring>

#include "blas/kernels.hh"
#include "util/bf16.hh"
#include "util/logging.hh"

namespace mnnfast::core {

const char *
precisionName(Precision p)
{
    switch (p) {
      case Precision::F32: return "f32";
      case Precision::BF16: return "bf16";
      case Precision::I8: return "i8";
    }
    panic("unknown Precision %d", static_cast<int>(p));
}

size_t
precisionBytes(Precision p)
{
    switch (p) {
      case Precision::F32: return sizeof(float);
      case Precision::BF16: return sizeof(uint16_t);
      case Precision::I8: return sizeof(int8_t);
    }
    panic("unknown Precision %d", static_cast<int>(p));
}

KnowledgeBase::KnowledgeBase(size_t embedding_dim, Precision precision,
                             size_t i8_chunk_rows)
    : ed(embedding_dim), prec(precision), qchunk(i8_chunk_rows)
{
    if (ed == 0)
        fatal("KnowledgeBase embedding dimension must be nonzero");
    if (prec == Precision::I8 && qchunk == 0)
        fatal("KnowledgeBase I8 chunk rows must be nonzero");
}

void
KnowledgeBase::reserve(size_t ns)
{
    if (viewed)
        fatal("reserve() on a knowledge-base view");
    if (ns > capacity)
        grow(ns);
}

void
KnowledgeBase::clear()
{
    if (viewed)
        fatal("clear() on a knowledge-base view");
    count = 0;
    minScaleV.clear();
    minZeroV.clear();
    moutScaleV.clear();
    moutZeroV.clear();
}

KnowledgeBase
KnowledgeBase::view(size_t row_begin, size_t row_end) const
{
    if (row_begin >= row_end || row_end > count)
        fatal("knowledge-base view [%zu, %zu) outside [0, %zu)",
              row_begin, row_end, count);
    KnowledgeBase v(ed, prec, qchunk);
    v.viewed = true;
    v.count = row_end - row_begin;
    switch (prec) {
      case Precision::F32:
        v.vmin = minData() + row_begin * ed;
        v.vmout = moutData() + row_begin * ed;
        break;
      case Precision::BF16:
        v.vmin16 = minData16() + row_begin * ed;
        v.vmout16 = moutData16() + row_begin * ed;
        break;
      case Precision::I8:
        v.vmin8 = minData8() + row_begin * ed;
        v.vmout8 = moutData8() + row_begin * ed;
        v.vminScale = minScalesPtr();
        v.vminZero = minZerosPtr();
        v.vmoutScale = moutScalesPtr();
        v.vmoutZero = moutZerosPtr();
        v.vrowOff = vrowOff + row_begin;
        break;
    }
    return v;
}

void
KnowledgeBase::grow(size_t min_capacity)
{
    const size_t new_cap = std::max(min_capacity,
                                    std::max<size_t>(16, capacity * 2));
    switch (prec) {
      case Precision::F32: {
        AlignedBuffer<float> new_min(new_cap * ed);
        AlignedBuffer<float> new_mout(new_cap * ed);
        if (count > 0) {
            std::memcpy(new_min.data(), min.data(),
                        count * ed * sizeof(float));
            std::memcpy(new_mout.data(), mout.data(),
                        count * ed * sizeof(float));
        }
        min = std::move(new_min);
        mout = std::move(new_mout);
        break;
      }
      case Precision::BF16: {
        AlignedBuffer<uint16_t> new_min(new_cap * ed);
        AlignedBuffer<uint16_t> new_mout(new_cap * ed);
        if (count > 0) {
            std::memcpy(new_min.data(), min16.data(),
                        count * ed * sizeof(uint16_t));
            std::memcpy(new_mout.data(), mout16.data(),
                        count * ed * sizeof(uint16_t));
        }
        min16 = std::move(new_min);
        mout16 = std::move(new_mout);
        break;
      }
      case Precision::I8: {
        AlignedBuffer<int8_t> new_min(new_cap * ed);
        AlignedBuffer<int8_t> new_mout(new_cap * ed);
        if (count > 0) {
            std::memcpy(new_min.data(), min8.data(), count * ed);
            std::memcpy(new_mout.data(), mout8.data(), count * ed);
        }
        min8 = std::move(new_min);
        mout8 = std::move(new_mout);
        break;
      }
    }
    capacity = new_cap;
}

void
KnowledgeBase::addSentence(const float *min_row, const float *mout_row)
{
    if (viewed)
        fatal("addSentence() on a knowledge-base view");
    if (count == capacity)
        grow(count + 1);
    switch (prec) {
      case Precision::F32:
        std::memcpy(min.data() + count * ed, min_row,
                    ed * sizeof(float));
        std::memcpy(mout.data() + count * ed, mout_row,
                    ed * sizeof(float));
        break;
      case Precision::BF16: {
        uint16_t *mi = min16.data() + count * ed;
        uint16_t *mo = mout16.data() + count * ed;
        for (size_t e = 0; e < ed; ++e) {
            mi[e] = bf16FromFloat(min_row[e]);
            mo[e] = bf16FromFloat(mout_row[e]);
        }
        break;
      }
      case Precision::I8: {
        if (tailMin.empty()) {
            tailMin.resize(qchunk * ed);
            tailMout.resize(qchunk * ed);
        }
        const size_t k = count % qchunk; // row within the tail chunk
        if (k == 0) { // starting a fresh quantization chunk
            minScaleV.push_back(0.f);
            minZeroV.push_back(0.f);
            moutScaleV.push_back(0.f);
            moutZeroV.push_back(0.f);
        }
        const size_t c = count / qchunk;
        // Ingest one matrix: stage the fp32 row, and either quantize
        // just this row under the chunk's frozen-so-far code, or —
        // when the row extends the chunk's element range — recompute
        // the code and requantize the whole staged tail chunk so the
        // stored bytes match a from-scratch quantization.
        auto ingest = [&](const float *row, std::vector<float> &staged,
                          AlignedBuffer<int8_t> &store,
                          std::vector<float> &scales,
                          std::vector<float> &zeros, float &lo,
                          float &hi) {
            float *slot = staged.data() + k * ed;
            std::memcpy(slot, row, ed * sizeof(float));
            float rlo, rhi;
            if (!blas::finiteRangeI8(row, ed, rlo, rhi))
                fatal("I8 knowledge bases require finite embeddings");
            int8_t *base = store.data() + (count - k) * ed;
            if (k == 0 || rlo < lo || rhi > hi) {
                lo = (k == 0) ? rlo : std::min(lo, rlo);
                hi = (k == 0) ? rhi : std::max(hi, rhi);
                const float scale =
                    (hi > lo) ? (hi - lo) / 255.f : 0.f;
                const float zero = lo + 128.f * scale;
                scales[c] = scale;
                zeros[c] = zero;
                // Staged and stored rows are both contiguous, so the
                // whole tail chunk requantizes in one kernel call.
                blas::quantizeI8(staged.data(), (k + 1) * ed, scale,
                                 zero, base);
            } else {
                blas::quantizeI8(slot, ed, scales[c], zeros[c],
                                 base + k * ed);
            }
        };
        ingest(min_row, tailMin, min8, minScaleV, minZeroV, minLo,
               minHi);
        ingest(mout_row, tailMout, mout8, moutScaleV, moutZeroV,
               moutLo, moutHi);
        break;
      }
    }
    ++count;
}

const float *
KnowledgeBase::minData() const
{
    mnn_assert(prec == Precision::F32,
               "minData() on a non-F32 knowledge base");
    return viewed ? vmin : min.data();
}

const float *
KnowledgeBase::moutData() const
{
    mnn_assert(prec == Precision::F32,
               "moutData() on a non-F32 knowledge base");
    return viewed ? vmout : mout.data();
}

const uint16_t *
KnowledgeBase::minData16() const
{
    mnn_assert(prec == Precision::BF16,
               "minData16() on a non-BF16 knowledge base");
    return viewed ? vmin16 : min16.data();
}

const uint16_t *
KnowledgeBase::moutData16() const
{
    mnn_assert(prec == Precision::BF16,
               "moutData16() on a non-BF16 knowledge base");
    return viewed ? vmout16 : mout16.data();
}

const float *
KnowledgeBase::minRow(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minData() + i * ed;
}

const float *
KnowledgeBase::moutRow(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutData() + i * ed;
}

const uint16_t *
KnowledgeBase::minRow16(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minData16() + i * ed;
}

const uint16_t *
KnowledgeBase::moutRow16(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutData16() + i * ed;
}

const int8_t *
KnowledgeBase::minData8() const
{
    mnn_assert(prec == Precision::I8,
               "minData8() on a non-I8 knowledge base");
    return viewed ? vmin8 : min8.data();
}

const int8_t *
KnowledgeBase::moutData8() const
{
    mnn_assert(prec == Precision::I8,
               "moutData8() on a non-I8 knowledge base");
    return viewed ? vmout8 : mout8.data();
}

const int8_t *
KnowledgeBase::minRow8(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minData8() + i * ed;
}

const int8_t *
KnowledgeBase::moutRow8(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutData8() + i * ed;
}

size_t
KnowledgeBase::i8ChunkRows() const
{
    mnn_assert(prec == Precision::I8,
               "i8ChunkRows() on a non-I8 knowledge base");
    return qchunk;
}

const float *
KnowledgeBase::minScalesPtr() const
{
    mnn_assert(prec == Precision::I8,
               "minScale() on a non-I8 knowledge base");
    return viewed ? vminScale : minScaleV.data();
}

const float *
KnowledgeBase::minZerosPtr() const
{
    mnn_assert(prec == Precision::I8,
               "minZero() on a non-I8 knowledge base");
    return viewed ? vminZero : minZeroV.data();
}

const float *
KnowledgeBase::moutScalesPtr() const
{
    mnn_assert(prec == Precision::I8,
               "moutScale() on a non-I8 knowledge base");
    return viewed ? vmoutScale : moutScaleV.data();
}

const float *
KnowledgeBase::moutZerosPtr() const
{
    mnn_assert(prec == Precision::I8,
               "moutZero() on a non-I8 knowledge base");
    return viewed ? vmoutZero : moutZeroV.data();
}

float
KnowledgeBase::minScale(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minScalesPtr()[(vrowOff + i) / qchunk];
}

float
KnowledgeBase::minZero(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minZerosPtr()[(vrowOff + i) / qchunk];
}

float
KnowledgeBase::moutScale(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutScalesPtr()[(vrowOff + i) / qchunk];
}

float
KnowledgeBase::moutZero(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutZerosPtr()[(vrowOff + i) / qchunk];
}

size_t
KnowledgeBase::i8GroupEnd(size_t i) const
{
    mnn_assert(prec == Precision::I8,
               "i8GroupEnd() on a non-I8 knowledge base");
    mnn_assert(i < count, "i8GroupEnd row out of range");
    const size_t next = ((vrowOff + i) / qchunk + 1) * qchunk;
    return std::min(next - vrowOff, count);
}

size_t
KnowledgeBase::groupEnd(size_t i) const
{
    return prec == Precision::I8 ? i8GroupEnd(i) : count;
}

blas::Rows
KnowledgeBase::minRows(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    switch (prec) {
      case Precision::F32:
        return blas::Rows(minData() + i * ed);
      case Precision::BF16:
        return blas::Rows(minData16() + i * ed);
      case Precision::I8:
        return blas::Rows(minData8() + i * ed, minScale(i), minZero(i));
    }
    panic("unknown Precision %d", static_cast<int>(prec));
}

blas::Rows
KnowledgeBase::moutRows(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    switch (prec) {
      case Precision::F32:
        return blas::Rows(moutData() + i * ed);
      case Precision::BF16:
        return blas::Rows(moutData16() + i * ed);
      case Precision::I8:
        return blas::Rows(moutData8() + i * ed, moutScale(i),
                          moutZero(i));
    }
    panic("unknown Precision %d", static_cast<int>(prec));
}

} // namespace mnnfast::core
