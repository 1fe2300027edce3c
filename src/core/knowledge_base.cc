#include "core/knowledge_base.hh"

#include <algorithm>
#include <cstring>
#include <utility>

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
    for (Matrix *m : {&in, &out})
        m->codes.clear();
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
    v.vrowOff = vrowOff + row_begin;
    for (auto [dst, src] :
         {std::pair{&v.in, &in}, std::pair{&v.out, &out}}) {
        dst->rows = src->rows + row_begin * ed * elemBytes();
        dst->vcodes = codesOf(*src);
    }
    return v;
}

void
KnowledgeBase::grow(size_t min_capacity)
{
    const size_t new_cap = std::max(min_capacity,
                                    std::max<size_t>(16, capacity * 2));
    const size_t row_bytes = ed * elemBytes();
    for (Matrix *m : {&in, &out}) {
        AlignedBuffer<uint8_t> bigger(new_cap * row_bytes);
        if (count > 0)
            std::memcpy(bigger.data(), m->store.data(), count * row_bytes);
        m->store = std::move(bigger);
        m->rows = m->store.data();
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
    encode(in, min_row);
    encode(out, mout_row);
    ++count;
}

void
KnowledgeBase::encode(Matrix &m, const float *src)
{
    uint8_t *dst = m.store.data() + count * ed * elemBytes();
    switch (prec) {
      case Precision::F32:
        std::memcpy(dst, src, ed * sizeof(float));
        return;
      case Precision::BF16:
        for (size_t e = 0; e < ed; ++e)
            reinterpret_cast<uint16_t *>(dst)[e] = bf16FromFloat(src[e]);
        return;
      case Precision::I8:
        ingestI8(m, src);
        return;
    }
}

void
KnowledgeBase::ingestI8(Matrix &m, const float *src)
{
    // Stage the fp32 row, and either quantize just this row under the
    // chunk's frozen-so-far code, or — when the row extends the
    // chunk's element range — recompute the code and requantize the
    // whole staged tail chunk so the stored bytes match a
    // from-scratch quantization.
    const size_t k = count % qchunk; // row within the tail chunk
    if (k == 0) { // starting a fresh quantization chunk
        m.codes.emplace_back();
        m.tail.resize(qchunk * ed);
    }
    float *slot = m.tail.data() + k * ed;
    std::memcpy(slot, src, ed * sizeof(float));
    float rlo = 0.f, rhi = 0.f;
    if (!blas::finiteRangeI8(src, ed, rlo, rhi))
        fatal("I8 knowledge bases require finite embeddings");
    int8_t *base = reinterpret_cast<int8_t *>(m.store.data())
                   + (count - k) * ed;
    Code &c = m.codes.back();
    if (k == 0 || rlo < m.lo || rhi > m.hi) {
        m.lo = (k == 0) ? rlo : std::min(m.lo, rlo);
        m.hi = (k == 0) ? rhi : std::max(m.hi, rhi);
        c.scale = (m.hi > m.lo) ? (m.hi - m.lo) / 255.f : 0.f;
        c.zero = m.lo + 128.f * c.scale;
        // Staged and stored rows are both contiguous, so the whole
        // tail chunk requantizes in one kernel call.
        blas::quantizeI8(m.tail.data(), (k + 1) * ed, c.scale, c.zero,
                         base);
    } else {
        blas::quantizeI8(slot, ed, c.scale, c.zero, base + k * ed);
    }
}

void
KnowledgeBase::need(Precision p, const char *what) const
{
    static const char *const kNames[] = {"F32", "BF16", "I8"};
    if (prec != p)
        panic("%s() on a non-%s knowledge base", what,
              kNames[static_cast<int>(p)]);
}

size_t
KnowledgeBase::row(size_t i) const
{
    if (i >= count)
        panic("knowledge-base row %zu out of range [0, %zu)", i, count);
    return i;
}

const KnowledgeBase::Code *
KnowledgeBase::codesOf(const Matrix &m) const
{
    return viewed ? m.vcodes : m.codes.data();
}

const KnowledgeBase::Code &
KnowledgeBase::code(const Matrix &m, size_t i, const char *what) const
{
    need(Precision::I8, what);
    return codesOf(m)[(vrowOff + row(i)) / qchunk];
}

size_t
KnowledgeBase::i8ChunkRows() const
{
    need(Precision::I8, "i8ChunkRows");
    return qchunk;
}

size_t
KnowledgeBase::i8GroupEnd(size_t i) const
{
    need(Precision::I8, "i8GroupEnd");
    const size_t next = ((vrowOff + row(i)) / qchunk + 1) * qchunk;
    return std::min(next - vrowOff, count);
}

size_t
KnowledgeBase::groupEnd(size_t i) const
{
    return prec == Precision::I8 ? i8GroupEnd(i) : count;
}

blas::Rows
KnowledgeBase::rowsOf(const Matrix &m, size_t i) const
{
    const void *p = m.rows + row(i) * ed * elemBytes();
    switch (prec) {
      case Precision::F32:
        return blas::Rows(static_cast<const float *>(p));
      case Precision::BF16:
        return blas::Rows(static_cast<const uint16_t *>(p));
      case Precision::I8: {
        const Code &c = code(m, i, "rows");
        return blas::Rows(static_cast<const int8_t *>(p), c.scale,
                          c.zero);
      }
    }
    panic("unknown Precision %d", static_cast<int>(prec));
}

} // namespace mnnfast::core
