#include "core/column_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "blas/kernels.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::core {

namespace {

/**
 * Issue software prefetches covering [ptr, ptr + bytes), one every
 * `stride` cache lines (0 = none). Sparse pacing is enough: the
 * hardware prefetcher follows the sequential stream once started, and
 * thinning the instruction count keeps the overhead negligible on
 * memory systems where the data is already close. The stride comes
 * from the engine's resolved runtime::KernelPlan.
 */
inline void
prefetchBytes(const void *ptr, size_t bytes, size_t stride)
{
    if (stride == 0)
        return;
    const char *p = reinterpret_cast<const char *>(ptr);
    for (size_t off = 0; off < bytes; off += stride * kCacheLineBytes)
        __builtin_prefetch(p + off, 0 /* read */, 3 /* high locality */);
}

/**
 * The strip is the reuse unit of the query-blocked sweep: its
 * M_IN/M_OUT rows stay cache-resident while every question in the
 * batch consumes them, so DRAM traffic per chunk is paid once per
 * batch. The strip row count is tuned (runtime::KernelPlan; default
 * 16 rows — 1 KiB rows at ed=256 fit comfortably in L1 next to the
 * question tile) and always a multiple of the kernels' 4-row register
 * group, so strip boundaries never change the accumulation grouping
 * relative to one whole-chunk kernel call (bit-identity). Prefetch of
 * the next chunk is paced across these strips, as in the paper's data
 * streaming.
 */

/** Oversubscription factor for the automatic group count. */
constexpr size_t kAutoGroupsPerWorker = 4;

/** One online-softmax state, as pointers into its owner's buffers. */
struct PartialRef
{
    const float *o;
    const double *expSum;
    const float *runMax;
};

/**
 * The online-softmax merge (see StreamPartial) that every merge of
 * partials runs: fold the `n` states part(0), ..., part(n - 1) in
 * that order into `o` (nq x ed). When `expSum`/`runMax` are given
 * they receive each question's merged exp sum and maximum and `o`
 * stays undivided (the partial entry point); when null, `o` gets the
 * single lazy-softmax division instead. States with a zero exp sum
 * are skipped under online normalization, where their -inf maximum
 * would make the rescale NaN. With one state and no division the
 * result is a bit-exact copy (0 + x and 1.0 * x are exact).
 */
template <class PartAt>
void
mergeOnlineSoftmax(size_t n, PartAt part, size_t nq, size_t ed,
                   bool online, float *o, double *expSum, float *runMax)
{
    for (size_t q = 0; q < nq; ++q) {
        float gmax = -std::numeric_limits<float>::infinity();
        if (online)
            for (size_t i = 0; i < n; ++i)
                gmax = std::max(gmax, part(i).runMax[q]);
        double s = 0.0;
        float *oq = o + q * ed;
        blas::zero(oq, ed);
        for (size_t i = 0; i < n; ++i) {
            const PartialRef p = part(i);
            if (online && p.expSum[q] == 0.0)
                continue;
            const float scale =
                online ? std::exp(p.runMax[q] - gmax) : 1.0f;
            s += p.expSum[q] * scale;
            blas::axpy(scale, p.o + q * ed, oq, ed);
        }
        if (expSum) {
            expSum[q] = s;
            runMax[q] = gmax;
        } else {
            blas::scal(static_cast<float>(1.0 / s), oq, ed);
        }
    }
}

} // namespace

void
mergeStreamPartials(const StreamPartial *const *parts, size_t nParts,
                    size_t nq, size_t ed, bool onlineNormalize,
                    float *o)
{
    mergeOnlineSoftmax(
        nParts,
        [parts](size_t i) {
            return PartialRef{parts[i]->o.data(),
                              parts[i]->expSum.data(),
                              parts[i]->runMax.data()};
        },
        nq, ed, onlineNormalize, o, nullptr, nullptr);
}

ColumnEngine::ColumnEngine(const KnowledgeBase &kb, const EngineConfig &cfg)
    : kb(kb), cfg(cfg), pool(cfg.threads)
{
    if (this->cfg.chunkSize == 0)
        fatal("column engine chunk size must be nonzero");
    // Fail fast on pins the sweep could not honor: a stripRows not on
    // the kernels' 4-row register grid would otherwise be silently
    // rounded (the caller benchmarks one strip size and runs another),
    // and a prefetchStride outside the tuner's candidate set makes
    // pinned and tuned configurations incomparable.
    if (this->cfg.stripRows > 0 && this->cfg.stripRows % 4 != 0)
        fatal("EngineConfig::stripRows = %zu is not a multiple of 4",
              this->cfg.stripRows);
    if (this->cfg.prefetchStride > 0) {
        bool in_grid = false;
        for (size_t c : runtime::kPrefetchStrideCandidates)
            in_grid = in_grid
                   || static_cast<size_t>(this->cfg.prefetchStride) == c;
        if (!in_grid)
            fatal("EngineConfig::prefetchStride = %d is outside the "
                  "tuner candidate set",
                  this->cfg.prefetchStride);
    }
    switch (this->cfg.routePolicy) {
      case RoutePolicy::None:
        break;
      case RoutePolicy::TopK:
        if (this->cfg.routeTopK == 0)
            fatal("RoutePolicy::TopK requires routeTopK > 0");
        break;
      case RoutePolicy::BoundThreshold:
        if (!(this->cfg.routeBoundThreshold >= 0.f
              && this->cfg.routeBoundThreshold <= 1.f))
            fatal("RoutePolicy::BoundThreshold requires "
                  "routeBoundThreshold in [0, 1], got %g",
                  static_cast<double>(this->cfg.routeBoundThreshold));
        break;
    }
    // A chunk can never be larger than the KB, so clamp up front: the
    // scratch tiles, the reported chunk geometry, and chunkSize() all
    // reflect what actually runs. An empty KB is left alone so that
    // construction stays legal (inferBatch over it still panics).
    if (kb.size() > 0)
        this->cfg.chunkSize = std::min(this->cfg.chunkSize, kb.size());
    workerArenas.resize(std::max<size_t>(1, pool.threadCount()));

    // Warm the process-wide tuning table for this KB's precision and
    // dimension now, so the first inference call (and every sibling
    // engine over the same geometry — e.g. one per serving worker)
    // finds a measured plan with a plain lookup. Skipped when the
    // config pins both knobs; a no-op under MNNFAST_NO_TUNER.
    if (kb.size() > 0
        && (this->cfg.stripRows == 0 || this->cfg.prefetchStride < 0)) {
        auto &tuner = runtime::KernelTuner::instance();
        const char *prec = precisionName(kb.precision());
        for (size_t nq : {size_t{1}, size_t{4}, size_t{16}})
            tuner.plan(prec, kb.dim(), nq);
    }
    // The coarse bound sweep has its own tuned shape ("bound": lo+hi
    // fp32 row pairs); warm it too when routing is configured.
    if (kb.size() > 0 && routingActive()) {
        auto &tuner = runtime::KernelTuner::instance();
        for (size_t nq : {size_t{1}, size_t{4}, size_t{16}})
            tuner.plan("bound", kb.dim(), nq);
    }
}

runtime::KernelPlan
ColumnEngine::resolvePlan(size_t nq) const
{
    runtime::KernelPlan plan;
    if (cfg.stripRows == 0 || cfg.prefetchStride < 0)
        plan = runtime::KernelTuner::instance().plan(
            precisionName(kb.precision()), kb.dim(), nq);
    if (cfg.stripRows > 0)
        plan.stripRows = cfg.stripRows; // validated at construction
    if (cfg.prefetchStride >= 0)
        plan.prefetchStride = static_cast<size_t>(cfg.prefetchStride);
    return plan;
}

const char *
ColumnEngine::name() const
{
    const bool routed = routingActive();
    if (cfg.skipThreshold > 0.f && cfg.streaming)
        return routed ? "mnnfast+routed" : "mnnfast";
    if (cfg.streaming)
        return routed ? "column+streaming+routed" : "column+streaming";
    if (cfg.skipThreshold > 0.f)
        return routed ? "column+zskip+routed" : "column+zskip";
    return routed ? "column+routed" : "column";
}

const std::vector<runtime::Range> &
ColumnEngine::chunkGroups(size_t n_chunks)
{
    // A pure function of the chunk count and configuration, so which
    // worker runs a group can never change the merged result (see
    // header). Cached: the KB size is fixed for
    // the engine's lifetime in the serving loop, so this recomputes
    // only if the KB grows between calls.
    if (groupCache.empty() || groupCacheChunks != n_chunks) {
        const size_t workers = std::max<size_t>(1, pool.threadCount());
        const size_t want_groups =
            cfg.scheduleGroups > 0
                ? cfg.scheduleGroups
                : (workers > 1 ? workers * kAutoGroupsPerWorker : 1);
        groupCache =
            runtime::splitRange(n_chunks, std::min(n_chunks, want_groups));
        groupCacheChunks = n_chunks;
    }
    return groupCache;
}

void
ColumnEngine::processChunks(const float *u, size_t nq, size_t row_begin,
                            size_t row_end,
                            const runtime::KernelPlan &plan, Partial &out,
                            size_t worker, runtime::ScratchArena &scratch,
                            const uint8_t *sel, size_t sel_stride) const
{
    const size_t ed = kb.dim();
    const size_t chunk = cfg.chunkSize;
    // Storage precision reaches the kernels only through the KB's typed
    // row views; everything else (strips, prefetch pacing, scratch,
    // merge) is precision-agnostic. Row prefetch distance shrinks with
    // the element size, so bf16 halves and i8 quarters both the
    // streamed and the prefetched bytes per row. Kernel calls split at
    // storage-group boundaries (kb.forEachGroup; the i8 quantization
    // groups) so each call carries one view; the split points cannot
    // change results (see kernels.hh).
    const size_t row_bytes = ed * kb.elemBytes();
    const size_t pf = plan.prefetchStride;
    // The strip has two jobs: pacing the next-chunk prefetch (pf > 0)
    // and keeping a row block L1-resident while it is reused across
    // the question batch (nq > 1). With one question and prefetch
    // disabled — e.g. the tuned int8 single-query plan, whose kernel
    // prefetches internally — neither applies, so collapse the strip
    // to the chunk and amortize per-call setup (dispatch, query sums)
    // over 8x more rows. Call granularity never changes results: the
    // per-(question, row) accumulation order is call-split invariant.
    const size_t strip =
        (nq == 1 && pf == 0) ? chunk : plan.stripRows;
    const bool online = cfg.onlineNormalize;
    const float th = cfg.skipThreshold;

    // Chunk-local e-value tile, the only per-question temporary:
    // t[q * chunk + i] is the (exponentiated) score of chunk row i for
    // question q. Claimed from this worker's persistent arena (the
    // caller reset it before this group's claims) — steady state is a
    // pure bump-pointer rewind. Under routing, row q of the tile
    // belongs to the q-th *selected* question of the current chunk.
    float *t = scratch.floats(nq * chunk);
    // Compacted sub-batch buffers for partially selected chunks:
    // gathered question vectors and accumulator state for the
    // selected questions only, scattered back after the chunk.
    float *u_sub = nullptr, *acc_sub = nullptr, *runmax_sub = nullptr;
    double *psum_sub = nullptr;
    uint32_t *qsel = nullptr;
    if (sel) {
        u_sub = scratch.floats(nq * ed);
        acc_sub = scratch.floats(nq * ed);
        runmax_sub = scratch.floats(nq);
        psum_sub = scratch.doubles(nq);
        qsel = reinterpret_cast<uint32_t *>(
            scratch.bytes(nq * sizeof(uint32_t)));
    }
    const size_t first_chunk = row_begin / chunk;
    Timer phase_timer;
    // Group-local totals and phase times, stored into `out` once at
    // the end (see Partial).
    RunTotals totals;
    double t_inner = 0.0, t_soft = 0.0, t_wsum = 0.0;

    for (size_t c0 = row_begin; c0 < row_end; c0 += chunk) {
        const size_t c1 = std::min(c0 + chunk, row_end);
        const size_t len = c1 - c0;

        // Routing: gather this chunk's selected questions. A chunk no
        // question selected is bypassed outright — its rows are never
        // streamed, prefetched or observed.
        size_t nb = nq;
        if (sel) {
            const size_t ci = c0 / chunk - first_chunk;
            nb = 0;
            for (size_t q = 0; q < nq; ++q)
                if (sel[q * sel_stride + ci])
                    qsel[nb++] = static_cast<uint32_t>(q);
            if (nb == 0) {
                ++totals.bypassed;
                continue;
            }
            totals.routedRows += len * nb;
        }

        // Streaming: the next chunk's rows are prefetched strip-by-
        // strip while this chunk computes, so the prefetch latency
        // hides under the arithmetic instead of serializing in a
        // burst. Issued once per chunk regardless of the batch size —
        // the strip sweep below already covers every question. Under
        // routing, a next chunk no question selected is not prefetched
        // (its bytes will never be read).
        // next_len <= len always (a shorter chunk is the last).
        size_t next_len =
            cfg.streaming && c1 < row_end
                ? std::min(chunk, row_end - c1)
                : 0;
        if (sel && next_len > 0) {
            const size_t nci = c1 / chunk - first_chunk;
            bool any = false;
            for (size_t q = 0; q < nq && !any; ++q)
                any = sel[q * sel_stride + nci] != 0;
            if (!any)
                next_len = 0;
        }
        const char *next_min = nullptr, *next_mout = nullptr;
        if (next_len > 0) {
            next_min = static_cast<const char *>(kb.minRows(c1).data);
            next_mout = static_cast<const char *>(kb.moutRows(c1).data);
        }

        // Partial selection runs the identical three phases over a
        // compacted question sub-batch: gather the selected questions'
        // query vectors and accumulator state, run the kernels at the
        // sub-batch size, scatter back. Exact per question — the
        // kernels' per-(question, row) accumulation order does not
        // depend on which other questions share the call.
        const float *uu = u;
        float *acc = out.o;
        double *psum = out.psum;
        float *runmax = out.runmax;
        const bool compact = sel && nb < nq;
        if (compact) {
            for (size_t j = 0; j < nb; ++j) {
                const size_t q = qsel[j];
                blas::copy(u + q * ed, u_sub + j * ed, ed);
                blas::copy(out.o + q * ed, acc_sub + j * ed, ed);
                psum_sub[j] = out.psum[q];
                runmax_sub[j] = out.runmax[q];
            }
            uu = u_sub;
            acc = acc_sub;
            psum = psum_sub;
            runmax = runmax_sub;
        }

        // Phase 1: inner products, query-blocked. Each strip of M_IN
        // rows is loaded once and swept through the whole question
        // batch by the register-tiled kernel (a small packed GEMM);
        // the strip stays L1-resident across the batch, so the chunk
        // streams from memory once per batch, not once per question.
        phase_timer.reset();
        for (size_t s0 = 0; s0 < len; s0 += strip) {
            const size_t s1 = std::min(s0 + strip, len);
            for (size_t i = s0; i < std::min(s1, next_len); ++i)
                prefetchBytes(next_min + i * row_bytes, row_bytes, pf);
            kb.forEachGroup(c0 + s0, c0 + s1, [&](size_t g0, size_t g1) {
                blas::dotBatchMulti(uu, nb, ed, kb.minRows(g0), g1 - g0,
                                    ed, ed, t + (g0 - c0), chunk);
            });
        }
        t_inner += phase_timer.seconds();

        // Phase 2 (partial softmax): exponential + running sum. In
        // online mode the accumulators are rescaled whenever a new
        // running max appears, keeping exp arguments bounded.
        phase_timer.reset();
        for (size_t q = 0; q < nb; ++q) {
            float *tq = t + q * chunk;
            if (online) {
                const float m =
                    std::max(runmax[q], blas::maxElement(tq, len));
                if (m > runmax[q]) {
                    const float rescale = std::exp(runmax[q] - m);
                    psum[q] *= rescale;
                    blas::scal(rescale, acc + q * ed, ed);
                    runmax[q] = m;
                }
                blas::expShiftInplace(tq, len, m);
            } else {
                blas::expInplace(tq, len);
            }
        }
        t_soft += phase_timer.seconds();

        // Phase 3: fused weighted sum with optional zero-skipping,
        // query-blocked like phase 1 — a kept M_OUT row is loaded once
        // and accumulated into every question that keeps it. The skip
        // test stays per-(question,row): the kernel folds e into each
        // question's running sum before testing e < th * S_running, so
        // the test is conservative (see header) and decisions are
        // identical to the per-question sweep; skipped rows never
        // touch M_OUT or the accumulator for that question.
        phase_timer.reset();
        for (size_t s0 = 0; s0 < len; s0 += strip) {
            const size_t s1 = std::min(s0 + strip, len);
            for (size_t i = s0; i < std::min(s1, next_len); ++i)
                prefetchBytes(next_mout + i * row_bytes, row_bytes, pf);
            kb.forEachGroup(c0 + s0, c0 + s1, [&](size_t g0, size_t g1) {
                blas::weightedSumSkipMulti(
                    t + (g0 - c0), nb, chunk, kb.moutRows(g0), g1 - g0,
                    ed, ed, th, psum, acc, ed, totals.kept,
                    totals.skipped);
            });
        }
        t_wsum += phase_timer.seconds();

        if (compact) {
            for (size_t j = 0; j < nb; ++j) {
                const size_t q = qsel[j];
                blas::copy(acc_sub + j * ed, out.o + q * ed, ed);
                out.psum[q] = psum_sub[j];
                out.runmax[q] = runmax_sub[j];
            }
        }

        if (cfg.chunkObserver)
            cfg.chunkObserver(worker, c0 / chunk);
    }
    out.totals = totals;
    out.tInner = t_inner;
    out.tSoftmax = t_soft;
    out.tWsum = t_wsum;
}

const uint8_t *
ColumnEngine::selectGroup(const float *u, size_t nq,
                          runtime::Range chunks,
                          const runtime::KernelPlan &plan,
                          runtime::ScratchArena &scratch) const
{
    const size_t ed = kb.dim();
    const size_t n_g = chunks.end - chunks.begin;
    float *scores = scratch.floats(nq * n_g);
    uint8_t *sel = scratch.bytes(nq * n_g);

    // Coarse scoring: the fused bound kernel over this group's chunk
    // summaries, strip-swept with the tuned "bound" plan. Strip
    // boundaries cannot change scores (per-(question, chunk) pairs
    // are independent).
    const float *lo = routeIndex->loData() + chunks.begin * ed;
    const float *hi = routeIndex->hiData() + chunks.begin * ed;
    for (size_t s0 = 0; s0 < n_g; s0 += plan.stripRows) {
        const size_t s1 = std::min(s0 + plan.stripRows, n_g);
        blas::chunkBoundBatch(u, nq, ed, lo + s0 * ed, hi + s0 * ed,
                              s1 - s0, ed, ed, scores + s0, n_g);
    }

    if (cfg.routePolicy == RoutePolicy::TopK) {
        const size_t k = std::min(cfg.routeTopK, n_g);
        if (k >= n_g) {
            std::fill(sel, sel + nq * n_g, uint8_t(1));
            return sel;
        }
        // Exact top-k per question under the total order (score desc,
        // chunk index asc) — the tie-break makes the selected *set* a
        // pure function of the scores, independent of how
        // nth_element permutes within partitions.
        uint32_t *idx = reinterpret_cast<uint32_t *>(
            scratch.bytes(n_g * sizeof(uint32_t)));
        for (size_t q = 0; q < nq; ++q) {
            const float *s = scores + q * n_g;
            uint8_t *m = sel + q * n_g;
            std::fill(m, m + n_g, uint8_t(0));
            for (size_t c = 0; c < n_g; ++c)
                idx[c] = static_cast<uint32_t>(c);
            std::nth_element(idx, idx + k, idx + n_g,
                             [s](uint32_t a, uint32_t b) {
                                 return s[a] != s[b] ? s[a] > s[b]
                                                     : a < b;
                             });
            for (size_t c = 0; c < k; ++c)
                m[idx[c]] = 1;
        }
    } else {
        // BoundThreshold: keep chunks whose bound is within ln(th) of
        // the group's best bound. th = 0 gives cut = -inf and keeps
        // every chunk (exact attention).
        const float lnth = std::log(cfg.routeBoundThreshold);
        for (size_t q = 0; q < nq; ++q) {
            const float *s = scores + q * n_g;
            uint8_t *m = sel + q * n_g;
            float gmax = s[0];
            for (size_t c = 1; c < n_g; ++c)
                gmax = std::max(gmax, s[c]);
            const float cut = gmax + lnth;
            for (size_t c = 0; c < n_g; ++c)
                m[c] = s[c] >= cut ? uint8_t(1) : uint8_t(0);
        }
    }
    return sel;
}

void
ColumnEngine::runGroups(const float *u, size_t nq)
{
    const size_t ns = kb.size();
    const size_t ed = kb.dim();
    mnn_assert(ns > 0, "inference over an empty knowledge base");

    const size_t n_chunks = (ns + cfg.chunkSize - 1) / cfg.chunkSize;
    const auto &groups = chunkGroups(n_chunks);
    // One tuner lookup per pass, outside the worker loops (the table
    // was warmed at construction, so this is a locked map hit).
    const runtime::KernelPlan plan = resolvePlan(nq);

    // Routing: make sure the chunk-summary index snapshot covers the
    // current KB (lazy build; rebuilt only when the KB grew). Resolved
    // on the caller thread, before workers start.
    const bool routed = routingActive();
    runtime::KernelPlan bound_plan;
    if (routed) {
        if (!routeIndex || routeIndexRows != ns) {
            routeIndex =
                std::make_unique<ChunkSummaryIndex>(kb, cfg.chunkSize);
            routeIndexRows = ns;
        }
        bound_plan = runtime::KernelTuner::instance().plan(
            "bound", kb.dim(), nq);
    }

    // Group partials live in the persistent arena: the previous
    // call's spans are dead, so rewind and claim fresh ones. At a
    // steady batch size the claims replay the same layout over the
    // same retained block — no allocation.
    partialArena.reset();
    partials.resize(groups.size());
    for (Partial &p : partials) {
        p.o = partialArena.floats(nq * ed);
        p.psum = partialArena.doubles(nq);
        p.runmax = partialArena.floats(nq);
        blas::zero(p.o, nq * ed);
        std::fill(p.psum, p.psum + nq, 0.0);
        std::fill(p.runmax, p.runmax + nq,
                  -std::numeric_limits<float>::infinity());
    }

    auto runGroup = [&](size_t worker, size_t g) {
        const runtime::Range cr = groups[g];
        runtime::ScratchArena &scratch = workerArenas[worker];
        // Any span a previous group claimed on this worker is dead by
        // now; steady state is a pure bump-pointer rewind.
        scratch.reset();
        // Selection is per chunk group: a shard engine over exactly
        // group s's rows makes the same choice, so group-local
        // selection is what makes routing compose with sharding
        // bit-identically.
        const uint8_t *sel =
            routed ? selectGroup(u, nq, cr, bound_plan, scratch)
                   : nullptr;
        processChunks(u, nq, cr.begin * cfg.chunkSize,
                      std::min(ns, cr.end * cfg.chunkSize), plan,
                      partials[g], worker, scratch, sel,
                      cr.end - cr.begin);
    };

    runtime::parallelForDynamic(
        pool, groups.size(), 1, [&](size_t worker, runtime::Range r) {
            for (size_t g = r.begin; g < r.end; ++g)
                runGroup(worker, g);
        });
}

void
ColumnEngine::mergeGroups(size_t nq, float *o, double *expSum,
                          float *runMax) const
{
    mergeOnlineSoftmax(
        partials.size(),
        [this](size_t g) {
            const Partial &p = partials[g];
            return PartialRef{p.o, p.psum, p.runmax};
        },
        nq, kb.dim(), cfg.onlineNormalize, o, expSum, runMax);
}

void
ColumnEngine::inferBatch(const float *u, size_t nq, float *o)
{
    Timer timer;
    runGroups(u, nq);

    // Merge partials in group order (deterministic; see header) and
    // apply the lazy softmax division: O(ed) divisions per question
    // instead of O(ns).
    mergeGroups(nq, o, nullptr, nullptr);

    // The lazy-softmax division happened above; the partial entry
    // point defers it to the gathering merge.
    counterGroup["div_ops"].add(nq * kb.dim());
    recordRunStats(nq, timer.seconds());
}

void
ColumnEngine::inferPartial(const float *u, size_t nq, StreamPartial &out)
{
    const size_t ed = kb.dim();
    Timer timer;
    runGroups(u, nq);

    out.nq = nq;
    out.o.resize(nq * ed);
    out.expSum.resize(nq);
    out.runMax.resize(nq);

    // The same group merge as inferBatch, minus the division, which
    // the gather side applies after the cross-shard merge. With a
    // single group this is a bit-exact copy of its accumulators —
    // the property per-shard partials rest on.
    mergeGroups(nq, out.o.data(), out.expSum.data(), out.runMax.data());

    recordRunStats(nq, timer.seconds());
}

void
ColumnEngine::recordRunStats(size_t nq, double wall_seconds)
{
    // Attribute phase times. With workers, per-group phase seconds
    // overlap in wall-clock; dividing by the worker count gives the
    // effective contribution (exact in the inline/1-thread case used
    // for the Fig. 9a breakdown).
    const size_t workers = std::max<size_t>(1, pool.threadCount());
    double t_inner = 0.0, t_soft = 0.0, t_wsum = 0.0;
    RunTotals totals;
    for (const Partial &p : partials) {
        t_inner += p.tInner;
        t_soft += p.tSoftmax;
        t_wsum += p.tWsum;
        totals.kept += p.totals.kept;
        totals.skipped += p.totals.skipped;
        totals.routedRows += p.totals.routedRows;
        totals.bypassed += p.totals.bypassed;
    }
    const double denom = static_cast<double>(workers);
    times.innerProduct += t_inner / denom;
    times.softmax += t_soft / denom;
    times.weightedSum += t_wsum / denom;
    times.other += std::max(0.0, wall_seconds
                                 - (t_inner + t_soft + t_wsum) / denom);

    // The honest scratch footprint: every arena's retained capacity —
    // chunk tiles on each worker plus all groups' partials.
    size_t scratch_bytes = partialArena.capacityBytes();
    for (const runtime::ScratchArena &a : workerArenas)
        scratch_bytes += a.capacityBytes();
    counterGroup["intermediate_bytes"].reset();
    counterGroup["intermediate_bytes"].add(scratch_bytes);

    const size_t n_chunks = (kb.size() + cfg.chunkSize - 1) / cfg.chunkSize;
    counterGroup["chunks_processed"].add(n_chunks);
    counterGroup["rows_kept"].add(totals.kept);
    counterGroup["rows_skipped"].add(totals.skipped);
    if (routingActive()) {
        // Inner-product flops reflect the pairs actually streamed;
        // the coarse sweep's own cost (~4 flops per dimension per
        // scored (question, chunk) pair: two muls, a max, an add) is
        // reported separately so savings stay honest.
        counterGroup["flops_inner"].add(2ull * totals.routedRows
                                        * kb.dim());
        counterGroup["rows_routed"].add(totals.routedRows);
        counterGroup["chunks_bypassed"].add(totals.bypassed);
        counterGroup["flops_route"].add(4ull * nq * n_chunks * kb.dim());
    } else {
        counterGroup["flops_inner"].add(2ull * nq * kb.size()
                                        * kb.dim());
    }
    counterGroup["flops_wsum"].add(2ull * totals.kept * kb.dim());
}

} // namespace mnnfast::core
