/**
 * @file
 * Ablation: coarse-then-fine candidate routing (DESIGN.md §11). Three
 * legs:
 *
 *  1. Latency sweep — per storage precision, a streaming column
 *     engine under RoutePolicy::TopK is swept over k (chunks streamed
 *     per question) and compared against the exact full-stream
 *     engine: batch latency, speedup, and the max answer-score
 *     deviation the dropped chunks cost. k = all chunks must be
 *     BIT-IDENTICAL to the unrouted engine (asserted; nonzero exit on
 *     violation) — that is the guarantee that makes routing a pure
 *     perf knob at the exact operating point.
 *  2. Sharded composition — a routed engine with scheduleGroups =
 *     shards (shards >= 2) must answer bit-identically to the
 *     per-shard composition the cluster runs (one engine per shard
 *     view, inferPartial, mergeStreamPartials; asserted), the property
 *     that lets scatter/gather serving route per shard.
 *  3. Accuracy (skipped under --smoke) — trained bAbI models swept
 *     over k with forwardTopK, charting relative accuracy loss
 *     against the streamed-row fraction: the routed analogue of the
 *     paper's Fig. 7 threshold sweep.
 *
 * Writes its JSON (e.g. BENCH_topk.json) only to the explicit path in
 * MNNFAST_BENCH_JSON; exits 2 without one.
 *
 * `--smoke` shrinks the geometry (ns=4096, ed=64) and skips training
 * so CI can run the bit-identity assertions in seconds.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hh"
#include "core/column_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "shard_composition.hh"
#include "stats/table.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

core::KnowledgeBase
buildKb(size_t ns, size_t ed, core::Precision prec)
{
    core::KnowledgeBase kb(ed, prec);
    kb.reserve(ns);
    XorShiftRng rng(1);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-0.3f, 0.3f);
            b[e] = rng.uniformRange(-0.3f, 0.3f);
        }
        kb.addSentence(a.data(), b.data());
    }
    return kb;
}

double
maxDeviation(const std::vector<float> &ref, const std::vector<float> &o)
{
    double dev = 0.0;
    for (size_t i = 0; i < ref.size(); ++i)
        dev = std::max(dev, std::abs(double(ref[i]) - o[i]));
    return dev;
}

bool
bitIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(float))
        == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const bool smoke = args.flag("smoke");
    const size_t ns = args.sizeOpt("ns", smoke ? 4096 : 65536);
    const size_t ed = args.sizeOpt("ed", smoke ? 64 : 128);
    const size_t chunk = args.sizeOpt("chunk", smoke ? 256 : 1024);
    const size_t nq = args.sizeOpt("nq", 16);
    const size_t reps = args.sizeOpt("reps", smoke ? 3 : 7);
    args.finish();
    const char *json_path = bench::requireJsonPath("ablation_topk");

    bench::banner("Ablation: top-k chunk routing",
                  "Coarse bound-scored candidate selection vs exact "
                  "full-KB streaming; k = all must be bit-identical.");

    const size_t n_chunks = (ns + chunk - 1) / chunk;
    std::printf("ns=%zu ed=%zu chunk=%zu (%zu chunks) nq=%zu%s\n\n", ns,
                ed, chunk, n_chunks, nq, smoke ? " [smoke]" : "");

    XorShiftRng rng(2);
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-0.3f, 0.3f);
    std::vector<float> ref(nq * ed), out(nq * ed);

    // k sweep: all chunks (the exactness anchor) down to a small
    // candidate set. The full geometry (64 chunks) sweeps k=2..64.
    std::vector<size_t> ks{n_chunks};
    for (size_t k = n_chunks / 4; k >= 2; k /= 2)
        ks.push_back(k);

    bench::JsonWriter json(json_path);
    json.beginObject();
    json.field("ns", ns);
    json.field("ed", ed);
    json.field("chunk", chunk);
    json.field("n_chunks", n_chunks);
    json.field("nq", nq);
    json.field("threads", size_t{0});
    json.field("smoke", smoke);

    bool failed = false;

    // ---- Leg 1: latency sweep per precision --------------------------
    stats::Table table({"precision", "k", "batch ms", "speedup",
                        "max |diff|"});
    json.key("precisions");
    json.beginArray();
    constexpr core::Precision precs[] = {core::Precision::F32,
                                         core::Precision::BF16,
                                         core::Precision::I8};
    for (core::Precision prec : precs) {
        const core::KnowledgeBase kb = buildKb(ns, ed, prec);

        core::EngineConfig base;
        base.chunkSize = chunk;
        base.streaming = true;
        base.threads = 0; // isolate the dataflow, not the pool
        core::ColumnEngine exact(kb, base);
        const double t_full = bench::minSeconds(reps, [&] {
            exact.inferBatch(u.data(), nq, ref.data());
        });
        table.addRow({core::precisionName(prec), "all(full)",
                      stats::Table::num(t_full * 1e3, 3), "1.000", "0"});

        json.beginObject();
        json.field("precision", core::precisionName(prec));
        json.field("full_seconds", t_full);
        json.key("points");
        json.beginArray();
        for (size_t k : ks) {
            core::EngineConfig cfg = base;
            cfg.routePolicy = core::RoutePolicy::TopK;
            cfg.routeTopK = k;
            core::ColumnEngine routed(kb, cfg);
            const double t = bench::minSeconds(reps, [&] {
                routed.inferBatch(u.data(), nq, out.data());
            });
            const double dev = maxDeviation(ref, out);
            if (k >= n_chunks && !bitIdentical(ref, out)) {
                std::fprintf(stderr,
                             "FAIL: k=all not bit-identical (%s, "
                             "max |diff| %.3g)\n",
                             core::precisionName(prec), dev);
                failed = true;
            }
            table.addRow({core::precisionName(prec),
                          std::to_string(k),
                          stats::Table::num(t * 1e3, 3),
                          stats::Table::num(t_full / t, 3),
                          stats::Table::num(dev, 6)});
            json.beginObject();
            json.field("k", k);
            json.field("seconds", t);
            json.field("speedup", t_full / t);
            json.field("max_abs_diff", dev);
            json.field("bit_identical", bitIdentical(ref, out));
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    table.print();

    // ---- Leg 2: routed sharded composition ---------------------------
    // The routed grouped engine (scheduleGroups = shards) must
    // reproduce the routed per-shard composition bit-for-bit
    // (sharded_engine.hh).
    {
        const size_t shards = 4;
        const size_t k = std::max<size_t>(2, n_chunks / shards / 4);
        const core::KnowledgeBase kb =
            buildKb(ns, ed, core::Precision::F32);

        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.streaming = true;
        cfg.routePolicy = core::RoutePolicy::TopK;
        cfg.routeTopK = k;

        core::EngineConfig grouped = cfg;
        grouped.threads = 2;
        grouped.scheduleGroups = shards;
        core::ColumnEngine(kb, grouped).inferBatch(u.data(), nq,
                                                   ref.data());

        const core::ShardedKnowledgeBase skb(kb, chunk, shards);
        out = core::composeShards(skb, cfg, u.data(), nq);

        const bool same = bitIdentical(ref, out);
        std::printf("\nrouted sharding: %zu shards, k=%zu per shard -> "
                    "%s\n",
                    skb.shardCount(), k,
                    same ? "bit-identical" : "MISMATCH");
        if (!same)
            failed = true;
        json.key("sharded");
        json.beginObject();
        json.field("shards", skb.shardCount());
        json.field("k", k);
        json.field("bit_identical", same);
        json.endObject();
    }

    // ---- Leg 3: accuracy vs computation (full mode only) -------------
    if (!smoke) {
        std::printf("\ntraining bAbI models for the accuracy sweep...\n");
        const size_t story_len = 20;
        // Fine-grained chunks: tighter envelopes and finer-grained
        // selection than the engine-scale chunk=1024 above — the
        // accuracy sweep probes the routing *policy*, not kernel
        // throughput, so small chunks are the interesting regime.
        const size_t chunk_rows = 2;
        struct Trained
        {
            bench::TrainedTask task;
            data::Dataset test;
            double baseAcc;
        };
        std::vector<Trained> models;
        for (data::TaskType type : data::allTasks()) {
            const size_t hops =
                type == data::TaskType::TwoSupportingFacts ? 3
                : type == data::TaskType::YesNo            ? 2
                                                           : 1;
            Trained t;
            t.task = bench::trainTask(type, /*ed=*/32, hops, story_len,
                                      /*examples=*/1000, /*epochs=*/30,
                                      /*seed=*/11 + uint64_t(type));
            t.test = t.task.gen->generateSet(150, story_len);
            t.baseAcc = train::evaluateAccuracy(*t.task.model, t.test);
            models.push_back(std::move(t));
        }

        stats::Table acc({"k chunks", "accuracy loss (%)",
                          "computation reduction (%)"});
        json.key("accuracy");
        json.beginObject();
        json.field("chunk_rows", chunk_rows);
        json.key("points");
        json.beginArray();
        const size_t max_chunks =
            (story_len + chunk_rows - 1) / chunk_rows;
        // The bAbI grid is tiny (5 chunks at story_len=20, chunk_rows=4),
        // so enumerate every k rather than halving — the interesting
        // operating points (small loss, nonzero reduction) sit at
        // k = max-1 .. max-2 and a halving sweep skips them.
        for (size_t k = max_chunks; k >= 1; --k) {
            double loss_sum = 0.0, reduction_sum = 0.0;
            for (const Trained &t : models) {
                uint64_t kept = 0, total = 0;
                const double a = train::evaluateAccuracyRouted(
                    *t.task.model, t.test, chunk_rows, k, kept, total);
                loss_sum +=
                    t.baseAcc > 0
                        ? std::max(0.0, (t.baseAcc - a) / t.baseAcc)
                        : 0.0;
                reduction_sum += 1.0 - double(kept) / double(total);
            }
            const double loss_pct = 100.0 * loss_sum / models.size();
            const double red_pct =
                100.0 * reduction_sum / models.size();
            acc.addRow({std::to_string(k),
                        stats::Table::num(loss_pct, 2),
                        stats::Table::num(red_pct, 1)});
            json.beginObject();
            json.field("k", k);
            json.field("accuracy_loss_pct", loss_pct);
            json.field("reduction_pct", red_pct);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::printf("\n");
        acc.print();
    }

    json.field("pass", !failed);
    json.endObject();

    std::printf("\nwrote %s\n", json.path().c_str());
    if (failed) {
        std::fprintf(stderr, "\nBIT-IDENTITY FAILURE\n");
        return 1;
    }
    return 0;
}
