/**
 * @file
 * Ablation: query-blocked batching (DESIGN.md, query-blocked GEMM
 * dataflow). Measures time per question as the batch size grows, for
 * the column engine with and without zero-skipping and for the full
 * mnnfast configuration.
 *
 * The column dataflow streams every chunk of M_IN/M_OUT once per
 * *batch*: the strip sweep drives each loaded strip through all
 * concurrent questions before advancing, so per-question cost should
 * fall steeply with nq until the arithmetic (not the stream)
 * dominates. The headline ratio t(nq=16)/t(nq=1) per question is the
 * amortization the serving simulator's affine service model assumes.
 *
 * Writes its JSON (e.g. BENCH_query_batch.json) only to the explicit
 * path in MNNFAST_BENCH_JSON, for tracking; exits 2 without one.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/column_engine.hh"
#include "stats/table.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

struct EngineSpec
{
    const char *label;
    bool streaming;
    float skipThreshold;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const size_t ns = args.sizeOpt("ns", 16384);
    const size_t ed = args.sizeOpt("ed", 256);
    const size_t chunk = args.sizeOpt("chunk", 512);
    const size_t reps = args.sizeOpt("reps", 5);
    args.finish();
    const char *json_path = bench::requireJsonPath("ablation_query_batch");

    bench::banner("Ablation: query-blocked batch amortization",
                  "Per-question latency vs batch size; the KB stream "
                  "is paid once per batch.");

    const size_t batches[] = {1, 2, 4, 8, 16, 32};
    const size_t max_nq = 32;

    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    {
        XorShiftRng rng(1);
        std::vector<float> a(ed), b(ed);
        for (size_t i = 0; i < ns; ++i) {
            for (size_t e = 0; e < ed; ++e) {
                a[e] = rng.uniformRange(-0.3f, 0.3f);
                b[e] = rng.uniformRange(-0.3f, 0.3f);
            }
            kb.addSentence(a.data(), b.data());
        }
    }
    XorShiftRng rng(2);
    std::vector<float> u(max_nq * ed), o(max_nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-0.3f, 0.3f);

    const EngineSpec specs[] = {
        {"column", false, 0.f},
        {"column+zskip", false, 1e-4f},
        {"mnnfast", true, 1e-4f},
    };

    bench::JsonWriter json(json_path);
    json.beginObject();
    json.field("ns", ns);
    json.field("ed", ed);
    json.field("chunk", chunk);
    json.field("threads", size_t{0});
    json.key("engines");
    json.beginArray();

    stats::Table table({"engine", "nq", "batch ms", "us/question",
                        "vs nq=1"});
    auto csv = bench::maybeCsv("ablation_query_batch");
    if (csv)
        csv->writeRow({"engine", "nq", "batch_seconds",
                       "per_question_seconds"});

    for (const EngineSpec &spec : specs) {
        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.threads = 0; // inline: isolate the dataflow, not the pool
        cfg.streaming = spec.streaming;
        cfg.skipThreshold = spec.skipThreshold;
        core::ColumnEngine engine(kb, cfg);

        json.beginObject();
        json.field("name", spec.label);
        json.key("points");
        json.beginArray();

        double per_q1 = 0.0, per_q16 = 0.0;
        for (size_t nq : batches) {
            const double secs = bench::minSeconds(
                reps, [&] { engine.inferBatch(u.data(), nq, o.data()); },
                /*warmups=*/1);
            const double per_q = secs / double(nq);
            if (nq == 1)
                per_q1 = per_q;
            if (nq == 16)
                per_q16 = per_q;

            table.addRow({spec.label, std::to_string(nq),
                          stats::Table::num(secs * 1e3, 3),
                          stats::Table::num(per_q * 1e6, 2),
                          stats::Table::num(per_q / per_q1, 3)});
            if (csv)
                csv->writeRow({std::string(spec.label),
                               std::to_string(nq), std::to_string(secs),
                               std::to_string(per_q)});
            json.beginObject();
            json.field("nq", nq);
            json.field("batch_seconds", secs);
            json.field("per_question_seconds", per_q);
            json.endObject();
        }
        json.endArray();
        json.field("t16_over_t1_per_query", per_q16 / per_q1);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    table.print();
    std::printf("\nwrote %s; t(16)/t(1) per question <= 0.6 means the "
                "KB stream amortizes across the batch\n",
                json.path().c_str());
    return 0;
}
