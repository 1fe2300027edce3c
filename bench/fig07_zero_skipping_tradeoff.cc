/**
 * @file
 * Reproduces paper Figure 7: "Tradeoffs between accuracy loss and
 * computation reduction according to the skip threshold."
 *
 * One MemNN is trained per synthetic bAbI task family; the skip
 * threshold is swept and, averaged across the tasks, both the
 * relative accuracy loss and the weighted-sum computation reduction
 * are reported. Paper reference points: ~81% reduction with no
 * accuracy loss at threshold 0.01; ~97% reduction with 0.87% loss at
 * threshold 0.1.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 7: zero-skipping accuracy/computation "
                  "tradeoff",
                  "Trained models on all five synthetic bAbI task "
                  "families; averages across tasks.");

    const size_t story_len = 20;
    struct Trained
    {
        bench::TrainedTask task;
        data::Dataset test;
        double baseAcc;
    };
    std::vector<Trained> models;

    for (data::TaskType type : data::allTasks()) {
        // Multi-hop tasks need multi-hop models (exactly as in the
        // original end-to-end MemNN paper, where BoW models also do
        // worst on the two-supporting-facts family).
        const size_t hops =
            type == data::TaskType::TwoSupportingFacts ? 3
            : type == data::TaskType::YesNo            ? 2
                                                       : 1;
        Trained t;
        t.task = bench::trainTask(type, /*ed=*/32, hops, story_len,
                                  /*examples=*/1000,
                                  /*epochs=*/30,
                                  /*seed=*/11 + uint64_t(type));
        t.test = t.task.gen->generateSet(150, story_len);
        t.baseAcc =
            train::evaluateAccuracy(*t.task.model, t.test);
        std::printf("  trained %-22s base accuracy %.3f\n",
                    data::taskName(type), t.baseAcc);
        models.push_back(std::move(t));
    }
    std::printf("\n");

    const float thresholds[] = {1e-5f, 1e-4f, 1e-3f, 0.01f,
                                0.05f, 0.1f,  0.2f,  0.3f, 0.5f};

    stats::Table table({"threshold", "accuracy loss (%)",
                        "computation reduction (%)"});
    auto csv = bench::maybeCsv("fig07");
    if (csv)
        csv->writeRow({"threshold", "accuracy_loss_pct",
                       "reduction_pct"});
    for (float th : thresholds) {
        double loss_sum = 0.0, reduction_sum = 0.0;
        for (const Trained &t : models) {
            uint64_t kept = 0, total = 0;
            const double acc = train::evaluateAccuracySkip(
                *t.task.model, t.test, th, kept, total);
            // Relative loss in accuracy, as the paper defines it.
            const double rel_loss =
                t.baseAcc > 0
                    ? std::max(0.0, (t.baseAcc - acc) / t.baseAcc)
                    : 0.0;
            loss_sum += rel_loss;
            reduction_sum += 1.0 - double(kept) / double(total);
        }
        std::vector<std::string> row{
            stats::Table::num(double(th), 5),
            stats::Table::num(100.0 * loss_sum / models.size(), 2),
            stats::Table::num(100.0 * reduction_sum / models.size(),
                              1)};
        if (csv)
            csv->writeRow(row);
        table.addRow(std::move(row));
    }
    table.print();

    std::printf("\npaper reference: ~81%% reduction / 0%% loss at "
                "th=0.01; ~97%% reduction / 0.87%% loss at th=0.1\n");
    return 0;
}
