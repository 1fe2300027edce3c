/**
 * @file
 * Reproduces paper Figure 6: "Probability value distribution" — the
 * observation that a trained memory network's attention vector is
 * extremely sparse (only a few story sentences correlate with a
 * question).
 *
 * A real end-to-end MemNN is trained on the synthetic bAbI task with
 * 50-sentence stories (as in the paper's bAbI setup); the p-vectors
 * of 100 test questions are then summarized: per-question activation
 * counts and the global probability-mass histogram.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 6: probability (attention) value distribution",
                  "Trained MemNN, 50-sentence stories, 100 questions. "
                  "The paper's claim: only a few values are activated; "
                  "the rest are close to zero.");

    const size_t story_len = 50;
    auto task =
        bench::trainTask(data::TaskType::SingleSupportingFact,
                         /*ed=*/32, /*hops=*/1, story_len,
                         /*examples=*/1000, /*epochs=*/40, /*seed=*/7);
    std::printf("trained model accuracy (train set): %.3f\n\n",
                task.trainAccuracy);

    stats::Histogram hist(0.0, 1.0, 20);
    train::ForwardState state;

    size_t total_ge_01 = 0, total_ge_001 = 0, total = 0;
    double max_p_sum = 0.0;
    const size_t questions = 100;

    stats::Table sample({"question", "max p", "#p>=0.1", "#p>=0.01",
                         "#p<0.01"});
    for (size_t q = 0; q < questions; ++q) {
        const data::Example ex = task.gen->generate(story_len);
        task.model->forward(ex, state);
        const auto &p = state.p[0];

        double maxp = 0.0;
        size_t ge_01 = 0, ge_001 = 0;
        for (float v : p) {
            hist.add(v);
            maxp = std::max(maxp, double(v));
            ge_01 += v >= 0.1f;
            ge_001 += v >= 0.01f;
        }
        total_ge_01 += ge_01;
        total_ge_001 += ge_001;
        total += p.size();
        max_p_sum += maxp;

        if (q < 8) {
            sample.addRow({std::to_string(q),
                           stats::Table::num(maxp, 3),
                           stats::Table::num(uint64_t(ge_01)),
                           stats::Table::num(uint64_t(ge_001)),
                           stats::Table::num(
                               uint64_t(p.size() - ge_001))});
        }
    }

    std::printf("sample of per-question activation counts:\n");
    sample.print();

    std::printf("\naggregate over %zu questions x %zu sentences:\n",
                questions, story_len);
    std::printf("  mean max probability:        %.3f\n",
                max_p_sum / questions);
    std::printf("  mean #values >= 0.1:         %.2f  (of %zu)\n",
                double(total_ge_01) / questions, story_len);
    std::printf("  mean #values >= 0.01:        %.2f\n",
                double(total_ge_001) / questions);
    std::printf("  fraction of values < 0.01:   %.1f%%\n",
                100.0 * (1.0 - double(total_ge_001) / total));

    std::printf("\nprobability-mass histogram (all values):\n%s",
                hist.toString(40).c_str());
    return 0;
}
