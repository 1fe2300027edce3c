/**
 * @file
 * Shared declarations of the serving benchmark.
 *
 * The benchmark owns its inputs (a seeded generator independent of the
 * repository's RNG), its load generator, its statistics rules and its
 * span tracer; the system under test is reached only through public
 * calls (LiveServer, ClusterFrontEnd, ShardNode, the engines, the
 * kernels).
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_knowledge_base.hh"

namespace mnnfast::net {
struct ClusterConfig;
} // namespace mnnfast::net

namespace mnnfast::serve {
class LiveServer;
} // namespace mnnfast::serve

namespace perfbench {

using namespace mnnfast;
using Clock = std::chrono::steady_clock;

/** Seconds since an arbitrary process-wide epoch. */
double now();

/** Busy compute threads the system under test may use (nproc - 1 on
 *  the 4-core reference host; one core stays with the generator). */
inline constexpr size_t kComputeThreads = 3;

/**
 * CPU placement. The last CPU the process may use belongs to the load
 * generator and its collector; the system under test (server threads,
 * engine pools, forked nodes) gets the rest. Threads and processes
 * inherit the placement of the thread that creates them, so the
 * main thread pins itself to the system's CPUs while setting up and to the
 * generator's CPU while sending. No-ops on a single-CPU host.
 */
void pinToSystemCpus();
void pinToGeneratorCpu();

// ------------------------------------------------------------------
// Seeded inputs
// ------------------------------------------------------------------

/** splitmix64: the benchmark's own generator, so inputs do not change
 *  when the program's RNG does. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }
    float range(float lo, float hi)
    {
        return lo + static_cast<float>(uniform()) * (hi - lo);
    }
    /** Exponential with the given rate (inverse CDF). */
    double exponential(double rate);

  private:
    uint64_t state;
};

/** Stream-independent seed derivation. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/**
 * Open-loop Poisson arrival offsets (seconds from the phase start) at
 * `rate` requests per second for `seconds`: a pure function of
 * (seed, rate, seconds).
 */
std::vector<double> poissonSchedule(uint64_t seed, double rate,
                                    double seconds);

// ------------------------------------------------------------------
// Statistics rules
// ------------------------------------------------------------------

/** Samples a percentile needs beyond it before it is reported. */
inline constexpr size_t kTailSamples = 10;

/** True when `n` samples support percentile `p` (0 < p < 1): at least
 *  kTailSamples lie beyond it, so p99 needs 1000 and p90 needs 100. */
bool percentileSupported(size_t n, double p);

/** Nearest-rank percentile of `v` (sorted in place). Only call when
 *  percentileSupported(v.size(), p) or for p = 0.5 on nonempty v. */
double percentile(std::vector<double> &v, double p);

/** Median of a nonempty vector (copied). */
double median(std::vector<double> v);

/** Most windows a phase's samples are split into (one per round). */
inline constexpr size_t kMaxWindows = 8;

/**
 * Percentile `p` of `samples` (in arrival order) in the best window:
 * the samples are split into as many consecutive windows (up to
 * kMaxWindows) as leave each window enough samples to support p, and
 * the lowest per-window figure is reported. Contention from outside
 * the program only ever adds latency, so the least-disturbed window is
 * the closest reading of the program itself. NaN when even one window
 * cannot support p.
 */
double bestWindowPercentile(const std::vector<double> &samples, double p);

/** One ladder step's outcome, as the stop rule sees it. */
struct StepOutcome
{
    size_t samples = 0;        ///< answered requests
    double tailMs = 0.0;       ///< kLadderTail percentile latency
    uint64_t refused = 0;      ///< rejected + failed
    uint64_t backlogEarly = 0; ///< median outstanding, first half
    uint64_t backlogLate = 0;  ///< median outstanding, second half
};

/** The percentile the ladder's latency limit applies to. */
inline constexpr double kLadderTail = 0.90;

/**
 * Ladder stop rule: a step passes iff its tail is supported by the
 * sample count and within `limitMs`, nothing was refused, and the
 * backlog did not grow over the step by more than `backlogSlack`.
 */
bool stepPasses(const StepOutcome &s, double limitMs,
                uint64_t backlogSlack);

/**
 * Binary search for the highest passing rung of a ladder whose pass /
 * fail is monotone in the rate, one probe at a time so the probes can
 * be spread over a run: probe rung next(), then record() the outcome.
 * best() is -1 when rung 0 fails.
 */
class LadderSearch
{
  public:
    explicit LadderSearch(size_t rungs) : hi(static_cast<long>(rungs)) {}
    bool done() const { return hi - lo <= 1; }
    size_t next() const { return static_cast<size_t>(lo + (hi - lo) / 2); }
    void
    record(bool pass)
    {
        const long mid = static_cast<long>(next());
        (pass ? lo : hi) = mid;
    }
    long best() const { return lo; }

  private:
    long lo = -1;
    long hi;
};

/** Geometric rate ladder from `lo` to at least `hi`, steps of `ratio`. */
std::vector<double> rateLadder(double lo, double hi, double ratio);

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

enum class Mode {
    Sharded,    ///< in-process sharded LiveServer
    Replicated, ///< in-process replicated LiveServer
};

/** One workload: geometry, serving configuration and fixed rates. */
struct Workload
{
    const char *name;
    Mode mode;
    core::Precision precision;
    size_t ns;       ///< KB sentences
    size_t ed;       ///< embedding dimension
    size_t shards;   ///< KB partition (1 = unsharded)
    size_t workers;  ///< LiveServer workers
    size_t maxBatch;
    double batchTimeout;
    core::EngineConfig engine;
    // Fixed load constants (also summarised in BENCHMARK.json).
    double lowQps;
    double highQps;
    double ladderLoQps;
    double ladderHiQps;
    double limitMs;  ///< ladder limit on the kLadderTail latency
    size_t burst;    ///< offline burst size
    size_t questionPool;
};

/** Workload by name; null when unknown. */
const Workload *findWorkload(const std::string &name);

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Ladder step ratio (<= 5%). */
inline constexpr double kLadderRatio = 1.05;

/** Seeded KB of the workload's geometry and precision. */
std::unique_ptr<core::KnowledgeBase> buildKb(const Workload &w,
                                             uint64_t seed);

/** Seeded question pool (questionPool x ed). */
std::vector<float> buildQuestions(const Workload &w, uint64_t seed);

// ------------------------------------------------------------------
// Systems under test
// ------------------------------------------------------------------

/** Forked TCP shard nodes, each serving shard s of a partition. */
class NodeProcesses
{
  public:
    /**
     * Fork one ShardNode process per shard. Must be called while the
     * process has no other threads. Fills `endpoints` with each
     * node's 127.0.0.1 address once it listens.
     */
    NodeProcesses(const core::ShardedKnowledgeBase &skb,
                  const core::EngineConfig &cfg);
    /** Reaps the nodes (they must have been sent Shutdown). */
    ~NodeProcesses();
    NodeProcesses(const NodeProcesses &) = delete;
    NodeProcesses &operator=(const NodeProcesses &) = delete;

    const std::vector<std::string> &endpoints() const { return eps; }
    /** Each node's kernel-tuner plans (KernelTuner::exportJson). */
    const std::vector<std::string> &tunerPlans() const { return plans; }
    /** Waits for every node; false if any exited abnormally. */
    bool reap();

  private:
    std::vector<pid_t> pids;
    std::vector<std::string> eps;
    std::vector<std::string> plans;
};

/** A workload's serving stack, ready to take submit() calls. */
struct System
{
    const Workload *w = nullptr;
    std::unique_ptr<core::KnowledgeBase> kb;
    std::unique_ptr<core::ShardedKnowledgeBase> skb;
    std::unique_ptr<NodeProcesses> nodes;
    std::unique_ptr<serve::LiveServer> server;

    System();
    ~System();
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Stop serving, stop nodes; false if a node exited abnormally. */
    bool stop();
};

/**
 * Build the workload's stack from nothing and answer one warm-up batch
 * (maxBatch questions); returns the seconds that took. `ladderNodes`
 * also forks TCP nodes over the workload's partition (before any
 * thread starts) for the traced run's layer ladder.
 */
double setUp(System &sys, const Workload &w, uint64_t seed,
             const std::vector<float> &questions,
             bool ladderNodes = false);

/** The front-end configuration every ClusterFrontEnd of the benchmark
 *  uses: one replica per endpoint, in-flight window `window`. */
net::ClusterConfig clusterConfig(const std::vector<std::string> &endpoints,
                                 size_t window, const Workload &w);

/** EngineConfig the shard engines and nodes of a partition run. */
core::EngineConfig shardEngineConfig(const Workload &w);

// ------------------------------------------------------------------
// Open-loop load
// ------------------------------------------------------------------

/** One request's record, as the generator and collector saw it. */
struct Request
{
    double due = 0.0;         ///< when the schedule said to send
    double submitStart = 0.0;
    double submitEnd = 0.0;
    double done = 0.0;        ///< collector saw the answer
    double queueWait = 0.0;   ///< from the Answer
    double service = 0.0;     ///< from the Answer
    size_t batch = 0;
    size_t question = 0;      ///< index into the question pool
    bool accepted = false;
    bool failed = false;
};

/** A phase's requests plus the answers kept for the correctness gate. */
struct PhaseResult
{
    std::vector<Request> reqs;
    /** Median requests outstanding (accepted, unanswered) over the
     *  first and the second half of the sends, sampled 16 times. */
    uint64_t backlogEarly = 0;
    uint64_t backlogLate = 0;
    double firstSubmit = 0.0;
    double lastDone = 0.0;
    /** (question index, answer) pairs sampled for the gate. */
    std::vector<std::pair<size_t, std::vector<float>>> kept;

    uint64_t sent() const { return reqs.size(); }
    uint64_t rejected() const;
    uint64_t failed() const;
    /** due -> done latencies (ms) of answered requests. */
    std::vector<double> latenciesMs() const;
    /** due -> submit lateness (ms) of every request. */
    std::vector<double> latenessMs() const;
};

class Tracer;

/** What a phase sends, and what it keeps. */
struct PhasePlan
{
    std::vector<double> offsets; ///< due offsets; empty = burst
    size_t burst = 0;            ///< back-to-back count when a burst
    uint64_t seed = 0;           ///< question choice + gate sampling
    size_t keepEvery = 0;        ///< keep ~1 in N answers (0 = none)
    size_t keepMax = 0;
    Tracer *tracer = nullptr;    ///< record request spans when set
};

/** Drive `server` through one phase: generator on this thread, one
 *  collector thread; returns after every accepted answer arrived. */
PhaseResult runPhase(serve::LiveServer &server,
                     const std::vector<float> &questions, size_t ed,
                     const PhasePlan &plan);

/** Generator p99 lateness above which paced figures are invalid. */
inline constexpr double kMaxLateP99Ms = 20.0;

/** p99 of the generator's lateness (ms) over `phases`; the maximum
 *  when there are too few sends to support a p99 (conservative). */
double lateP99Ms(const std::vector<const PhaseResult *> &phases);

/**
 * Exit code of a finished run. Correctness wins over validity: a run
 * with a wrong answer or a broken ledger exits 1 (and prints its
 * result) even when its generator was also late; only a correct run
 * whose paced figures are invalid exits 3 (and prints no result).
 */
int exitCode(bool correct, bool invalid);

// ------------------------------------------------------------------
// Output
// ------------------------------------------------------------------

/** One named metric, printed with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** JSON string escaping. */
std::string jsonEscape(const std::string &s);

/** `{name: {"value": v, "unit": u}, ...}` for `metrics`. */
std::string metricsJson(const std::vector<Metric> &metrics);

/** The final result line. */
std::string resultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric> &metrics);

/** Number with all its digits. */
std::string num(double v);

// ------------------------------------------------------------------
// Host provenance, ceiling, layer ladder, self-tests
// ------------------------------------------------------------------

/** Streaming-read ceiling in GB/s with `threads` readers. */
double streamingCeilingGbps(size_t threads);

/** Aggregate CPU time of the host's view (/proc/stat): time stolen by
 *  the hypervisor, and all time; zeros where unavailable. */
struct CpuTimes
{
    double steal = 0.0;
    double total = 0.0;
};
CpuTimes cpuTimes();

/** Provenance block (one JSON object). `sys` adds its nodes' tuner
 *  plans when it has forked nodes. */
std::string provenanceJson(const std::string &commit, double ceil1,
                           double ceilN, const System &sys);

/** A finished run, as main reports it (see exitCode). */
struct RunResult
{
    bool correct = true;
    bool invalid = false; ///< the generator fell behind its schedule
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** The traced run: per-layer metrics for workload `w`. */
RunResult runTraced(const Workload &w, uint64_t seed, double seconds,
                    const std::string &commit,
                    const std::string &tracePath);

/** Self-tests of the benchmark's own logic; returns failure count. */
int runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
