/**
 * @file
 * Workload table, seeded inputs, CPU placement, forked TCP ShardNode
 * processes (for the traced run's net ladder), and setting up each
 * workload's in-process LiveServer.
 */

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <future>

#include "net/cluster_frontend.hh"
#include "net/shard_node.hh"
#include "net/tcp_transport.hh"
#include "perfbench.hh"
#include "runtime/kernel_tuner.hh"
#include "serve/live_server.hh"
#include "util/logging.hh"

namespace perfbench {

namespace {

core::EngineConfig
engineConfig(size_t chunk, float skip, size_t topK)
{
    core::EngineConfig c;
    c.chunkSize = chunk;
    c.streaming = true;
    c.skipThreshold = skip;
    if (topK != 0) {
        c.routePolicy = core::RoutePolicy::TopK;
        c.routeTopK = topK;
    }
    return c;
}

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> v;
    // The paper's regime: a 268 MB f32 KB (2.5x the 105 MiB LLC)
    // streamed from DRAM once per batch, shared by up to 16 questions.
    v.push_back({"stream-f32", Mode::Sharded, core::Precision::F32,
                 524288, 64, 3, 3, 16, 2e-3,
                 engineConfig(1024, 0.0f, 0),
                 /*low*/ 25.0, /*high*/ 125.0,
                 /*ladder*/ 100.0, 400.0, /*limit ms*/ 300.0,
                 /*burst*/ 160, /*pool*/ 1024});
    // Routed int8: replicated workers, nq~1 int8 kernels, top-8 of
    // 256 chunks (~97% of the KB bypassed) plus zero-skipping.
    v.push_back({"routed-i8", Mode::Replicated, core::Precision::I8,
                 262144, 64, 1, 3, 4, 0.0,
                 engineConfig(1024, 0.01f, 8),
                 2200.0, 11000.0, 4000.0, 40000.0, 20.0, 4096, 4096});
    return v;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = makeWorkloads();
    return w;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::unique_ptr<core::KnowledgeBase>
buildKb(const Workload &w, uint64_t seed)
{
    auto kb = std::make_unique<core::KnowledgeBase>(w.ed, w.precision);
    kb->reserve(w.ns);
    Rng rng(mixSeed(seed, 1));
    std::vector<float> a(w.ed), b(w.ed);
    for (size_t i = 0; i < w.ns; ++i) {
        for (size_t e = 0; e < w.ed; ++e) {
            a[e] = rng.range(-0.5f, 0.5f);
            b[e] = rng.range(-0.5f, 0.5f);
        }
        kb->addSentence(a.data(), b.data());
    }
    return kb;
}

std::vector<float>
buildQuestions(const Workload &w, uint64_t seed)
{
    Rng rng(mixSeed(seed, 2));
    std::vector<float> u(w.questionPool * w.ed);
    for (float &x : u)
        x = rng.range(-1.0f, 1.0f);
    return u;
}

core::EngineConfig
shardEngineConfig(const Workload &w)
{
    core::EngineConfig c = w.engine;
    c.threads = 0;
    c.scheduleGroups = 1;
    return c;
}

// ------------------------------------------------------------------
// CPU placement
// ------------------------------------------------------------------

namespace {

/** The process's CPUs as first seen (before any pinning). */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
        return v;
    }();
    return cpus;
}

void
pinTo(size_t first, size_t last)
{
    const std::vector<int> &cpus = allowedCpus();
    if (cpus.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = first; i <= last; ++i)
        CPU_SET(cpus[i], &set);
    sched_setaffinity(0, sizeof set, &set);
}

} // namespace

void
pinToSystemCpus()
{
    const size_t n = allowedCpus().size();
    pinTo(0, n >= 2 ? n - 2 : 0);
}

void
pinToGeneratorCpu()
{
    const size_t n = allowedCpus().size();
    pinTo(n - 1, n - 1);
}

// ------------------------------------------------------------------
// Forked TCP shard nodes
// ------------------------------------------------------------------

namespace {

bool
writeAll(int fd, const void *p, size_t n)
{
    const char *c = static_cast<const char *>(p);
    while (n > 0) {
        const ssize_t k = write(fd, c, n);
        if (k <= 0)
            return false;
        c += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

bool
readAll(int fd, void *p, size_t n)
{
    char *c = static_cast<char *>(p);
    while (n > 0) {
        const ssize_t k = read(fd, c, n);
        if (k <= 0)
            return false;
        c += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

} // namespace

NodeProcesses::NodeProcesses(const core::ShardedKnowledgeBase &skb,
                             const core::EngineConfig &cfg)
{
    std::fflush(stdout);
    std::fflush(stderr);
    std::vector<int> portFds;
    for (size_t s = 0; s < skb.shardCount(); ++s) {
        int fds[2];
        if (pipe(fds) != 0)
            fatal("pipe failed");
        const pid_t pid = fork();
        if (pid < 0)
            fatal("fork failed");
        if (pid == 0) {
            // Child: die with the benchmark, never outlive it.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::close(fds[0]);
            for (int fd : portFds)
                ::close(fd);
            // The KB is inherited copy-on-write; the node (and its
            // kernel-tuner warm-up) is built before the port is
            // reported, so a reported port means a ready node.
            net::ShardNode node(skb.shard(s), cfg,
                                static_cast<uint32_t>(s));
            net::TcpTransport transport;
            auto listener = transport.listen("127.0.0.1:0");
            uint16_t port = 0;
            if (listener)
                port = static_cast<net::TcpListener *>(listener.get())
                           ->boundPort();
            // Report: port, then the length and text of the node's
            // tuner plans (provenance).
            const std::string plan =
                runtime::KernelTuner::instance().exportJson();
            const uint32_t len = static_cast<uint32_t>(plan.size());
            if (port == 0 || !writeAll(fds[1], &port, sizeof port)
                || !writeAll(fds[1], &len, sizeof len)
                || !writeAll(fds[1], plan.data(), len))
                _exit(2);
            ::close(fds[1]);
            node.serve(*listener);
            _exit(0);
        }
        ::close(fds[1]);
        pids.push_back(pid);
        portFds.push_back(fds[0]);
    }
    for (size_t s = 0; s < portFds.size(); ++s) {
        uint16_t port = 0;
        uint32_t len = 0;
        std::string plan;
        bool ok = readAll(portFds[s], &port, sizeof port) && port != 0
                  && readAll(portFds[s], &len, sizeof len) && len < (1u << 20);
        if (ok) {
            plan.resize(len);
            ok = readAll(portFds[s], plan.data(), len);
        }
        if (!ok)
            fatal("shard node %zu never reported its port", s);
        ::close(portFds[s]);
        eps.push_back("127.0.0.1:" + std::to_string(port));
        plans.push_back(std::move(plan));
    }
}

bool
NodeProcesses::reap()
{
    bool ok = true;
    for (pid_t pid : pids) {
        int status = 0;
        if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)
            || WEXITSTATUS(status) != 0)
            ok = false;
    }
    pids.clear();
    return ok;
}

NodeProcesses::~NodeProcesses()
{
    // Only reached with live children on an error path: stop them.
    for (pid_t pid : pids)
        kill(pid, SIGKILL);
    reap();
}

net::ClusterConfig
clusterConfig(const std::vector<std::string> &endpoints, size_t window,
              const Workload &w)
{
    net::ClusterConfig cc;
    for (const std::string &ep : endpoints)
        cc.replicas.push_back({ep});
    cc.requestTimeoutSeconds = 10.0;
    cc.connectTimeoutSeconds = 5.0;
    cc.pipelineDepth = window;
    cc.onlineNormalize = w.engine.onlineNormalize;
    return cc;
}

// ------------------------------------------------------------------
// The serving stack
// ------------------------------------------------------------------

System::System() = default;

System::~System()
{
    stop();
}

bool
System::stop()
{
    server.reset();
    bool ok = true;
    if (nodes) {
        net::TcpTransport transport;
        net::ClusterFrontEnd fe(transport,
                                clusterConfig(nodes->endpoints(), 1, *w));
        fe.shutdownNodes(2.0);
        ok = nodes->reap();
        nodes.reset();
    }
    return ok;
}

double
setUp(System &sys, const Workload &w, uint64_t seed,
      const std::vector<float> &questions, bool ladderNodes)
{
    const double t0 = now();
    sys.w = &w;
    sys.kb = buildKb(w, seed);
    sys.skb = std::make_unique<core::ShardedKnowledgeBase>(
        *sys.kb, w.engine.chunkSize, w.shards);
    if (ladderNodes)
        sys.nodes = std::make_unique<NodeProcesses>(*sys.skb,
                                                    shardEngineConfig(w));

    serve::LiveServerConfig lc;
    lc.maxBatch = w.maxBatch;
    lc.batchTimeout = w.batchTimeout;
    lc.queueCapacity = 4096;
    lc.engine = w.engine;
    lc.workers = w.workers;
    lc.shards = w.mode == Mode::Sharded ? w.shards : 0;
    sys.server = std::make_unique<serve::LiveServer>(*sys.kb, lc);

    // Warm-up: one full batch answered end to end. Replicated workers
    // each build their routing index on their first batch, so send
    // two full batches per worker to reach every one of them.
    const size_t batches = w.mode == Mode::Replicated ? 2 * w.workers : 1;
    std::vector<std::future<serve::Answer>> warm;
    for (size_t i = 0; i < batches * w.maxBatch; ++i) {
        serve::Ticket t = sys.server->submit(
            questions.data() + (i % w.questionPool) * w.ed);
        if (!t.accepted())
            fatal("warm-up request refused");
        warm.push_back(std::move(t.answer));
    }
    for (auto &f : warm)
        if (f.get().failed)
            fatal("warm-up batch failed");
    return now() - t0;
}

} // namespace perfbench
