/**
 * @file
 * Host provenance and the streaming-read bandwidth ceiling.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "blas/kernels.hh"
#include "perfbench.hh"
#include "runtime/kernel_tuner.hh"
#include "util/aligned_buffer.hh"

namespace perfbench {

namespace {

/** Ceiling buffer: well past the LLC so reads come from DRAM. */
constexpr size_t kCeilingBytes = size_t{256} << 20;

/** Sum 64-bit words in four independent lanes (a pure read stream). */
uint64_t
readStream(const uint64_t *p, size_t n)
{
    uint64_t a = 0, b = 0, c = 0, d = 0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        a += p[i];
        b += p[i + 1];
        c += p[i + 2];
        d += p[i + 3];
    }
    for (; i < n; ++i)
        a += p[i];
    return a + b + c + d;
}

std::string
readFirstLine(const char *path)
{
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

std::string
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v ? "\"" + jsonEscape(v) + "\"" : "null";
}

} // namespace

CpuTimes
cpuTimes()
{
    // cpu user nice system idle iowait irq softirq steal ...
    std::ifstream f("/proc/stat");
    std::string label;
    CpuTimes t;
    f >> label;
    for (int i = 0; i < 10 && f; ++i) {
        double v = 0.0;
        if (!(f >> v))
            break;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
streamingCeilingGbps(size_t threads)
{
    const size_t words = kCeilingBytes / sizeof(uint64_t);
    AlignedBuffer<uint64_t> buf(words);
    for (size_t i = 0; i < words; ++i)
        buf[i] = i;
    std::vector<uint64_t> sinks(threads);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = now();
        std::vector<std::thread> ts;
        for (size_t t = 0; t < threads; ++t)
            ts.emplace_back([&, t] {
                const size_t lo = words * t / threads;
                const size_t hi = words * (t + 1) / threads;
                sinks[t] += readStream(buf.data() + lo, hi - lo);
            });
        for (std::thread &t : ts)
            t.join();
        const double dt = now() - t0;
        best = std::max(best, kCeilingBytes / dt / 1e9);
    }
    // Keep the sums observable so the reads are not optimised away.
    uint64_t sink = 0;
    for (uint64_t s : sinks)
        sink ^= s;
    if (sink == 1)
        std::fprintf(stderr, " ");
    return best;
}

std::string
provenanceJson(const std::string &commit, double ceil1, double ceilN,
               const System &sys)
{
    auto oneLine = [](std::string j) {
        j.erase(std::remove(j.begin(), j.end(), '\n'), j.end());
        return j.empty() ? std::string("null") : j;
    };
    const std::string tuner =
        oneLine(runtime::KernelTuner::instance().exportJson());
    std::string nodeTuners = "[";
    if (sys.nodes)
        for (const std::string &p : sys.nodes->tunerPlans())
            nodeTuners += (nodeTuners.size() > 1 ? ", " : "") + oneLine(p);
    nodeTuners += "]";
    std::string s = "{";
    s += "\"commit\": \"" + jsonEscape(commit) + "\"";
    s += ", \"cpu_model\": \"" + jsonEscape(cpuModel()) + "\"";
    s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    s += ", \"llc\": \""
         + jsonEscape(readFirstLine(
             "/sys/devices/system/cpu/cpu0/cache/index3/size"))
         + "\"";
    s += ", \"simd_backend\": \""
         + std::string(blas::kernelBackendName()) + "\"";
    s += ", \"MNNFAST_NO_SIMD\": " + envFlag("MNNFAST_NO_SIMD");
    s += ", \"MNNFAST_NO_TUNER\": " + envFlag("MNNFAST_NO_TUNER");
    s += ", \"MNNFAST_TUNER_CACHE\": " + envFlag("MNNFAST_TUNER_CACHE");
    s += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
    s += ", \"ceiling_gbps_1t\": " + num(ceil1);
    s += ", \"ceiling_gbps_nt\": " + num(ceilN);
    s += ", \"ceiling_threads_nt\": " + std::to_string(kComputeThreads);
    s += ", \"bytes_note\": \"GB/s figures divide bytes computed from "
         "tensor sizes by wall time\"";
    s += ", \"tuner\": " + tuner;
    s += ", \"node_tuners\": " + nodeTuners;
    s += "}";
    return s;
}

} // namespace perfbench
