/**
 * @file
 * The benchmark's pure logic: seeded inputs, the arrival schedule, the
 * percentile and ladder rules, and JSON output. Everything here is
 * covered by the self-tests in selftest.cc.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench.hh"

namespace perfbench {

double
now()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

uint64_t
Rng::next()
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
Rng::exponential(double rate)
{
    // 1 - u is in (0, 1], so the log is finite.
    return -std::log(1.0 - uniform()) / rate;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    Rng r(seed * 0x100000001B3ull ^ (stream + 0x51ED27ull));
    r.next();
    return r.next();
}

std::vector<double>
poissonSchedule(uint64_t seed, double rate, double seconds)
{
    std::vector<double> t;
    Rng rng(seed);
    double at = rng.exponential(rate);
    while (at < seconds) {
        t.push_back(at);
        at += rng.exponential(rate);
    }
    return t;
}

bool
percentileSupported(size_t n, double p)
{
    // n * (1 - p) >= kTailSamples, computed without rounding surprises
    // for the usual p = 0.5 / 0.9 / 0.99.
    const double beyond = static_cast<double>(n) * (1.0 - p);
    return beyond + 1e-9 >= static_cast<double>(kTailSamples);
}

double
percentile(std::vector<double> &v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    return percentile(v, 0.5);
}

double
bestWindowPercentile(const std::vector<double> &samples, double p)
{
    const size_t n = samples.size();
    size_t need = 1;
    while (!percentileSupported(need, p))
        ++need;
    if (n < need)
        return std::nan("");
    const size_t k = std::min(kMaxWindows, n / need);
    std::vector<double> per;
    for (size_t w = 0; w < k; ++w) {
        std::vector<double> win(samples.begin() + n * w / k,
                                samples.begin() + n * (w + 1) / k);
        per.push_back(percentile(win, p));
    }
    return *std::min_element(per.begin(), per.end());
}

bool
stepPasses(const StepOutcome &s, double limitMs, uint64_t backlogSlack)
{
    if (s.refused != 0)
        return false;
    if (!percentileSupported(s.samples, kLadderTail))
        return false;
    if (s.tailMs > limitMs)
        return false;
    return s.backlogLate <= s.backlogEarly + backlogSlack;
}

int
exitCode(bool correct, bool invalid)
{
    if (!correct)
        return 1;
    return invalid ? 3 : 0;
}

std::vector<double>
rateLadder(double lo, double hi, double ratio)
{
    std::vector<double> r;
    for (double x = lo; ; x *= ratio) {
        r.push_back(x);
        if (x >= hi)
            break;
    }
    return r;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            s += ", ";
        s += "\"" + jsonEscape(metrics[i].name) + "\": {\"value\": "
             + num(metrics[i].value) + ", \"unit\": \""
             + jsonEscape(metrics[i].unit) + "\"}";
    }
    return s + "}";
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    return s + ", \"metrics\": " + metricsJson(metrics) + "}";
}

} // namespace perfbench
