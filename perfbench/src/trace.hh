/**
 * @file
 * In-memory span tracer for the traced run. A span has a name, start,
 * end, parent span and request id; spans are kept in memory and
 * written as Chrome trace-event JSON when the run ends. A span's self
 * time is its duration minus the part of it its children cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds (perfbench::now clock)
    double end = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t request = 0;
};

class Tracer
{
  public:
    /** A fresh span id (so children can name a parent recorded later). */
    uint64_t newId() { return nextId.fetch_add(1); }

    /** Record one span; `id` 0 takes a fresh id. Thread-safe. */
    uint64_t record(const char *name, double start, double end,
                    uint64_t parent, uint64_t request, uint64_t id = 0);

    /** Run `fn` inside a span; returns its duration in seconds. */
    template <typename Fn>
    double
    time(const char *name, uint64_t parent, uint64_t request, Fn &&fn);

    /** Self times (seconds) of every span with this name. */
    std::vector<double> selfTimes(const std::string &name) const;

    /** Write Chrome trace-event JSON; false on I/O failure. */
    bool writeChrome(const std::string &path) const;

    size_t size() const;

  private:
    mutable std::mutex mutex;
    std::vector<Span> spans; ///< guarded by mutex
    std::atomic<uint64_t> nextId{1};
};

double now();

template <typename Fn>
double
Tracer::time(const char *name, uint64_t parent, uint64_t request,
             Fn &&fn)
{
    const double t0 = now();
    fn();
    const double t1 = now();
    record(name, t0, t1, parent, request);
    return t1 - t0;
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
