/**
 * @file
 * Span storage, self-time computation and Chrome trace-event export.
 */

#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "perfbench.hh"

namespace perfbench {

uint64_t
Tracer::record(const char *name, double start, double end,
               uint64_t parent, uint64_t request, uint64_t id)
{
    if (id == 0)
        id = newId();
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({name, start, end, id, parent, request});
    return id;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans.size();
}

std::vector<double>
Tracer::selfTimes(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    std::vector<double> v;
    for (const Span &s : spans) {
        if (s.name != name)
            continue;
        // Union of the children's intervals, clipped to the span.
        auto it = children.find(s.id);
        double covered = 0.0;
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double curLo = 0.0, curHi = -1.0;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start);
                hi = std::min(hi, s.end);
                if (hi <= lo)
                    continue;
                if (lo > curHi) {
                    if (curHi > curLo)
                        covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                } else {
                    curHi = std::max(curHi, hi);
                }
            }
            if (curHi > curLo)
                covered += curHi - curLo;
        }
        v.push_back((s.end - s.start) - covered);
    }
    return v;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu}}\n",
                     i ? "," : "", jsonEscape(s.name).c_str(),
                     static_cast<unsigned long long>(s.request % 64),
                     s.start * 1e6, (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
