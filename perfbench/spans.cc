#include "spans.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

/** Open spans of this thread, innermost last: (index, run id). */
thread_local std::vector<std::pair<size_t, uint64_t>> t_open;

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t id = next++;
    return id;
}

int64_t
sinceNs(Clock::time_point epoch)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

void
jsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

} // namespace

size_t
SpanRecorder::open(const char *name, uint64_t run)
{
    const int64_t parent =
        t_open.empty() ? -1 : static_cast<int64_t>(t_open.back().first);
    if (run == 0 && !t_open.empty())
        run = t_open.back().second;
    const int64_t now = sinceNs(epoch_);
    size_t idx;
    {
        std::lock_guard<std::mutex> g(mu_);
        idx = spans_.size();
        spans_.push_back({name, now, now, parent, run, threadId()});
    }
    t_open.emplace_back(idx, run);
    return idx;
}

void
SpanRecorder::close(size_t idx)
{
    const int64_t now = sinceNs(epoch_);
    t_open.pop_back();
    std::lock_guard<std::mutex> g(mu_);
    spans_[idx].end_ns = now;
}

size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> g(mu_);
    return spans_.size();
}

std::map<std::string, double>
SpanRecorder::selfSeconds(size_t from, size_t to) const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<int64_t> self(to - from);
    for (size_t i = from; i < to; ++i)
        self[i - from] += spans_[i].end_ns - spans_[i].start_ns;
    for (size_t i = from; i < to; ++i) {
        const int64_t p = spans_[i].parent;
        if (p >= static_cast<int64_t>(from))
            self[p - from] -= spans_[i].end_ns - spans_[i].start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = from; i < to; ++i)
        out[spans_[i].name] += self[i - from] * 1e-9;
    return out;
}

std::map<uint64_t, std::vector<double>>
SpanRecorder::durationsByRun(const char *name, size_t from, size_t to) const
{
    std::lock_guard<std::mutex> g(mu_);
    std::map<uint64_t, std::vector<double>> out;
    const std::string want = name;
    for (size_t i = from; i < to; ++i)
        if (want == spans_[i].name)
            out[spans_[i].run].push_back(
                (spans_[i].end_ns - spans_[i].start_ns) * 1e-9);
    return out;
}

bool
SpanRecorder::writeChrome(const std::string &path,
                          const std::string &metadata) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> g(mu_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    " \"traceEvents\": [\n",
                 metadata.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f, "  {\"name\": ");
        jsonString(f, s.name);
        std::fprintf(f,
                     ", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                     "\"parent\": %lld, \"run\": %llu}}%s\n",
                     s.tid, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                     i, static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.run),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
