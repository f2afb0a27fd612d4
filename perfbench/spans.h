/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a library layer, recorded from the
 * benchmark's own code: name, start, end, parent span, and the run id
 * shared by every span of one job. Spans stay in memory until the run
 * ends; writeChrome() then emits them as Chrome trace-event JSON, which
 * chrome://tracing and Perfetto load directly.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord
{
    const char *name; ///< layer-qualified call name (static storage)
    int64_t start_ns; ///< since the recorder's epoch
    int64_t end_ns;
    int64_t parent;   ///< index of the enclosing span; -1 at a root
    uint64_t run;     ///< job id shared by a job's spans; 0 = none
    uint32_t tid;     ///< small per-thread id
};

/** Thread-safe append-only span store. */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(Clock::now()) {}

    /** Open a span on the calling thread; nests under its open span. */
    size_t open(const char *name, uint64_t run);

    /** Close the span @p idx returned (must be the innermost open one). */
    void close(size_t idx);

    /** Number of spans recorded so far (a cut point for selfSeconds). */
    size_t size() const;

    /**
     * Self time per span name over spans [from, to): each span's
     * duration minus the part its direct children cover.
     */
    std::map<std::string, double> selfSeconds(size_t from, size_t to) const;

    /** Durations (s) of spans named @p name in [from, to), by run id. */
    std::map<uint64_t, std::vector<double>>
    durationsByRun(const char *name, size_t from, size_t to) const;

    /**
     * Write every span as Chrome trace-event JSON ("ph":"X" complete
     * events, microseconds). @p metadata is a JSON object stored under
     * "otherData". @return false if the file cannot be written.
     */
    bool writeChrome(const std::string &path,
                     const std::string &metadata) const;

  private:
    const Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/** RAII span; a no-op when the recorder is null (untraced runs). */
class Span
{
  public:
    Span(SpanRecorder *rec, const char *name, uint64_t run = 0)
        : rec_(rec), idx_(rec ? rec->open(name, run) : 0)
    {}
    ~Span()
    {
        if (rec_)
            rec_->close(idx_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *rec_;
    size_t idx_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
