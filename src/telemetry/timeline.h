/**
 * @file
 * Interval telemetry: the "poat-timeline v2" format.
 *
 * A TimelineSampler turns the run's end-of-run aggregates into a time
 * series: every N cycles it snapshots the full StatsRegistry counter
 * set (CPI-stack components flattened in) and a set of live occupancy
 * gauges, and appends the *delta* since the previous sample to a
 * compact varint-encoded stream. The sampler is a pure observer — it
 * only reads already-synced stats and never touches core, cache, or
 * translation state — so attaching one leaves cycles, instructions,
 * and every aggregate stat bit-identical to an unsampled run (the
 * equivalence tests assert this).
 *
 * File layout (all fixed-width integers little-endian):
 *
 *   offset 0   magic "poattlv2" (8 bytes)
 *          8   u32 format version (2)
 *         12   u64 sampling interval (cycles)
 *         20   u64 sample count      (patched by finish())
 *         28   u32 counter series count
 *         32   u32 gauge series count
 *         36   u32 simulated core count (v2; 0 if never set)
 *         40   series names, counters then gauges, each varint length
 *              + raw bytes
 *          .   samples, appended as they are taken: varint end_cycle,
 *              one zigzag varint delta per counter series, one varint
 *              absolute value per gauge series
 *
 * v2 added the core-count header field and per-core lanes: multi-core
 * registries contribute "core.<i>.*" counter series (CPI deltas
 * included) and the machine can register per-core blocked-reason
 * gauges; dumpChrome() groups each core's series under its own Chrome
 * trace process so viewers render one lane per core. v1 files are not
 * read (timelines are transient run outputs, not cached artifacts).
 *
 * Sampling semantics: the sampler fires on the first event boundary at
 * or past each multiple of N. An event that jumps several multiples
 * emits the accumulated delta on the first crossed boundary and
 * zero-delta rows for the rest, and finish() appends a final partial
 * row for the tail, so a run of C cycles always yields exactly
 * ceil(C / N) rows and the per-row core.cpi.* deltas each sum to the
 * row's core.cycles delta.
 *
 * The counter schema is frozen at the first sample (the registry's
 * fixed counter set plus "<stack>.<component>" for every CPI stack);
 * counters that first appear later in the run are not retrofitted.
 * Later samples match the registry BY NAME against the frozen schema,
 * so mid-run registrations (the contention profiler's lock.top.* /
 * cp.* tables grow as the run contends) cannot shift the frozen
 * series' positions.
 */
#ifndef POAT_TELEMETRY_TIMELINE_H
#define POAT_TELEMETRY_TIMELINE_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "telemetry/observer.h"

namespace poat {

class StatsRegistry;

namespace telemetry {

/** File magic, first 8 bytes of every poat-timeline file. */
inline constexpr char kTimelineMagic[8] = {'p', 'o', 'a', 't',
                                           't', 'l', 'v', '2'};

/** Format version this build reads and writes. */
inline constexpr uint32_t kTimelineVersion = 2;

/** Bytes before the series names (magic + version + 5 fixed fields). */
inline constexpr size_t kTimelineHeaderSize = 40;

/**
 * Cycle-driven delta sampler writing a poat-timeline v2 file. As a
 * machine observer it ticks on every retired instruction with the
 * retiring core's clock.
 */
class TimelineSampler : public Observer
{
  public:
    /**
     * @param interval Cycles per sample; must be nonzero.
     * @param path     Final path of the timeline file.
     * @throws std::runtime_error if the file cannot be created.
     */
    TimelineSampler(uint64_t interval, std::string path);
    ~TimelineSampler() override;

    TimelineSampler(const TimelineSampler &) = delete;
    TimelineSampler &operator=(const TimelineSampler &) = delete;

    /**
     * Bind the registry the sampler snapshots. The callable must sync
     * the registry's counters before returning it (sim::Machine::stats
     * does) and stay valid until finish().
     */
    void setStatsSource(std::function<const StatsRegistry &()> source)
    {
        source_ = std::move(source);
    }

    /**
     * Register a live occupancy gauge, sampled absolutely (not as a
     * delta). Registration order fixes the series order in the file;
     * all gauges must be registered before the first sample fires.
     */
    void addGauge(std::string name, std::function<uint64_t()> fn);

    /**
     * Record the simulated core count in the header (v2 field; the
     * driver sets it at attach). Must precede the first sample.
     */
    void setCores(uint32_t cores)
    {
        POAT_ASSERT(!schemaWritten_,
                    "timeline core count must be set before sampling");
        cores_ = cores;
    }

    /**
     * Cycle notification: samples once per crossed interval boundary.
     * Cheap when no boundary was crossed (one compare).
     */
    void
    tick(uint64_t now_cycles)
    {
        if (now_cycles >= next_)
            crossBoundaries(now_cycles);
    }

    void retired(const Retired &r) override { tick(r.end_cycle); }

    /**
     * Take the final partial sample (if any cycles are unsampled),
     * patch the header, and close the file. Idempotent.
     * @throws std::runtime_error on I/O failure.
     */
    void finish(uint64_t now_cycles);

    /** Samples written so far. */
    uint64_t samples() const { return samples_; }

  private:
    /** Emit one row per multiple of the interval at or below @p now. */
    void crossBoundaries(uint64_t now_cycles);

    /** Freeze the series schema and write the file header. */
    void writeSchema();

    /** Snapshot the registry + gauges and append one delta row. */
    void sample(uint64_t end_cycle);

    /** Append a zero-delta row labelled @p end_cycle. */
    void emptySample(uint64_t end_cycle);

    void appendRow(uint64_t end_cycle,
                   const std::vector<uint64_t> &values,
                   const std::vector<uint64_t> &gauges);

    uint64_t interval_;
    uint64_t next_;
    std::string path_;
    std::FILE *f_ = nullptr;
    std::function<const StatsRegistry &()> source_;
    std::vector<std::string> counterNames_;
    size_t plainCounters_ = 0; ///< schema prefix from counters();
                               ///< the rest are CPI components
    std::vector<std::string> gaugeNames_;
    std::vector<std::function<uint64_t()>> gaugeFns_;
    std::vector<uint64_t> prev_; ///< previous counter snapshot
    uint64_t samples_ = 0;
    uint32_t cores_ = 0;
    bool schemaWritten_ = false;
    bool finished_ = false;
};

/** One decoded timeline row. */
struct TimelineSample
{
    uint64_t end_cycle = 0;
    std::vector<int64_t> deltas;  ///< one per counter series
    std::vector<uint64_t> gauges; ///< one per gauge series
};

/** Reader of a poat-timeline v2 file. */
class TimelineReader
{
  public:
    /**
     * Read and validate @p path.
     * @throws std::runtime_error naming the file and the defect.
     */
    explicit TimelineReader(const std::string &path);

    uint64_t interval() const { return interval_; }

    /** Simulated cores recorded in the header (0 if never set). */
    uint32_t cores() const { return cores_; }

    const std::vector<std::string> &counterNames() const
    {
        return counterNames_;
    }
    const std::vector<std::string> &gaugeNames() const
    {
        return gaugeNames_;
    }
    const std::vector<TimelineSample> &samples() const { return samples_; }

  private:
    uint64_t interval_ = 0;
    uint32_t cores_ = 0;
    std::vector<std::string> counterNames_;
    std::vector<std::string> gaugeNames_;
    std::vector<TimelineSample> samples_;
};

/** Write the timeline as CSV: end_cycle, counter deltas, gauges. */
void dumpCsv(const TimelineReader &tl, std::ostream &os);

/** Write the timeline as a JSON document (schema + sample rows). */
void dumpJson(const TimelineReader &tl, std::ostream &os);

/**
 * Write Chrome-trace counter events ("ph":"C", chrome://tracing /
 * Perfetto): one counter track per series, with the components of each
 * CPI stack merged into a single multi-value track so the viewer
 * stacks them.
 */
void dumpChrome(const TimelineReader &tl, std::ostream &os);

} // namespace telemetry
} // namespace poat

#endif // POAT_TELEMETRY_TIMELINE_H
