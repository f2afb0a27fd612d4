/**
 * @file
 * Per-run Chrome trace of the translation machinery.
 *
 * A ChromeTraceExporter observes one machine (telemetry/observer.h) and
 * writes the run's nv accesses as Chrome trace_event JSON, loadable in
 * chrome://tracing or https://ui.perfetto.dev. Each retired nv access
 * becomes up to three complete ("ph":"X") events, all stamped with the
 * core clock before the access was charged:
 *
 *  - "polb.hit" (POLB latency) or "pot.walk" (walk cycles);
 *  - "tlb.miss" (walk cycles), when the translated access missed the
 *    D-TLB;
 *  - "nv.load", "nv.store" or "nv.flush", whose latency is the whole
 *    access: translation plus the cache access or the flush.
 *
 * "dur" is the latency clamped to 1, so zero-latency hits stay
 * visible; args carry "oid", "outcome" and "latency_cycles". Each
 * component ("polb", "pot", "tlb", "nv") is one lane (a Chrome tid with
 * thread_name metadata); after the machine's first core switch, events
 * land on "c<N>.<component>" lanes for the core that retired them.
 * Named markers (the driver's begin and end of run) become global
 * instant events. Cycles are written as Chrome microseconds.
 *
 * Events are kept in a bounded ring of kCapacity: the oldest are
 * dropped, and the count lost is written as otherData.dropped_events.
 */
#ifndef POAT_TELEMETRY_CHROME_TRACE_H
#define POAT_TELEMETRY_CHROME_TRACE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/observer.h"

namespace poat {
namespace telemetry {

/** Observer writing one run's translation events as Chrome JSON. */
class ChromeTraceExporter : public Observer
{
  public:
    /** Events kept (a 32 MB ring at most). */
    static constexpr size_t kCapacity = size_t{1} << 20;

    /**
     * @param path Output file, created now and written by finish().
     * @throws std::runtime_error if the file cannot be created.
     */
    explicit ChromeTraceExporter(std::string path);
    ~ChromeTraceExporter() override;

    ChromeTraceExporter(const ChromeTraceExporter &) = delete;
    ChromeTraceExporter &operator=(const ChromeTraceExporter &) = delete;

    void retired(const Retired &r) override;
    void coreSwitched(uint32_t core) override { lane_ = core + 1; }

    /** Add a global instant event named @p label at @p cycle. */
    void marker(uint64_t cycle, std::string label);

    /** Events currently kept. */
    size_t recorded() const { return ring_.size(); }

    /** Events lost to the ring wrapping. */
    uint64_t dropped() const { return total_ - ring_.size(); }

    /**
     * Write the JSON (markers, then the kept events oldest first, then
     * the lane names) and close the file. Idempotent.
     * @throws std::runtime_error on I/O failure.
     */
    void finish();

  private:
    /** One complete event; name indexes the exporter's name table. */
    struct Event
    {
        uint64_t cycle;
        uint64_t oid;
        uint32_t latency;
        uint32_t lane; ///< 0 = flat lanes, N + 1 = core N's lanes
        uint8_t name;
    };

    void record(uint64_t cycle, uint8_t name, uint64_t oid,
                uint32_t latency);

    std::string path_;
    std::FILE *f_ = nullptr;
    std::vector<Event> ring_; ///< grows to kCapacity, then wraps
    uint64_t total_ = 0;
    uint32_t lane_ = 0;
    std::vector<std::pair<uint64_t, std::string>> markers_;
};

} // namespace telemetry
} // namespace poat

#endif // POAT_TELEMETRY_CHROME_TRACE_H
