#include "telemetry/chrome_trace.h"

#include <cinttypes>
#include <map>
#include <stdexcept>

#include "common/json.h"

namespace poat {
namespace telemetry {

namespace {

/** Event names, indexed by Event::name. */
struct EventName
{
    const char *name;
    const char *component; ///< category and lane
    const char *outcome;
};

constexpr EventName kNames[] = {
    {"polb.hit", "polb", "hit"}, {"pot.walk", "pot", "walk"},
    {"tlb.miss", "tlb", "miss"}, {"nv.load", "nv", "load"},
    {"nv.store", "nv", "store"}, {"nv.flush", "nv", "flush"},
};

enum : uint8_t { kPolbHit, kPotWalk, kTlbMiss, kNvLoad, kNvStore,
                 kNvFlush };

[[noreturn]] void
badFile(const std::string &path, const std::string &why)
{
    throw std::runtime_error("chrome trace: " + path + ": " + why);
}

} // namespace

ChromeTraceExporter::ChromeTraceExporter(std::string path)
    : path_(std::move(path))
{
    f_ = std::fopen(path_.c_str(), "wb");
    if (!f_)
        badFile(path_, "cannot create trace file");
}

ChromeTraceExporter::~ChromeTraceExporter()
{
    if (f_)
        std::fclose(f_);
}

void
ChromeTraceExporter::record(uint64_t cycle, uint8_t name, uint64_t oid,
                            uint32_t latency)
{
    const Event e{cycle, oid, latency, lane_, name};
    if (ring_.size() < kCapacity)
        ring_.push_back(e);
    else
        ring_[total_ % kCapacity] = e;
    ++total_;
}

void
ChromeTraceExporter::retired(const Retired &r)
{
    if (!r.isNv())
        return;
    if (r.polb_hit)
        record(r.start_cycle, kPolbHit, r.oid, r.polb_cycles);
    else
        record(r.start_cycle, kPotWalk, r.oid, r.pot_cycles);
    if (r.tlb_cycles != 0)
        record(r.start_cycle, kTlbMiss, r.oid, r.tlb_cycles);
    const uint8_t access = r.kind == Retired::Kind::NvLoad ? kNvLoad
        : r.kind == Retired::Kind::NvStore                ? kNvStore
                                                          : kNvFlush;
    record(r.start_cycle, access, r.oid,
           r.polb_cycles + r.pot_cycles + r.tlb_cycles + r.data_cycles);
}

void
ChromeTraceExporter::marker(uint64_t cycle, std::string label)
{
    markers_.emplace_back(cycle, std::move(label));
}

void
ChromeTraceExporter::finish()
{
    if (!f_)
        return;
    std::FILE *f = f_;
    const char *sep = "\n";
    std::fputs("{\"traceEvents\": [", f);
    for (const auto &[cycle, label] : markers_) {
        std::fprintf(f,
                     "%s  {\"name\": \"%s\", \"ph\": \"i\", \"s\": "
                     "\"g\", \"ts\": %" PRIu64 ", \"pid\": 1, "
                     "\"tid\": 0}",
                     sep, jsonEscape(label).c_str(), cycle);
        sep = ",\n";
    }

    // One tid per lane, in order of first appearance.
    std::map<std::string, int> tids;
    const size_t start = total_ - ring_.size(); // oldest kept event
    for (size_t i = 0; i < ring_.size(); ++i) {
        const Event &e = ring_[(start + i) % ring_.size()];
        const EventName &n = kNames[e.name];
        char lane[32];
        if (e.lane != 0)
            std::snprintf(lane, sizeof(lane), "c%" PRIu32 ".%s",
                          e.lane - 1, n.component);
        else
            std::snprintf(lane, sizeof(lane), "%s", n.component);
        const int tid =
            tids.emplace(lane, static_cast<int>(tids.size()) + 1)
                .first->second;
        std::fprintf(f,
                     "%s  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                     "\"X\", \"ts\": %" PRIu64 ", \"dur\": %" PRIu32
                     ", \"pid\": 1, \"tid\": %d, \"args\": {\"oid\": "
                     "\"0x%" PRIx64 "\", \"outcome\": \"%s\", "
                     "\"latency_cycles\": %" PRIu32 "}}",
                     sep, n.name, n.component, e.cycle,
                     e.latency == 0 ? 1 : e.latency, tid, e.oid,
                     n.outcome, e.latency);
        sep = ",\n";
    }
    for (const auto &[lane, tid] : tids) {
        std::fprintf(f,
                     "%s  {\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": %d, \"args\": {\"name\": "
                     "\"%s\"}}",
                     sep, tid, lane.c_str());
        sep = ",\n";
    }
    std::fprintf(f,
                 "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
                 "{\"source\": \"poat\", \"time_unit\": \"cycles\", "
                 "\"dropped_events\": %" PRIu64 "}}\n",
                 dropped());
    const bool ok = !std::ferror(f);
    f_ = nullptr;
    if (std::fclose(f) != 0 || !ok)
        badFile(path_, "cannot write trace file");
}

} // namespace telemetry
} // namespace poat
