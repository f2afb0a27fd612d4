/**
 * @file
 * The Chrome-trace exporter: its JSON mapping of a hand-fed record
 * stream (event names, pre-charge stamps, dur clamped to 1, per-core
 * lanes after a switch, markers, lane names), its bounded ring, and a
 * counter oracle — on real runs of both POLB designs and a 2-core run,
 * the exported events count exactly what the machine's stats count.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "telemetry/chrome_trace.h"

namespace poat {
namespace telemetry {
namespace {

std::string
tmpFile(const std::string &name)
{
    static const std::string dir = [] {
        std::string d = testing::TempDir() + "chrome_trace_test." +
            std::to_string(::getpid());
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

Retired
nv(Retired::Kind kind, uint64_t start, uint64_t end, uint64_t oid,
   bool hit, uint32_t polb, uint32_t pot, uint32_t tlb, uint32_t data)
{
    Retired r;
    r.kind = kind;
    r.start_cycle = start;
    r.end_cycle = end;
    r.oid = oid;
    r.polb_hit = hit;
    r.polb_cycles = polb;
    r.pot_cycles = pot;
    r.tlb_cycles = tlb;
    r.data_cycles = data;
    return r;
}

TEST(ChromeTrace, MapsAHandFedStreamToChromeJson)
{
    const std::string path = tmpFile("hand.json");
    ChromeTraceExporter t(path);
    t.marker(0, "begin run \"x\"");
    Retired alu;
    alu.start_cycle = 0;
    alu.end_cycle = 10;
    t.retired(alu); // not an nv access: no event
    t.retired(nv(Retired::Kind::NvLoad, 10, 15, 0x100000040, true, 0, 0,
                 0, 3));
    t.retired(nv(Retired::Kind::NvStore, 20, 60, 0x200000000, false, 1,
                 30, 0, 4));
    t.coreSwitched(1);
    t.retired(nv(Retired::Kind::NvClwb, 5, 130, 0x100000080, true, 1, 0,
                 20, 100));
    t.marker(130, "end");
    t.finish();
    t.finish(); // idempotent
    EXPECT_EQ(t.recorded(), 7u);
    EXPECT_EQ(t.dropped(), 0u);

    const char *want = R"json({"traceEvents": [
  {"name": "begin run \"x\"", "ph": "i", "s": "g", "ts": 0, "pid": 1, "tid": 0},
  {"name": "end", "ph": "i", "s": "g", "ts": 130, "pid": 1, "tid": 0},
  {"name": "polb.hit", "cat": "polb", "ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1, "args": {"oid": "0x100000040", "outcome": "hit", "latency_cycles": 0}},
  {"name": "nv.load", "cat": "nv", "ph": "X", "ts": 10, "dur": 3, "pid": 1, "tid": 2, "args": {"oid": "0x100000040", "outcome": "load", "latency_cycles": 3}},
  {"name": "pot.walk", "cat": "pot", "ph": "X", "ts": 20, "dur": 30, "pid": 1, "tid": 3, "args": {"oid": "0x200000000", "outcome": "walk", "latency_cycles": 30}},
  {"name": "nv.store", "cat": "nv", "ph": "X", "ts": 20, "dur": 35, "pid": 1, "tid": 2, "args": {"oid": "0x200000000", "outcome": "store", "latency_cycles": 35}},
  {"name": "polb.hit", "cat": "polb", "ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 4, "args": {"oid": "0x100000080", "outcome": "hit", "latency_cycles": 1}},
  {"name": "tlb.miss", "cat": "tlb", "ph": "X", "ts": 5, "dur": 20, "pid": 1, "tid": 5, "args": {"oid": "0x100000080", "outcome": "miss", "latency_cycles": 20}},
  {"name": "nv.flush", "cat": "nv", "ph": "X", "ts": 5, "dur": 121, "pid": 1, "tid": 6, "args": {"oid": "0x100000080", "outcome": "flush", "latency_cycles": 121}},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 6, "args": {"name": "c1.nv"}},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "args": {"name": "c1.polb"}},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 5, "args": {"name": "c1.tlb"}},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "nv"}},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "polb"}},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "pot"}}
], "displayTimeUnit": "ms", "otherData": {"source": "poat", "time_unit": "cycles", "dropped_events": 0}}
)json";
    EXPECT_EQ(slurp(path), want);
}

TEST(ChromeTrace, RingDropsTheOldestAndCountsThem)
{
    const std::string path = tmpFile("ring.json");
    {
        ChromeTraceExporter t(path);
        // Each POLB-hit load is two events, so one load more than half
        // the ring drops the first load's pair.
        const uint64_t loads = ChromeTraceExporter::kCapacity / 2 + 1;
        for (uint64_t i = 0; i < loads; ++i)
            t.retired(
                nv(Retired::Kind::NvLoad, i, i + 1, i, true, 0, 0, 0, 3));
        EXPECT_EQ(t.recorded(), ChromeTraceExporter::kCapacity);
        EXPECT_EQ(t.dropped(), 2u);
        t.finish();
    }

    // The survivors start at the second load, oldest first, and the
    // trailer counts the two dropped events. Read only the two ends of
    // the file (it holds 2^20 events).
    std::ifstream in(path, std::ios::binary);
    std::string head(1024, '\0');
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    in.seekg(-256, std::ios::end);
    std::string tail(256, '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
    in.close();
    std::filesystem::remove(path);
    EXPECT_EQ(head.find("\"ts\": 0,"), std::string::npos);
    const size_t first = head.find("\"name\": \"polb.hit\"");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(head.find("\"ts\": 1,", first),
              head.find("\"ts\": ", first));
    EXPECT_NE(tail.find("\"dropped_events\": 2}}\n"), std::string::npos);
}

TEST(ChromeTrace, UnwritablePathThrows)
{
    EXPECT_THROW(ChromeTraceExporter(tmpFile("no/such/dir/t.json")),
                 std::runtime_error);
}

/** Complete events of an exported file: name and lane, in order. */
struct Exported
{
    std::vector<std::pair<std::string, std::string>> events;
    std::map<std::string, uint64_t> byName;
    std::map<std::string, uint64_t> latencyByName; ///< summed
};

/** The value after @p key in @p line, up to the next quote or comma. */
std::string
field(const std::string &line, const std::string &key)
{
    const size_t at = line.find(key);
    if (at == std::string::npos)
        return "";
    const size_t from = at + key.size();
    return line.substr(from, line.find_first_of("\",}", from) - from);
}

Exported
parse(const std::string &path)
{
    // One event per line: complete events first, lane names last.
    std::vector<std::string> lines;
    std::istringstream in(slurp(path));
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::map<std::string, std::string> lanes; // tid -> lane name
    for (const std::string &line : lines)
        if (field(line, "{\"name\": \"") == "thread_name")
            lanes[field(line, "\"tid\": ")] =
                field(line, "\"args\": {\"name\": \"");
    Exported e;
    for (const std::string &line : lines) {
        if (field(line, "\"ph\": \"") != "X")
            continue;
        const std::string name = field(line, "{\"name\": \"");
        e.events.emplace_back(name, lanes.at(field(line, "\"tid\": ")));
        ++e.byName[name];
        e.latencyByName[name] +=
            std::stoull(field(line, "\"latency_cycles\": "));
    }
    return e;
}

/**
 * The exported events count what the run's stats count, and their
 * latencies sum to what the run's latency histograms summed.
 */
void
expectCountsMatchStats(const driver::ExperimentConfig &cfg,
                       const Exported &e, const StatsRegistry &stats)
{
    const std::string what = driver::configLabel(cfg);
    const auto stat = [&stats](const char *name) {
        return stats.counters().at(name);
    };
    const auto count = [&e](const char *name) {
        const auto it = e.byName.find(name);
        return it == e.byName.end() ? uint64_t{0} : it->second;
    };
    EXPECT_GT(count("nv.load"), 0u) << what;
    EXPECT_EQ(count("nv.load"), stat("mem.nv_loads")) << what;
    EXPECT_EQ(count("nv.store"), stat("mem.nv_stores")) << what;
    EXPECT_EQ(count("polb.hit"), stat("polb.hits")) << what;
    EXPECT_EQ(count("pot.walk"), stat("pot.walks")) << what;
    EXPECT_EQ(count("nv.flush"), stat("polb.accesses") -
                                     stat("mem.nv_loads") -
                                     stat("mem.nv_stores"))
        << what;
    const auto sum = [&stats](const char *name) {
        return stats.histograms().at(name).sum();
    };
    EXPECT_EQ(e.latencyByName.at("nv.load"), sum("mem.nv_load_latency"))
        << what;
    EXPECT_EQ(e.latencyByName.at("nv.store"),
              sum("mem.nv_store_latency"))
        << what;
    EXPECT_EQ(e.latencyByName.at("pot.walk"), sum("pot.walk_latency"))
        << what;
}

TEST(ChromeTrace, EventCountsMatchTheRunsStats)
{
    for (const auto design :
         {sim::PolbDesign::Pipelined, sim::PolbDesign::Parallel}) {
        driver::ExperimentConfig cfg;
        cfg.workload = "B+T";
        cfg.pattern = workloads::PoolPattern::Random;
        cfg.scale_pct = 5;
        cfg.mode = TranslationMode::Hardware;
        cfg.machine.polb_design = design;
        cfg.trace_path = tmpFile(driver::configLabel(cfg) + ".json");
        const auto res = driver::runExperiment(cfg);
        const Exported e = parse(cfg.trace_path);
        expectCountsMatchStats(cfg, e, res.stats);
        EXPECT_NE(slurp(cfg.trace_path).find("\"dropped_events\": 0}"),
                  std::string::npos);
        for (const auto &[name, lane] : e.events)
            EXPECT_EQ(lane.find('.'), std::string::npos) << lane;
    }
}

TEST(ChromeTrace, MultiCoreRunsSplitLanesPerCore)
{
    driver::ExperimentConfig cfg;
    cfg.workload = "LHT";
    cfg.scale_pct = 5;
    cfg.threads = 2;
    cfg.sched_seed = 3;
    cfg.mode = TranslationMode::Hardware;
    cfg.trace_path = tmpFile("lht.json");
    const auto res = driver::runExperiment(cfg);
    const Exported e = parse(cfg.trace_path);
    expectCountsMatchStats(cfg, e, res.stats);
    EXPECT_NE(slurp(cfg.trace_path).find("\"dropped_events\": 0}"),
              std::string::npos);

    // Flat lanes until the first switch, then c<N>. lanes only, and
    // both cores retire nv accesses.
    size_t first = e.events.size();
    std::map<std::string, uint64_t> perCore;
    for (size_t i = 0; i < e.events.size(); ++i) {
        const std::string &lane = e.events[i].second;
        const bool split = lane.rfind("c", 0) == 0 &&
            lane.find('.') != std::string::npos;
        if (split) {
            first = std::min(first, i);
            ++perCore[lane.substr(0, lane.find('.'))];
        } else {
            EXPECT_EQ(first, e.events.size())
                << "flat lane " << lane << " after a switch, event " << i;
        }
    }
    EXPECT_LT(first, e.events.size());
    EXPECT_GT(perCore["c0"], 0u);
    EXPECT_GT(perCore["c1"], 0u);
}

} // namespace
} // namespace telemetry
} // namespace poat
