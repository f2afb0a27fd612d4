/**
 * @file
 * Interval telemetry: poat-timeline sampling math, file roundtrip, and
 * the observer-only guarantee — attaching a TimelineSampler to a run
 * changes no metric, no stat, and no checksum, on the live, captured,
 * and replayed paths alike, while the stream itself reconstructs the
 * run's aggregates and keeps every row's CPI components summing to the
 * row's cycle delta.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "driver/experiment.h"
#include "telemetry/timeline.h"

namespace poat {
namespace telemetry {
namespace {

std::string
tmpDir()
{
    static const std::string dir = [] {
        std::string d = testing::TempDir() + "timeline_test." +
            std::to_string(::getpid());
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir;
}

std::string
tmpFile(const std::string &name)
{
    return tmpDir() + "/" + name;
}

/** A hand-driven registry standing in for a machine's stats. */
struct FakeSource
{
    StatsRegistry reg;

    FakeSource()
    {
        reg.counter("a.ops") = 0;
        reg.counter("b.ops") = 0;
    }

    std::function<const StatsRegistry &()>
    fn()
    {
        return [this]() -> const StatsRegistry & { return reg; };
    }
};

TEST(TimelineSampler, RowCountIsCeilOfCyclesOverInterval)
{
    // 0 cycles -> 1 row (finish always records the run's end state);
    // exact multiples -> cycles/N rows; anything else rounds up.
    const struct
    {
        uint64_t cycles;
        uint64_t rows;
    } cases[] = {{0, 1}, {1, 1}, {99, 1}, {100, 1}, {101, 2},
                 {250, 3}, {300, 3}, {1000, 10}};
    for (const auto &c : cases) {
        FakeSource src;
        const std::string p = tmpFile("rows." + std::to_string(c.cycles));
        TimelineSampler s(100, p);
        s.setStatsSource(src.fn());
        for (uint64_t cyc = 0; cyc <= c.cycles; ++cyc) {
            src.reg.counter("a.ops") = cyc;
            s.tick(cyc);
        }
        s.finish(c.cycles);
        EXPECT_EQ(s.samples(), c.rows) << c.cycles << " cycles";
        const TimelineReader r(p);
        EXPECT_EQ(r.samples().size(), c.rows) << c.cycles << " cycles";
    }
}

TEST(TimelineSampler, DeltasReconstructTheAggregate)
{
    FakeSource src;
    const std::string p = tmpFile("deltas");
    TimelineSampler s(10, p);
    s.setStatsSource(src.fn());
    for (uint64_t cyc = 0; cyc <= 57; ++cyc) {
        src.reg.counter("a.ops") = 3 * cyc;
        src.reg.counter("b.ops") = cyc / 2;
        s.tick(cyc);
    }
    s.finish(57);

    const TimelineReader r(p);
    ASSERT_EQ(r.counterNames().size(), 2u);
    EXPECT_EQ(r.counterNames()[0], "a.ops");
    EXPECT_EQ(r.counterNames()[1], "b.ops");
    EXPECT_EQ(r.interval(), 10u);
    ASSERT_EQ(r.samples().size(), 6u); // ceil(57/10)

    int64_t a = 0, b = 0;
    for (const TimelineSample &row : r.samples()) {
        ASSERT_EQ(row.deltas.size(), 2u);
        a += row.deltas[0];
        b += row.deltas[1];
    }
    EXPECT_EQ(a, 3 * 57);
    EXPECT_EQ(b, 57 / 2);
    EXPECT_EQ(r.samples().back().end_cycle, 57u);
}

TEST(TimelineSampler, JumpingSeveralBoundariesEmitsZeroDeltaRows)
{
    FakeSource src;
    const std::string p = tmpFile("jump");
    TimelineSampler s(10, p);
    s.setStatsSource(src.fn());
    src.reg.counter("a.ops") = 7;
    s.tick(45); // one event landing past boundaries 10, 20, 30, 40
    s.finish(45);

    const TimelineReader r(p);
    ASSERT_EQ(r.samples().size(), 5u); // ceil(45/10)
    // The accumulated delta lands on the first crossed boundary...
    EXPECT_EQ(r.samples()[0].end_cycle, 10u);
    EXPECT_EQ(r.samples()[0].deltas[0], 7);
    // ...the jumped boundaries read zero...
    for (size_t i = 1; i < 4; ++i) {
        EXPECT_EQ(r.samples()[i].end_cycle, 10u * (i + 1));
        EXPECT_EQ(r.samples()[i].deltas[0], 0) << i;
    }
    // ...and the tail row covers the partial last interval.
    EXPECT_EQ(r.samples()[4].end_cycle, 45u);
}

TEST(TimelineSampler, GaugesAreSampledAbsolutely)
{
    FakeSource src;
    uint64_t level = 0;
    const std::string p = tmpFile("gauges");
    TimelineSampler s(10, p);
    s.setStatsSource(src.fn());
    s.addGauge("test.level", [&level] { return level; });
    level = 5;
    s.tick(10);
    level = 3;
    s.tick(20);
    s.finish(25);

    const TimelineReader r(p);
    ASSERT_EQ(r.gaugeNames().size(), 1u);
    EXPECT_EQ(r.gaugeNames()[0], "test.level");
    ASSERT_EQ(r.samples().size(), 3u);
    EXPECT_EQ(r.samples()[0].gauges[0], 5u); // absolute, not delta
    EXPECT_EQ(r.samples()[1].gauges[0], 3u);
    EXPECT_EQ(r.samples()[2].gauges[0], 3u);
}

TEST(TimelineSampler, FinishIsIdempotent)
{
    FakeSource src;
    const std::string p = tmpFile("idem");
    TimelineSampler s(10, p);
    s.setStatsSource(src.fn());
    s.tick(15);
    s.finish(15);
    const uint64_t n = s.samples();
    s.finish(15);
    EXPECT_EQ(s.samples(), n);
    const TimelineReader r(p);
    EXPECT_EQ(r.samples().size(), n);
}

TEST(TimelineReader, RejectsGarbage)
{
    const std::string p = tmpFile("garbage");
    {
        std::FILE *f = std::fopen(p.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not a timeline", f);
        std::fclose(f);
    }
    EXPECT_THROW(TimelineReader r(p), std::runtime_error);
    EXPECT_THROW(TimelineReader r(tmpFile("missing")),
                 std::runtime_error);
}

TEST(TimelineReader, CutRowNamesTheFileAndTheVarintDefect)
{
    // Drop the last byte of a valid stream: its final row now ends
    // inside a varint, a defect the shared codec reports and the
    // timeline format names in its own words.
    FakeSource src;
    const std::string p = tmpFile("cut");
    {
        TimelineSampler s(10, p);
        s.setStatsSource(src.fn());
        src.reg.counter("a.ops") = 300; // a 2-byte delta varint
        s.tick(10);
        s.finish(10);
    }
    std::filesystem::resize_file(p, std::filesystem::file_size(p) - 1);
    try {
        const TimelineReader r(p);
        ADD_FAILURE() << "cut stream was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("poat-timeline: " + p +
                                             ": truncated varint"),
                  std::string::npos)
            << e.what();
    }
}

// ---- driver-level properties ------------------------------------------

driver::ExperimentConfig
tinyCfg(const std::string &wl, TranslationMode mode)
{
    driver::ExperimentConfig c;
    c.workload = wl;
    c.pattern = workloads::PoolPattern::Random;
    c.scale_pct = 5;
    c.tpcc_scale_pct = 1;
    c.tpcc_txns = 25;
    c.mode = mode;
    return c;
}

std::string
statsJson(const driver::ExperimentResult &res)
{
    std::ostringstream os;
    res.stats.dumpJson(os);
    return os.str();
}

driver::ExperimentConfig
withTimeline(driver::ExperimentConfig c, const std::string &path,
             uint64_t interval = 5000)
{
    c.timeline_interval = interval;
    c.timeline_path = path;
    return c;
}

TEST(TimelineObserver, LiveRunIsBitIdenticalWithTimelineOn)
{
    for (const std::string wl : {"LL", "BST", "TPCC"}) {
        for (const auto mode :
             {TranslationMode::Software, TranslationMode::Hardware}) {
            const auto cfg = tinyCfg(wl, mode);
            const auto off = driver::runExperiment(cfg);
            const auto on = driver::runExperiment(withTimeline(
                cfg, tmpFile("obs." + wl + driver::configLabel(cfg))));
            EXPECT_EQ(off.metrics.cycles, on.metrics.cycles) << wl;
            EXPECT_EQ(off.metrics.instructions, on.metrics.instructions)
                << wl;
            EXPECT_EQ(off.workload_checksum, on.workload_checksum) << wl;
            EXPECT_EQ(statsJson(off), statsJson(on)) << wl;
        }
    }
}

TEST(TimelineObserver, CapturedAndReplayedRunsMatchWithTimelineOn)
{
    const auto cfg = tinyCfg("BST", TranslationMode::Hardware);
    const std::string trace = tmpFile("bst.itrace");
    const auto live = driver::runExperiment(cfg);
    const auto cap = driver::detail::runExperimentCaptured(
        withTimeline(cfg, tmpFile("cap.poattl")), trace);
    const auto rep = driver::detail::runExperimentReplayed(
        withTimeline(cfg, tmpFile("rep.poattl")), trace);
    EXPECT_EQ(live.metrics.cycles, cap.metrics.cycles);
    EXPECT_EQ(live.metrics.cycles, rep.metrics.cycles);
    EXPECT_EQ(statsJson(live), statsJson(cap));
    EXPECT_EQ(statsJson(live), statsJson(rep));

    // Both timelines decode; the replayed one carries the machine
    // gauge only (no live runtime to read undo-log/allocator depth).
    const TimelineReader ct(tmpFile("cap.poattl"));
    const TimelineReader rt(tmpFile("rep.poattl"));
    EXPECT_EQ(ct.gaugeNames().size(), 3u);
    EXPECT_EQ(rt.gaugeNames().size(), 1u);
    EXPECT_EQ(ct.samples().size(), rt.samples().size());
    for (size_t i = 0; i < ct.samples().size(); ++i)
        EXPECT_EQ(ct.samples()[i].deltas, rt.samples()[i].deltas) << i;
}

TEST(TimelineSampler, V2HeaderRoundtripsCoreCount)
{
    FakeSource src;
    const std::string p = tmpFile("v2cores");
    TimelineSampler s(100, p);
    s.setStatsSource(src.fn());
    s.setCores(3);
    s.tick(0);
    s.finish(10);
    const TimelineReader r(p);
    EXPECT_EQ(r.cores(), 3u);

    // A sampler that never learns a core count writes 0 (pre-v2
    // producers' files decode the same way).
    const std::string q = tmpFile("v2nocores");
    TimelineSampler s0(100, q);
    s0.setStatsSource(src.fn());
    s0.tick(0);
    s0.finish(10);
    EXPECT_EQ(TimelineReader(q).cores(), 0u);
}

TEST(TimelineObserver, ConcurrentRunEmitsPerCoreLanes)
{
    // A multi-core run with timeline_cores on: the header carries the
    // core count, every core contributes a blocked-reason gauge lane,
    // and within every interval each core's CPI-component deltas sum
    // exactly to that core's cycle delta.
    driver::ExperimentConfig cfg;
    cfg.workload = "LHT";
    cfg.scale_pct = 10;
    cfg.threads = 4;
    cfg.sched_seed = 7;
    cfg.mode = TranslationMode::Hardware;
    cfg.seed = 1;
    cfg.timeline_interval = 5000;
    cfg.timeline_path = tmpFile("lanes.poattl");
    cfg.timeline_cores = true;
    const auto res = driver::runExperiment(cfg);

    const TimelineReader r(cfg.timeline_path);
    EXPECT_EQ(r.cores(), 4u);
    for (uint32_t c = 0; c < 4; ++c) {
        for (const char *reason :
             {"token_wait", "lock_wait", "commit_wait", "idle_done"}) {
            const std::string g = "sched.core." + std::to_string(c) +
                ".blocked." + reason + ".total";
            EXPECT_NE(std::find(r.gaugeNames().begin(),
                                r.gaugeNames().end(), g),
                      r.gaugeNames().end())
                << g;
        }
    }

    for (uint32_t c = 0; c < 4; ++c) {
        const std::string pre = "core." + std::to_string(c) + ".";
        int cycles_at = -1;
        std::vector<size_t> cpi_at;
        for (size_t i = 0; i < r.counterNames().size(); ++i) {
            if (r.counterNames()[i] == pre + "cycles")
                cycles_at = static_cast<int>(i);
            if (r.counterNames()[i].rfind(pre + "cpi.", 0) == 0)
                cpi_at.push_back(i);
        }
        ASSERT_GE(cycles_at, 0) << pre;
        ASSERT_EQ(cpi_at.size(), kCpiComponents) << pre;
        int64_t total = 0;
        for (const TimelineSample &row : r.samples()) {
            int64_t sum = 0;
            for (const size_t i : cpi_at)
                sum += row.deltas[i];
            EXPECT_EQ(sum, row.deltas[static_cast<size_t>(cycles_at)])
                << pre << "row ending " << row.end_cycle;
            total += row.deltas[static_cast<size_t>(cycles_at)];
        }
        const uint64_t final_cycles = res.stats.counters().at(
            pre + "cycles");
        EXPECT_EQ(static_cast<uint64_t>(total), final_cycles) << pre;
    }

    // The lanes are observer-only: the identical run without them
    // produces a bit-identical stats report.
    auto off = cfg;
    off.timeline_interval = 0;
    off.timeline_path.clear();
    off.timeline_cores = false;
    const auto plain = driver::runExperiment(off);
    EXPECT_EQ(statsJson(plain), statsJson(res));
}

TEST(TimelineObserver, PerIntervalCpiComponentsSumToCycleDelta)
{
    const auto cfg = tinyCfg("LL", TranslationMode::Software);
    const std::string p = tmpFile("cpisum.poattl");
    const auto res = driver::runExperiment(withTimeline(cfg, p, 2000));

    const TimelineReader r(p);
    ASSERT_GT(r.samples().size(), 3u) << "want a multi-row timeline";
    int cycles_at = -1;
    std::vector<size_t> cpi_at;
    for (size_t i = 0; i < r.counterNames().size(); ++i) {
        if (r.counterNames()[i] == "core.cycles")
            cycles_at = static_cast<int>(i);
        if (r.counterNames()[i].rfind("core.cpi.", 0) == 0)
            cpi_at.push_back(i);
    }
    ASSERT_GE(cycles_at, 0);
    ASSERT_EQ(cpi_at.size(), kCpiComponents);

    uint64_t prev_end = 0, total = 0;
    for (const TimelineSample &row : r.samples()) {
        int64_t sum = 0;
        for (const size_t i : cpi_at)
            sum += row.deltas[i];
        EXPECT_EQ(sum, row.deltas[cycles_at])
            << "row ending " << row.end_cycle;
        EXPECT_GT(row.end_cycle, prev_end);
        prev_end = row.end_cycle;
        total += static_cast<uint64_t>(row.deltas[cycles_at]);
    }
    EXPECT_EQ(total, res.metrics.cycles);
    EXPECT_EQ(prev_end, res.metrics.cycles);
}

TEST(TxSpans, StatsReportCommitsAndPerOpLatencies)
{
    const auto cfg = tinyCfg("LL", TranslationMode::Software);
    const auto res = driver::runExperiment(cfg);

    const auto &c = res.stats.counters();
    ASSERT_TRUE(c.count("tx.begins"));
    const uint64_t begins = c.at("tx.begins");
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, c.at("tx.commits") + c.at("tx.aborts"));
    EXPECT_EQ(c.at("tx.aborts"), 0u);

    const auto &h = res.stats.histograms();
    ASSERT_TRUE(h.count("tx.latency"));
    EXPECT_EQ(h.at("tx.latency").count(), c.at("tx.commits"));
    EXPECT_GT(h.at("tx.latency").quantile(0.5), 0.0);
    ASSERT_TRUE(h.count("tx.durability_events"));
    EXPECT_GT(h.at("tx.durability_events").mean(), 0.0);

    // LL commits both operation kinds; their histograms partition the
    // overall latency population.
    ASSERT_TRUE(h.count("tx.op.insert.latency"));
    ASSERT_TRUE(h.count("tx.op.remove.latency"));
    EXPECT_EQ(h.at("tx.op.insert.latency").count() +
                  h.at("tx.op.remove.latency").count(),
              c.at("tx.commits"));
}

TEST(TxSpans, NtxRunsOpenNoTransactions)
{
    auto cfg = tinyCfg("LL", TranslationMode::Software);
    cfg.transactions = false;
    const auto res = driver::runExperiment(cfg);
    EXPECT_EQ(res.stats.counters().at("tx.begins"), 0u);
    EXPECT_EQ(res.stats.histograms().at("tx.latency").count(), 0u);
}

} // namespace
} // namespace telemetry
} // namespace poat
