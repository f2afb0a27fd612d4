/**
 * @file
 * Driver-level tests for the concurrent workloads: BASE/OPT functional
 * equivalence, per-core statistics (and the per-core CPI invariant),
 * single-core stats-key compatibility, engine.* counter export, sweep
 * equivalence across --jobs values, and the concurrency-observability
 * subtrees (lock.*, sched.*, cp.*, tx.abort.*, commit.batch.*) with
 * their observer-only guarantees.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cpi.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "trace_io/itrace.h"

namespace poat {
namespace driver {
namespace {

ExperimentConfig
lhtConfig(TranslationMode mode, uint32_t threads)
{
    ExperimentConfig c;
    c.workload = "LHT";
    c.scale_pct = 10;
    c.threads = threads;
    c.sched_seed = 7;
    c.mode = mode;
    c.seed = 1;
    return c;
}

ExperimentConfig
mtpccConfig(TranslationMode mode, uint32_t threads)
{
    ExperimentConfig c;
    c.workload = "MTPCC";
    c.placement = workloads::tpcc::Placement::All;
    c.tpcc_scale_pct = 2;
    c.tpcc_txns = 30;
    c.threads = threads;
    c.sched_seed = 7;
    c.mode = mode;
    c.seed = 1;
    return c;
}

TEST(ConcurrentExperiment, BaseAndOptAgreeFunctionally)
{
    // Translation mode is a timing choice; the committed state — and
    // so the workload checksum — must be bit-identical across it.
    const auto lht_base =
        runExperiment(lhtConfig(TranslationMode::Software, 4));
    const auto lht_opt =
        runExperiment(lhtConfig(TranslationMode::Hardware, 4));
    EXPECT_EQ(lht_base.workload_checksum, lht_opt.workload_checksum);
    EXPECT_NE(lht_base.workload_checksum, 0u);

    const auto mt_base =
        runExperiment(mtpccConfig(TranslationMode::Software, 2));
    const auto mt_opt =
        runExperiment(mtpccConfig(TranslationMode::Hardware, 2));
    EXPECT_EQ(mt_base.workload_checksum, mt_opt.workload_checksum);
}

TEST(ConcurrentExperiment, ExportsPerCoreStatsAndCpiInvariant)
{
    const auto res =
        runExperiment(lhtConfig(TranslationMode::Hardware, 4));
    const auto &counters = res.stats.counters();
    ASSERT_TRUE(counters.count("core.count"));
    EXPECT_EQ(counters.at("core.count"), 4u);

    uint64_t makespan = 0;
    for (uint32_t i = 0; i < 4; ++i) {
        const std::string p = "core." + std::to_string(i) + ".";
        ASSERT_TRUE(counters.count(p + "cycles")) << p;
        const uint64_t cycles = counters.at(p + "cycles");
        EXPECT_GT(cycles, 0u) << "core " << i << " never ran";
        makespan = std::max(makespan, cycles);

        // Per-core CPI invariant: the stack's components sum exactly
        // to that core's cycles.
        ASSERT_TRUE(res.stats.cpiStacks().count(p + "cpi"));
        EXPECT_EQ(res.stats.cpiStacks().at(p + "cpi").total(), cycles);
    }
    // Machine-wide cycles is the makespan across cores.
    EXPECT_EQ(counters.at("core.cycles"), makespan);
    EXPECT_EQ(res.metrics.cycles, makespan);

    // Engine aggregates ride along as engine.* counters.
    ASSERT_TRUE(counters.count("engine.commits"));
    EXPECT_EQ(counters.at("engine.commits"), res.engine.commits);
    EXPECT_GT(res.engine.commits, 0u);
    EXPECT_GT(res.engine.switches, 0u);
}

TEST(ConcurrentExperiment, SingleCoreKeepsFlatStatsKeys)
{
    // Sequential workloads must emit exactly the historical flat names
    // — golden baselines and stats_diff gates depend on the shape.
    ExperimentConfig c;
    c.workload = "SPS";
    c.scale_pct = 5;
    c.mode = TranslationMode::Hardware;
    const auto res = runExperiment(c);
    const auto &counters = res.stats.counters();
    EXPECT_TRUE(counters.count("core.cycles"));
    EXPECT_FALSE(counters.count("core.count"));
    EXPECT_FALSE(counters.count("core.0.cycles"));
    ASSERT_TRUE(res.stats.cpiStacks().count("core.cpi"));
    EXPECT_EQ(res.stats.cpiStacks().at("core.cpi").total(),
              res.metrics.cycles);
}

TEST(ConcurrentExperiment, SweepIsJobCountInvariant)
{
    std::vector<ExperimentConfig> cfgs = {
        lhtConfig(TranslationMode::Software, 2),
        lhtConfig(TranslationMode::Hardware, 2),
        mtpccConfig(TranslationMode::Hardware, 2),
    };
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions wide;
    wide.jobs = 4;
    const auto a = runSweep(cfgs, serial);
    const auto b = runSweep(cfgs, wide);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].metrics.cycles, b[i].metrics.cycles) << i;
        EXPECT_EQ(a[i].workload_checksum, b[i].workload_checksum) << i;
        EXPECT_EQ(a[i].engine.commits, b[i].engine.commits) << i;
        EXPECT_EQ(a[i].engine.switches, b[i].engine.switches) << i;
    }
}

TEST(ConcurrentExperiment, SchedSeedChangesInterleavingNotSafety)
{
    // A different interleaving seed reorders commits (different
    // checksum is expected and fine) but every run still completes
    // all transactions.
    const auto a =
        runExperiment(mtpccConfig(TranslationMode::Hardware, 4));
    auto cfg = mtpccConfig(TranslationMode::Hardware, 4);
    cfg.sched_seed = 99;
    const auto b = runExperiment(cfg);
    EXPECT_EQ(a.engine.commits, b.engine.commits);
    EXPECT_EQ(a.workload_operations, b.workload_operations);
}

std::string
statsJson(const ExperimentResult &res)
{
    std::ostringstream os;
    res.stats.dumpJson(os);
    return os.str();
}

std::string
scratchDir()
{
    static const std::string dir = [] {
        std::string d = testing::TempDir() + "concurrent_exp_test." +
            std::to_string(::getpid());
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir;
}

TEST(ConcurrentExperiment, ContentionStatsPopulatedAtFourCores)
{
    for (const auto &cfg : {lhtConfig(TranslationMode::Hardware, 4),
                            mtpccConfig(TranslationMode::Hardware, 4)}) {
        const auto res = runExperiment(cfg);
        const auto &c = res.stats.counters();
        SCOPED_TRACE(cfg.workload);

        ASSERT_TRUE(c.count("lock.acquisitions"));
        EXPECT_GT(c.at("lock.acquisitions"), 0u);
        ASSERT_TRUE(c.count("lock.waits"));
        ASSERT_TRUE(c.count("lock.waits_for_edges"));
        ASSERT_TRUE(c.count("lock.deadlock_victims"));
        if (c.at("lock.waits") > 0) {
            // Any wait puts its key into the top-contended table.
            ASSERT_TRUE(c.count("lock.top.count"));
            EXPECT_GT(c.at("lock.top.count"), 0u);
            EXPECT_TRUE(c.count("lock.top.0.key"));
            EXPECT_TRUE(c.count("lock.top.0.wait_cycles"));
        }

        // Aborted/retried work attribution and group-commit occupancy.
        ASSERT_TRUE(c.count("tx.abort.count"));
        ASSERT_TRUE(c.count("tx.abort.wasted_total"));
        ASSERT_TRUE(c.count("commit.batch.windows"));
        EXPECT_GT(c.at("commit.batch.windows"), 0u);
        EXPECT_NE(res.stats.findHistogram("commit.batch.occupancy"),
                  nullptr);

        // Critical path: positive, bounded by the makespan, and cut
        // into at least one segment per core.
        ASSERT_TRUE(c.count("cp.length"));
        ASSERT_TRUE(c.count("core.cycles"));
        EXPECT_GT(c.at("cp.length"), 0u);
        EXPECT_LE(c.at("cp.length"), c.at("core.cycles"));
        EXPECT_GE(c.at("cp.segments"), 4u);

        // Blocked-cycle attribution: running + the four blocked
        // reasons sum exactly to the makespan on every core.
        const uint64_t mk = c.at("core.cycles");
        for (uint32_t i = 0; i < 4; ++i) {
            const std::string p =
                "sched.core." + std::to_string(i) + ".";
            ASSERT_TRUE(c.count(p + "running")) << p;
            uint64_t sum = c.at(p + "running");
            for (const char *r :
                 {"token_wait", "lock_wait", "commit_wait", "idle_done"})
                sum += c.at(p + "blocked." + std::string(r));
            EXPECT_EQ(sum, mk) << "core " << i;
        }
    }
}

TEST(ConcurrentExperiment, TimelineCoreLanesAreObserverOnly)
{
    // The per-core timeline lanes (and the timeline itself) must not
    // perturb the run: metrics, checksum, and the serialized stats
    // report are bit-identical with instrumentation on or off.
    const auto base = lhtConfig(TranslationMode::Hardware, 4);
    const auto plain = runExperiment(base);

    auto cfg = base;
    cfg.timeline_interval = 2000;
    cfg.timeline_path = scratchDir() + "/lanes.tl";
    cfg.timeline_cores = true;
    const auto instrumented = runExperiment(cfg);

    EXPECT_EQ(plain.metrics.cycles, instrumented.metrics.cycles);
    EXPECT_EQ(plain.workload_checksum, instrumented.workload_checksum);
    EXPECT_EQ(statsJson(plain), statsJson(instrumented));
}

TEST(ConcurrentExperiment, TraceReplayKeepsContentionStats)
{
    // Concurrency observability must survive the trace cache: a replay
    // hit reproduces the exact lock.*/sched.*/cp.* subtrees of the
    // live run (the instrumentation itself is excluded from the
    // functional fingerprint).
    const std::string cache = scratchDir() + "/trace_cache";
    std::filesystem::create_directories(cache);
    auto cfg = lhtConfig(TranslationMode::Hardware, 4);
    cfg.trace_cache = cache;
    const auto live = runExperiment(cfg); // miss: runs live, captures
    const auto replay = runExperiment(cfg); // hit: replays the capture
    EXPECT_EQ(live.metrics.cycles, replay.metrics.cycles);
    EXPECT_EQ(statsJson(live), statsJson(replay));

    // And the replayed stats match the uncached run too.
    auto nocache = lhtConfig(TranslationMode::Hardware, 4);
    const auto fresh = runExperiment(nocache);
    EXPECT_EQ(statsJson(fresh), statsJson(replay));
}

TEST(ConcurrentExperiment, ParallelSweepRecapturesACorruptCachedTrace)
{
    // A cached file that passes matches() but fails full validation is
    // recaptured: in a parallel sweep, on a sweep thread that has just
    // handled the validation error.
    const std::string cache = scratchDir() + "/corrupt_cache";
    std::filesystem::create_directories(cache);
    std::vector<ExperimentConfig> cfgs = {
        lhtConfig(TranslationMode::Hardware, 2),
        lhtConfig(TranslationMode::Software, 2),
    };
    std::vector<ExperimentResult> fresh;
    for (ExperimentConfig &cfg : cfgs) {
        fresh.push_back(runExperiment(cfg)); // uncached reference
        cfg.trace_cache = cache;
    }
    runExperiment(cfgs[0]); // captures
    const std::string path = traceCachePath(cfgs[0]);
    const std::string fpr = traceFingerprint(cfgs[0]);
    {
        // Flip the first record byte: the header still matches.
        const std::streamoff at =
            static_cast<std::streamoff>(trace_io::kHeaderSize + fpr.size());
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(at);
        const int first = f.get();
        f.seekp(at);
        f.put(static_cast<char>(first ^ 0x5a));
    }
    ASSERT_TRUE(trace_io::TraceReplayer::matches(path, fpr));
    EXPECT_THROW(trace_io::TraceReplayer{path}, std::runtime_error);

    SweepOptions opt;
    opt.jobs = 2;
    const auto rs = runSweep(cfgs, opt);
    ASSERT_EQ(rs.size(), 2u);
    for (size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].workload_checksum, fresh[i].workload_checksum) << i;
        EXPECT_EQ(statsJson(rs[i]), statsJson(fresh[i])) << i;
    }
    EXPECT_NO_THROW(trace_io::TraceReplayer{path}); // recaptured
}

TEST(ConcurrentExperiment, SweepExportsContentionPerRun)
{
    std::vector<ExperimentConfig> cfgs = {
        lhtConfig(TranslationMode::Software, 2),
        lhtConfig(TranslationMode::Hardware, 2),
    };
    SweepOptions opt;
    opt.jobs = 2;
    const auto rs = runSweep(cfgs, opt);
    ASSERT_EQ(rs.size(), 2u);
    for (const auto &r : rs) {
        const auto &c = r.stats.counters();
        ASSERT_TRUE(c.count("lock.acquisitions"));
        ASSERT_TRUE(c.count("cp.length"));
        EXPECT_LE(c.at("cp.length"), c.at("core.cycles"));
    }
}

} // namespace
} // namespace driver
} // namespace poat
