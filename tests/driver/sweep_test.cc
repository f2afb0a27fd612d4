/**
 * @file
 * The parallel sweep's contract (driver/sweep.h): a sweep at any job
 * count is *observably identical* to a serial runExperiment() loop —
 * bit-identical results in submission order, one progress call per
 * finished run, serial exception semantics, and a trace cache whose
 * captures gate their replays. The equivalence property is checked on
 * a randomized batch of configurations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/sweep.h"

namespace poat {
namespace driver {
namespace {

using workloads::PoolPattern;

std::string
statsJson(const ExperimentResult &r)
{
    std::ostringstream os;
    r.stats.dumpJson(os);
    return os.str();
}

/** Every field of two results must match exactly (no tolerances). */
void
expectBitIdentical(const ExperimentResult &a, const ExperimentResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.metrics.cycles, b.metrics.cycles) << what;
    EXPECT_EQ(a.metrics.instructions, b.metrics.instructions) << what;
    EXPECT_EQ(a.metrics.loads, b.metrics.loads) << what;
    EXPECT_EQ(a.metrics.stores, b.metrics.stores) << what;
    EXPECT_EQ(a.metrics.nv_loads, b.metrics.nv_loads) << what;
    EXPECT_EQ(a.metrics.nv_stores, b.metrics.nv_stores) << what;
    EXPECT_EQ(a.metrics.polb_hits, b.metrics.polb_hits) << what;
    EXPECT_EQ(a.metrics.polb_misses, b.metrics.polb_misses) << what;
    EXPECT_EQ(a.metrics.tlb_misses, b.metrics.tlb_misses) << what;
    EXPECT_EQ(a.metrics.l1d_misses, b.metrics.l1d_misses) << what;
    EXPECT_EQ(a.metrics.pot_walks, b.metrics.pot_walks) << what;
    EXPECT_TRUE(a.cpi == b.cpi) << what;
    EXPECT_EQ(a.workload_checksum, b.workload_checksum) << what;
    EXPECT_EQ(a.workload_operations, b.workload_operations) << what;
    EXPECT_EQ(a.translate_calls, b.translate_calls) << what;
    EXPECT_EQ(a.translate_misses, b.translate_misses) << what;
    EXPECT_EQ(a.translate_insns_per_call, b.translate_insns_per_call)
        << what;
    // The full hierarchical registry, every counter/histogram/formula:
    // serialized form must match byte for byte.
    EXPECT_EQ(statsJson(a), statsJson(b)) << what;
}

/**
 * A reproducible batch of varied configurations: every workload, both
 * modes, both POLB designs, both cores, tx on/off, varied scales and
 * seeds. Small scales keep the whole batch ctest-sized.
 */
std::vector<ExperimentConfig>
randomBatch(uint64_t seed, size_t n)
{
    std::mt19937_64 rng(seed);
    const auto &names = workloads::microbenchNames();
    std::vector<ExperimentConfig> cfgs;
    for (size_t i = 0; i < n; ++i) {
        ExperimentConfig c;
        c.workload = names[rng() % names.size()];
        c.pattern = static_cast<PoolPattern>(rng() % 3);
        c.scale_pct = 8 + static_cast<uint32_t>(rng() % 8);
        c.transactions = rng() % 2 == 0;
        c.mode = rng() % 2 ? TranslationMode::Hardware
                           : TranslationMode::Software;
        c.machine.polb_design = rng() % 2 ? sim::PolbDesign::Pipelined
                                          : sim::PolbDesign::Parallel;
        c.machine.core = rng() % 4 ? sim::CoreType::InOrder
                                   : sim::CoreType::OutOfOrder;
        c.seed = rng();
        cfgs.push_back(c);
    }
    return cfgs;
}

TEST(SweepEquivalence, ParallelMatchesSerialBitForBit)
{
    const auto cfgs = randomBatch(/*seed=*/20260806, /*n=*/10);

    std::vector<ExperimentResult> serial;
    for (const auto &c : cfgs)
        serial.push_back(runExperiment(c));

    SweepOptions one;
    one.jobs = 1;
    const auto seq = runSweep(cfgs, one);

    SweepOptions four;
    four.jobs = 4;
    const auto par = runSweep(cfgs, four);

    ASSERT_EQ(serial.size(), cfgs.size());
    ASSERT_EQ(seq.size(), cfgs.size());
    ASSERT_EQ(par.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const std::string what =
            "config " + std::to_string(i) + " (" + configLabel(cfgs[i]) +
            ")";
        expectBitIdentical(serial[i], seq[i], what + " jobs=1");
        expectBitIdentical(serial[i], par[i], what + " jobs=4");
    }
}

TEST(SweepEquivalence, TpccSweepMatchesSerial)
{
    ExperimentConfig c;
    c.workload = "TPCC";
    c.tpcc_scale_pct = 2;
    c.tpcc_txns = 60;
    std::vector<ExperimentConfig> cfgs;
    for (const auto pl : {workloads::tpcc::Placement::All,
                          workloads::tpcc::Placement::Each}) {
        for (const auto mode :
             {TranslationMode::Software, TranslationMode::Hardware}) {
            c.placement = pl;
            c.mode = mode;
            cfgs.push_back(c);
        }
    }
    std::vector<ExperimentResult> serial;
    for (const auto &cc : cfgs)
        serial.push_back(runExperiment(cc));
    SweepOptions so;
    so.jobs = 4;
    const auto par = runSweep(cfgs, so);
    ASSERT_EQ(par.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectBitIdentical(serial[i], par[i],
                           "tpcc config " + std::to_string(i));
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    // Give each run a distinct op count so a mixed-up order is visible.
    std::vector<ExperimentConfig> cfgs;
    for (uint32_t s : {8u, 10u, 12u, 14u, 16u, 18u}) {
        ExperimentConfig c;
        c.workload = "LL";
        c.pattern = PoolPattern::All;
        c.scale_pct = s;
        cfgs.push_back(c);
    }
    SweepOptions so;
    so.jobs = 3;
    const auto res = runSweep(cfgs, so);
    ASSERT_EQ(res.size(), cfgs.size());
    for (size_t i = 1; i < res.size(); ++i)
        EXPECT_GT(res[i].workload_operations,
                  res[i - 1].workload_operations)
            << "submission order not preserved at " << i;
}

TEST(Sweep, ProgressCountsEveryRunOnce)
{
    const auto cfgs = randomBatch(7, 6);
    std::vector<size_t> counts;
    SweepOptions so;
    so.jobs = 4;
    so.progress = [&](size_t finished, size_t total) {
        // Serialized under the sweep's lock: no guard needed here.
        EXPECT_EQ(total, cfgs.size());
        counts.push_back(finished);
    };
    runSweep(cfgs, so);
    ASSERT_EQ(counts.size(), cfgs.size());
    for (size_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], i + 1);
}

TEST(Sweep, FirstExceptionPropagatesWithSerialSemantics)
{
    auto cfgs = randomBatch(3, 6);
    for (auto &c : cfgs) {
        c.scale_pct = 8;
        c.workload = "LL";
    }
    // Both throw std::invalid_argument; the lowest index must win,
    // whichever finishes first.
    cfgs[2].workload = "NOPE2";
    cfgs[4].workload = "NOPE4";
    SweepOptions so;
    so.jobs = 4;
    try {
        runSweep(cfgs, so);
        FAIL() << "the sweep did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()), "unknown workload: NOPE2");
    }
}

/** A fresh, empty directory for one test's trace cache. */
std::string
emptyCacheDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "sweep_test." + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** 3 workloads x 3 POLB sizes: three fingerprints, three runs each. */
std::vector<ExperimentConfig>
polbSizeBatch()
{
    std::vector<ExperimentConfig> cfgs;
    for (const char *wl : {"LL", "BST", "SPS"}) {
        for (const uint32_t entries : {8u, 32u, 128u}) {
            ExperimentConfig c;
            c.workload = wl;
            c.pattern = PoolPattern::Random;
            c.scale_pct = 8;
            c.mode = TranslationMode::Hardware;
            c.machine.polb_entries = entries;
            cfgs.push_back(c);
        }
    }
    return cfgs;
}

TEST(Sweep, FreshCacheGroupsCaptureOnceThenReplay)
{
    std::vector<ExperimentConfig> cfgs = polbSizeBatch();
    std::vector<ExperimentResult> serial;
    for (const ExperimentConfig &c : cfgs)
        serial.push_back(runExperiment(c)); // uncached reference

    const std::string cache = emptyCacheDir("fresh_cache");
    for (ExperimentConfig &c : cfgs)
        c.trace_cache = cache;
    SweepOptions so;
    so.jobs = 4;
    const auto par = runSweep(cfgs, so);
    ASSERT_EQ(par.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i)
        expectBitIdentical(serial[i], par[i],
                           "cached config " + std::to_string(i));

    // One capture per fingerprint; the other six runs replayed it.
    size_t traces = 0;
    for (const auto &entry : std::filesystem::directory_iterator(cache)) {
        EXPECT_EQ(entry.path().extension(), ".itrace") << entry.path();
        ++traces;
    }
    EXPECT_EQ(traces, 3u);
}

TEST(Sweep, FailedCaptureRethrowsWithoutHanging)
{
    // The cache directory lies under a regular file, so every capture
    // fails; the replays gated on it must still run (live) instead of
    // waiting forever, and the capture's error reaches the caller.
    const std::string file = testing::TempDir() + "sweep_test.not_a_dir";
    std::filesystem::remove_all(file);
    std::ofstream(file) << "x";
    std::vector<ExperimentConfig> cfgs;
    for (ExperimentConfig c : polbSizeBatch()) {
        if (c.workload == "SPS" || c.machine.polb_entries == 128)
            continue; // 2 fingerprints x 2 runs
        c.trace_cache = file + "/cache";
        cfgs.push_back(c);
    }
    ASSERT_EQ(cfgs.size(), 4u);
    SweepOptions so;
    so.jobs = 4;
    EXPECT_THROW(runSweep(cfgs, so), std::runtime_error);
    std::filesystem::remove(file);
}

TEST(Sweep, EmptyBatchAndDefaultJobs)
{
    EXPECT_TRUE(runSweep({}).empty());
    EXPECT_GE(defaultSweepJobs(), 1u);

    // jobs=0 (auto) on a small batch still returns ordered results.
    const auto cfgs = randomBatch(5, 3);
    const auto res = runSweep(cfgs); // default options
    ASSERT_EQ(res.size(), 3u);
    for (size_t i = 0; i < res.size(); ++i)
        expectBitIdentical(res[i], runExperiment(cfgs[i]),
                           "auto-jobs config " + std::to_string(i));
}

TEST(Sweep, WorkerCountIsClampedToTasksAndCeiling)
{
    // 0 resolves to the host default, itself clamped to the ceiling.
    const unsigned host = std::min(defaultSweepJobs(), kMaxSweepJobs);
    EXPECT_EQ(sweepWorkers(0, 100000), host);
    EXPECT_EQ(sweepWorkers(0, 1), 1u);
    // Never more workers than tasks, and at least one.
    EXPECT_EQ(sweepWorkers(8, 3), 3u);
    EXPECT_EQ(sweepWorkers(8, 0), 1u);
    EXPECT_EQ(sweepWorkers(1, 100000), 1u);
    EXPECT_EQ(sweepWorkers(7, 100000), 7u);
    // Never more than the ceiling, however large --jobs is.
    EXPECT_EQ(sweepWorkers(kMaxSweepJobs, 100000), kMaxSweepJobs);
    EXPECT_EQ(sweepWorkers(kMaxSweepJobs + 1, 100000), kMaxSweepJobs);
    EXPECT_EQ(sweepWorkers(4294967295u, 100000), kMaxSweepJobs);
    EXPECT_EQ(sweepWorkers(4294967295u, 5), 5u);
    EXPECT_EQ(kMaxSweepJobs, 256u);
}

TEST(Sweep, PerRunTracersRecordConcurrently)
{
    // Four concurrent runs, each writing its own Chrome trace: every
    // file is whole and carries its own run's markers, and the results
    // equal an untraced serial loop's.
    std::vector<ExperimentConfig> cfgs = randomBatch(11, 4);
    std::vector<ExperimentConfig> traced = cfgs;
    for (size_t i = 0; i < traced.size(); ++i) {
        traced[i].mode = cfgs[i].mode = TranslationMode::Hardware;
        traced[i].trace_path = testing::TempDir() + "sweep_test.trace." +
            std::to_string(i) + ".json";
    }
    SweepOptions so;
    so.jobs = 4;
    const auto res = runSweep(traced, so);
    ASSERT_EQ(res.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
        std::ifstream in(traced[i].trace_path);
        std::ostringstream os;
        os << in.rdbuf();
        const std::string json = os.str();
        const std::string label = configLabel(cfgs[i]);
        EXPECT_NE(json.find("\"begin " + label + "\""), std::string::npos)
            << i;
        EXPECT_NE(json.find("\"end " + label + "\""), std::string::npos)
            << i;
        // Whole: the closing otherData block is the file's last line.
        const size_t tail = json.rfind("\n], \"displayTimeUnit\"");
        ASSERT_NE(tail, std::string::npos) << i;
        EXPECT_NE(json.find("\"dropped_events\": ", tail),
                  std::string::npos)
            << i;
        EXPECT_EQ(json.back(), '\n') << i;
        expectBitIdentical(res[i], runExperiment(cfgs[i]),
                           "traced config " + std::to_string(i));
    }
}

TEST(Sweep, ProfilingOnlyConfigsSweepToo)
{
    // timing=false runs (Table 2 profiles) obey the same equivalence.
    std::vector<ExperimentConfig> cfgs;
    for (const auto &wl : workloads::microbenchNames()) {
        ExperimentConfig c;
        c.workload = wl;
        c.pattern = PoolPattern::Each;
        c.scale_pct = 10;
        c.mode = TranslationMode::Software;
        c.timing = false;
        cfgs.push_back(c);
    }
    SweepOptions so;
    so.jobs = 4;
    const auto par = runSweep(cfgs, so);
    ASSERT_EQ(par.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const auto serial = runExperiment(cfgs[i]);
        EXPECT_EQ(par[i].metrics.cycles, 0u);
        EXPECT_GT(par[i].translate_calls, 0u);
        expectBitIdentical(serial, par[i],
                           "profile config " + std::to_string(i));
    }
}

} // namespace
} // namespace driver
} // namespace poat
