/**
 * @file
 * Shape tests for the paper's headline results: these assert the
 * *qualitative* claims of the evaluation at reduced scale, so any
 * change that breaks the reproduction fails here before the full
 * bench harness would show it.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/experiment.h"

namespace poat {
namespace driver {
namespace {

using workloads::PoolPattern;

ExperimentConfig
base(const std::string &wl, PoolPattern p,
     sim::CoreType core = sim::CoreType::InOrder, bool tx = true)
{
    ExperimentConfig c;
    c.workload = wl;
    c.pattern = p;
    c.scale_pct = 15;
    c.transactions = tx;
    c.machine.core = core;
    return c;
}

ExperimentConfig
opt(ExperimentConfig c, sim::PolbDesign d = sim::PolbDesign::Pipelined,
    bool ideal = false)
{
    c.mode = TranslationMode::Hardware;
    c.machine.polb_design = d;
    c.machine.ideal_translation = ideal;
    return c;
}

TEST(Shapes, HardwareTranslationWinsOnRandom)
{
    // Figure 9(a): every benchmark speeds up on RANDOM; LL the most.
    double ll_speedup = 0;
    for (const auto &wl : workloads::microbenchNames()) {
        const auto b = runExperiment(base(wl, PoolPattern::Random));
        const auto o = runExperiment(opt(base(wl, PoolPattern::Random)));
        const double s = speedup(b, o);
        EXPECT_GT(s, 1.15) << wl;
        if (wl == "LL")
            ll_speedup = s;
        else
            EXPECT_LT(s, ll_speedup) << wl << " should trail LL";
    }
}

TEST(Shapes, AllPatternShowsSmallestGains)
{
    // ALL leverages the BASE predictor, so hardware helps least there.
    for (const auto &wl : {"LL", "BST", "B+T"}) {
        const auto b_all = runExperiment(base(wl, PoolPattern::All));
        const auto o_all = runExperiment(opt(base(wl, PoolPattern::All)));
        const auto b_rnd = runExperiment(base(wl, PoolPattern::Random));
        const auto o_rnd =
            runExperiment(opt(base(wl, PoolPattern::Random)));
        EXPECT_LT(speedup(b_all, o_all), speedup(b_rnd, o_rnd)) << wl;
    }
}

TEST(Shapes, PipelinedBeatsParallelWithTransactions)
{
    // Figure 9(a)/Table 8: Parallel pays double miss penalty and page-
    // granular contention; with logging it never beats Pipelined.
    for (const auto &wl : {"LL", "BST", "BT"}) {
        for (const auto p : {PoolPattern::Each, PoolPattern::Random}) {
            const auto b = runExperiment(base(wl, p));
            const auto pipe = runExperiment(opt(base(wl, p)));
            const auto par = runExperiment(
                opt(base(wl, p), sim::PolbDesign::Parallel));
            EXPECT_GE(speedup(b, pipe) * 1.02, speedup(b, par))
                << wl << " " << static_cast<int>(p);
        }
    }
}

TEST(Shapes, IdealBoundsPipelined)
{
    for (const auto &wl : {"LL", "RBT"}) {
        const auto b = runExperiment(base(wl, PoolPattern::Each));
        const auto pipe = runExperiment(opt(base(wl, PoolPattern::Each)));
        const auto ideal = runExperiment(
            opt(base(wl, PoolPattern::Each), sim::PolbDesign::Pipelined,
                /*ideal=*/true));
        EXPECT_LE(speedup(b, pipe), speedup(b, ideal) + 1e-9) << wl;
    }
    // LL-EACH thrashes the POLB, so its gap to ideal is large (paper
    // calls this out explicitly).
    const auto b = runExperiment(base("LL", PoolPattern::Each));
    const auto pipe = runExperiment(opt(base("LL", PoolPattern::Each)));
    const auto ideal = runExperiment(opt(
        base("LL", PoolPattern::Each), sim::PolbDesign::Pipelined, true));
    EXPECT_GT(speedup(b, ideal), speedup(b, pipe) * 1.1);
}

TEST(Shapes, OutOfOrderHidesPartOfTheSoftwareCost)
{
    // Figure 9(b): OoO speedups are lower than in-order ones.
    for (const auto &wl : {"LL", "BST", "B+T"}) {
        const auto bio = runExperiment(base(wl, PoolPattern::Random));
        const auto oio = runExperiment(opt(base(wl, PoolPattern::Random)));
        const auto boo = runExperiment(
            base(wl, PoolPattern::Random, sim::CoreType::OutOfOrder));
        const auto ooo = runExperiment(opt(
            base(wl, PoolPattern::Random, sim::CoreType::OutOfOrder)));
        EXPECT_LT(speedup(boo, ooo), speedup(bio, oio)) << wl;
        // And the OoO machine is itself faster than the in-order one.
        EXPECT_LT(boo.metrics.cycles, bio.metrics.cycles) << wl;
    }
}

TEST(Shapes, NtxSpeedupsExceedTxSpeedups)
{
    // Figure 10: without logging/persists the translation fraction
    // grows, so OPT helps more.
    for (const auto &wl : {"LL", "BST", "BT"}) {
        const auto btx = runExperiment(base(wl, PoolPattern::Random));
        const auto otx = runExperiment(opt(base(wl, PoolPattern::Random)));
        const auto bntx = runExperiment(
            base(wl, PoolPattern::Random, sim::CoreType::InOrder, false));
        const auto ontx = runExperiment(opt(base(
            wl, PoolPattern::Random, sim::CoreType::InOrder, false)));
        EXPECT_GT(speedup(bntx, ontx), speedup(btx, otx)) << wl;
    }
}

TEST(Shapes, PolbSizeSaturatesAtPoolCount)
{
    // Figure 11: on RANDOM (32 pools), size 32 recovers nearly all of
    // size 128's performance, and no POLB is clearly worse than 32.
    const auto b = runExperiment(base("BST", PoolPattern::Random));
    auto cfg0 = opt(base("BST", PoolPattern::Random));
    cfg0.machine.polb_entries = 0;
    auto cfg32 = opt(base("BST", PoolPattern::Random));
    cfg32.machine.polb_entries = 32;
    auto cfg128 = opt(base("BST", PoolPattern::Random));
    cfg128.machine.polb_entries = 128;
    const double s0 = speedup(b, runExperiment(cfg0));
    const double s32 = speedup(b, runExperiment(cfg32));
    const double s128 = speedup(b, runExperiment(cfg128));
    EXPECT_LT(s0, s32 * 0.8);
    EXPECT_GT(s32, s128 * 0.97);
}

TEST(Shapes, PotWalkPenaltyHurtsHighMissWorkloads)
{
    // Figure 12: LL-EACH degrades steeply with POT-walk latency; B+T
    // barely moves.
    auto sweep = [&](const char *wl, uint32_t penalty) {
        const auto b = runExperiment(base(wl, PoolPattern::Each));
        auto cfg = opt(base(wl, PoolPattern::Each));
        cfg.machine.pot_walk_pipelined = penalty;
        return speedup(b, runExperiment(cfg));
    };
    const double ll30 = sweep("LL", 30);
    const double ll500 = sweep("LL", 500);
    const double bpt30 = sweep("B+T", 30);
    const double bpt500 = sweep("B+T", 500);
    EXPECT_LT(ll500, ll30 * 0.6);
    EXPECT_GT(bpt500, bpt30 * 0.6);
}

TEST(Shapes, HardwareReducesDynamicInstructions)
{
    // Headline: large dynamic-instruction reduction from removing
    // oid_direct expansions.
    const auto b = runExperiment(base("BST", PoolPattern::Random));
    const auto o = runExperiment(opt(base("BST", PoolPattern::Random)));
    const double reduction = 1.0 -
        static_cast<double>(o.metrics.instructions) /
            static_cast<double>(b.metrics.instructions);
    EXPECT_GT(reduction, 0.30);
    EXPECT_LT(reduction, 0.95);
    // Checksums agree: same logical work was simulated.
    EXPECT_EQ(b.workload_checksum, o.workload_checksum);
}

TEST(Shapes, TpccGainsAreModestButReal)
{
    ExperimentConfig b;
    b.workload = "TPCC";
    b.placement = workloads::tpcc::Placement::Each;
    b.tpcc_scale_pct = 2;
    b.tpcc_txns = 120;
    const auto rb = runExperiment(b);
    auto o = b;
    o.mode = TranslationMode::Hardware;
    const auto ro = runExperiment(o);
    const double s = speedup(rb, ro);
    EXPECT_GT(s, 1.05);
    EXPECT_LT(s, 1.6);
    EXPECT_EQ(rb.workload_checksum, ro.workload_checksum);
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
}

TEST(Telemetry, ResultCarriesTheFullStatsRegistry)
{
    const auto r = runExperiment(opt(base("LL", PoolPattern::Random)));
    EXPECT_EQ(r.stats.get("core.cycles"), r.metrics.cycles);
    EXPECT_EQ(r.stats.get("core.instructions"), r.metrics.instructions);
    EXPECT_GT(r.stats.get("polb.accesses"), 0u);
    EXPECT_GT(r.stats.get("workload.operations"), 0u);
    // The POLB lookup-latency histogram saw every translated access.
    const Histogram *h = r.stats.findHistogram("polb.lookup_latency");
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->count(), 0u);
}

TEST(Telemetry, BaseRunsProfileTheSoftwareTranslator)
{
    const auto r = runExperiment(base("BST", PoolPattern::Each));
    EXPECT_EQ(r.stats.get("sw_translate.calls"), r.translate_calls);
    const Histogram *h =
        r.stats.findHistogram("sw_translate.insns_per_call");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), r.translate_calls);
    EXPECT_NEAR(h->mean(), r.translate_insns_per_call, 1e-9);
}

TEST(Telemetry, ConfigLabelCoversTheVariantAxes)
{
    auto c = base("BT", PoolPattern::Random, sim::CoreType::OutOfOrder,
                  /*tx=*/false);
    EXPECT_EQ(configLabel(c), "BT.RANDOM.base.ooo.ntx");
    EXPECT_EQ(configLabel(opt(c, sim::PolbDesign::Parallel)),
              "BT.RANDOM.opt_parallel.ooo.ntx");
    EXPECT_EQ(configLabel(opt(c, sim::PolbDesign::Pipelined, true)),
              "BT.RANDOM.opt_ideal.ooo.ntx");
    c.label = "custom";
    EXPECT_EQ(configLabel(c), "custom");
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(Telemetry, AttachedTracerRecordsTranslationEvents)
{
    auto cfg = opt(base("LL", PoolPattern::Random));
    cfg.trace_path = testing::TempDir() + "experiment_test.trace.json";
    const auto res = runExperiment(cfg);
    const std::string json = slurp(cfg.trace_path);
    // One nv.* event per nv access, one POLB or POT event before each.
    EXPECT_EQ(countOf(json, "\"name\": \"nv.load\""),
              res.metrics.nv_loads);
    EXPECT_EQ(countOf(json, "\"name\": \"nv.store\""),
              res.metrics.nv_stores);
    EXPECT_GT(countOf(json, "\"name\": \"pot.walk\""), 0u);
    // The run-boundary markers bracket the run.
    EXPECT_NE(json.find("{\"name\": \"begin LL.RANDOM.opt_pipelined."
                        "inorder\", \"ph\": \"i\", \"s\": \"g\", "
                        "\"ts\": 0,"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\": \"end LL.RANDOM.opt_pipelined."
                        "inorder\", \"ph\": \"i\", \"s\": \"g\", "
                        "\"ts\": " +
                        std::to_string(res.metrics.cycles) + ","),
              std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\": 0}"), std::string::npos);
}

TEST(Telemetry, TracerDoesNotPerturbTiming)
{
    auto traced = opt(base("BST", PoolPattern::Each));
    traced.trace_path = testing::TempDir() + "experiment_test.bst.json";
    const auto with = runExperiment(traced);
    const auto without =
        runExperiment(opt(base("BST", PoolPattern::Each)));
    EXPECT_EQ(with.metrics.cycles, without.metrics.cycles);
    EXPECT_EQ(with.workload_checksum, without.workload_checksum);
    std::ostringstream a, b;
    with.stats.dumpJson(a);
    without.stats.dumpJson(b);
    EXPECT_EQ(a.str(), b.str());
}

} // namespace
} // namespace driver
} // namespace poat
