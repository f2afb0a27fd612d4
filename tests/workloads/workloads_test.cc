/** @file Cross-configuration tests for the six microbenchmarks. */
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "sim/machine.h"
#include "workloads/bplustree.h"
#include "workloads/lhash.h"
#include "workloads/tpcc/tpcc.h"
#include "workloads/workloads.h"

namespace poat {
namespace workloads {
namespace {

/**
 * Journals every event outside the software-translation brackets, with
 * each nv event rewritten to the plain event at its pool's mapped
 * address (learned from poolMapped). BASE and OPT may differ in
 * translation alone, so a BASE run and an OPT run of the same workload
 * must journal the same events. Value tags are not compared.
 */
class JournalSink : public TraceSink
{
  public:
    struct Event
    {
        char kind; ///< a alu, b branch, l/s/c load/store/clwb, f fence,
                   ///< m/u pool map/unmap, k core switch, n note
        uint64_t op[5] = {};

        bool operator==(const Event &) const = default;
    };

    void alu(uint32_t count, uint64_t) override { add('a', count); }
    void branch(bool taken, uint64_t pc, uint64_t) override
    {
        add('b', taken, pc);
    }
    uint64_t
    load(uint64_t vaddr, uint64_t, uint64_t) override
    {
        add('l', vaddr);
        return ++tags_;
    }
    void store(uint64_t vaddr, uint64_t) override { add('s', vaddr); }
    uint64_t
    nvLoad(ObjectID oid, uint64_t, uint64_t) override
    {
        add('l', plain(oid));
        return ++tags_;
    }
    void nvStore(ObjectID oid, uint64_t) override { add('s', plain(oid)); }
    void clwb(uint64_t vaddr) override { add('c', vaddr); }
    void nvClwb(ObjectID oid) override { add('c', plain(oid)); }
    void fence() override { add('f'); }
    void
    poolMapped(uint32_t pool_id, uint64_t vbase, uint64_t size) override
    {
        bases_[pool_id] = vbase;
        add('m', pool_id, vbase, size);
    }
    void poolUnmapped(uint32_t pool_id) override { add('u', pool_id); }
    void coreSwitch(uint32_t core) override { add('k', core); }
    void swTranslateBegin() override { ++inTranslate_; }
    void swTranslateEnd() override { --inTranslate_; }
    void
    note(const Note &n) override
    {
        add('n', static_cast<uint64_t>(n.kind), n.arg[0], n.arg[1],
            n.arg[2], n.arg[3]);
    }

    std::vector<Event> events;

  private:
    void
    add(char kind, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0,
        uint64_t d = 0, uint64_t e = 0)
    {
        if (inTranslate_ == 0)
            events.push_back({kind, {a, b, c, d, e}});
    }

    uint64_t plain(ObjectID oid) const
    {
        return bases_.at(oid.poolId()) + oid.offset();
    }

    std::unordered_map<uint32_t, uint64_t> bases_;
    uint32_t inTranslate_ = 0;
    uint64_t tags_ = 0;
};

std::ostream &
operator<<(std::ostream &os, const JournalSink::Event &e)
{
    os << e.kind << std::hex;
    for (uint64_t v : e.op)
        os << " " << v;
    return os << std::dec;
}

/** Assert that a BASE and an OPT journal of one workload are equal. */
void
expectSameStream(const JournalSink &base, const JournalSink &opt,
                 const std::string &what)
{
    EXPECT_GT(base.events.size(), 0u) << what;
    EXPECT_EQ(base.events.size(), opt.events.size()) << what;
    const auto [b, o] = std::mismatch(base.events.begin(), base.events.end(),
                                      opt.events.begin(), opt.events.end());
    if (b != base.events.end() && o != opt.events.end()) {
        ADD_FAILURE() << what << ": BASE and OPT streams differ at event "
                      << (b - base.events.begin()) << ": BASE " << *b
                      << ", OPT " << *o;
    }
}

WorkloadResult
runOnce(const std::string &abbr, PoolPattern pattern, bool tx,
        TranslationMode mode, uint32_t scale_pct = 10,
        TraceSink *sink = nullptr)
{
    WorkloadConfig wc;
    wc.pattern = pattern;
    wc.transactions = tx;
    wc.seed = 42;
    wc.scale_pct = scale_pct;
    RuntimeOptions ro;
    ro.mode = mode;
    ro.durability = tx;
    ro.aslr_seed = 7;
    PmemRuntime rt(ro, sink);
    return makeWorkload(abbr, wc)->run(rt);
}

/** Every (workload, pattern) must produce identical results in all
 *  four Table 7 configurations: BASE, OPT, BASE_NTX, OPT_NTX, and BASE
 *  and OPT must emit the same stream but for translation. */
class CrossConfig
    : public ::testing::TestWithParam<std::tuple<std::string, PoolPattern>>
{
};

TEST_P(CrossConfig, ChecksumInvariantAcrossConfigurations)
{
    const auto [abbr, pattern] = GetParam();
    JournalSink base_j, opt_j, base_ntx_j, opt_ntx_j;
    const WorkloadResult base =
        runOnce(abbr, pattern, true, TranslationMode::Software, 10, &base_j);
    const WorkloadResult opt =
        runOnce(abbr, pattern, true, TranslationMode::Hardware, 10, &opt_j);
    const WorkloadResult base_ntx = runOnce(
        abbr, pattern, false, TranslationMode::Software, 10, &base_ntx_j);
    const WorkloadResult opt_ntx = runOnce(
        abbr, pattern, false, TranslationMode::Hardware, 10, &opt_ntx_j);

    EXPECT_GT(base.operations, 0u);
    EXPECT_EQ(base.checksum, opt.checksum);
    EXPECT_EQ(base.checksum, base_ntx.checksum);
    EXPECT_EQ(base.checksum, opt_ntx.checksum);
    EXPECT_EQ(base.found, opt.found);
    expectSameStream(base_j, opt_j, "tx=true");
    expectSameStream(base_ntx_j, opt_ntx_j, "tx=false");
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchesAllPatterns, CrossConfig,
    ::testing::Combine(::testing::Values("LL", "BST", "SPS", "RBT", "BT",
                                         "B+T"),
                       ::testing::Values(PoolPattern::All,
                                         PoolPattern::Each,
                                         PoolPattern::Random)),
    [](const auto &info) {
        std::string n = std::get<0>(info.param);
        if (n == "B+T")
            n = "BpT";
        return n + "_" + patternName(std::get<1>(info.param));
    });

/** The BASE/OPT stream check on the concurrent LHT (four workers, so
 *  deadlock aborts run txAbort's copy-back) and on TPCC_EACH. */
TEST(Workloads, BaseAndOptStreamsMatchForLhtAndTpcc)
{
    auto options = [](TranslationMode mode, uint32_t log_slots) {
        RuntimeOptions ro;
        ro.mode = mode;
        ro.aslr_seed = 7;
        ro.log_slots = log_slots;
        return ro;
    };

    JournalSink lht[2];
    uint64_t undo_bytes[2] = {};
    for (int i = 0; i < 2; ++i) {
        PmemRuntime rt(options(i ? TranslationMode::Hardware
                                 : TranslationMode::Software, 4),
                       &lht[i]);
        WorkloadConfig wc;
        wc.scale_pct = 20;
        LhtWorkload(wc, 4, 9, 4).run(rt);
        undo_bytes[i] = rt.abortUndoBytes();
    }
    EXPECT_GT(undo_bytes[0], 0u) << "no abort copied an undo entry back";
    EXPECT_EQ(undo_bytes[0], undo_bytes[1]);
    expectSameStream(lht[0], lht[1], "LHT");

    JournalSink tpcc[2];
    for (int i = 0; i < 2; ++i) {
        PmemRuntime rt(options(i ? TranslationMode::Hardware
                                 : TranslationMode::Software, 1),
                       &tpcc[i]);
        tpcc::TpccWorkload(tpcc::Placement::Each, 2, 19, 100).run(rt);
    }
    expectSameStream(tpcc[0], tpcc[1], "TPCC_EACH");
}

TEST(Workloads, SameSeedIsDeterministic)
{
    for (const auto &abbr : microbenchNames()) {
        const auto a = runOnce(abbr, PoolPattern::All, true,
                               TranslationMode::Software);
        const auto b = runOnce(abbr, PoolPattern::All, true,
                               TranslationMode::Software);
        EXPECT_EQ(a.checksum, b.checksum) << abbr;
    }
}

TEST(Workloads, OperationsFollowPaperCounts)
{
    // At scale 100 the op counts are the paper's Table 5 numbers.
    EXPECT_EQ(runOnce("LL", PoolPattern::All, false,
                      TranslationMode::Hardware, 100)
                  .operations,
              700u);
    EXPECT_EQ(runOnce("RBT", PoolPattern::All, false,
                      TranslationMode::Hardware, 20)
                  .operations,
              600u); // 3000 * 20%
}

TEST(Workloads, BaseEmitsNoNvInstructions)
{
    CountingTraceSink sink;
    runOnce("BST", PoolPattern::Random, true, TranslationMode::Software,
            5, &sink);
    EXPECT_EQ(sink.nvLoads + sink.nvStores, 0u);
    EXPECT_GT(sink.loads, 0u);
}

TEST(Workloads, OptEmitsNvInsteadOfTranslatedAccesses)
{
    CountingTraceSink base, opt;
    runOnce("BST", PoolPattern::Random, true, TranslationMode::Software,
            5, &base);
    runOnce("BST", PoolPattern::Random, true, TranslationMode::Hardware,
            5, &opt);
    EXPECT_GT(opt.nvLoads, 0u);
    EXPECT_GT(opt.nvStores, 0u);
    // Hardware translation removes the oid_direct expansions: the OPT
    // run must execute substantially fewer dynamic instructions.
    EXPECT_LT(opt.instructions, base.instructions * 85 / 100);
}

TEST(Workloads, NtxEmitsNoFlushes)
{
    CountingTraceSink sink;
    runOnce("LL", PoolPattern::All, false, TranslationMode::Hardware, 20,
            &sink);
    EXPECT_EQ(sink.clwbs, 0u);
    EXPECT_EQ(sink.fences, 0u);
}

TEST(Workloads, TxEmitsFlushesAndFences)
{
    CountingTraceSink sink;
    runOnce("LL", PoolPattern::All, true, TranslationMode::Hardware, 20,
            &sink);
    EXPECT_GT(sink.clwbs, 0u);
    EXPECT_GT(sink.fences, 0u);
}

TEST(Workloads, EachPatternCreatesManyPools)
{
    RuntimeOptions ro;
    ro.mode = TranslationMode::Hardware;
    PmemRuntime rt(ro);
    WorkloadConfig wc;
    wc.pattern = PoolPattern::Each;
    wc.scale_pct = 10;
    LinkedListWorkload(wc).run(rt);
    EXPECT_GT(rt.registry().openCount(), 20u);

    PmemRuntime rt2(ro);
    wc.pattern = PoolPattern::Random;
    LinkedListWorkload(wc).run(rt2);
    EXPECT_EQ(rt2.registry().openCount(), PoolSet::kRandomPools + 0u);
}

TEST(Workloads, FullRunUnderSimulationEndToEnd)
{
    // A small LL run on the full machine: sanity metrics only.
    sim::MachineConfig mc;
    mc.core = sim::CoreType::InOrder;
    sim::Machine machine(mc);
    const auto res = runOnce("LL", PoolPattern::Random, true,
                             TranslationMode::Hardware, 10, &machine);
    EXPECT_GT(res.operations, 0u);
    const auto met = machine.metrics();
    EXPECT_GT(met.cycles, met.instructions / 4);
    EXPECT_GT(met.nv_loads, 0u);
    EXPECT_GT(met.polb_hits, 0u);
}

/** Crash-recovery: a workload interrupted mid-run recovers to a state
 *  where all structural invariants hold. */
TEST(Workloads, CrashMidRunRecoversConsistently)
{
    RuntimeOptions ro;
    ro.mode = TranslationMode::Software;
    PmemRuntime rt(ro);
    WorkloadConfig wc;
    wc.pattern = PoolPattern::Random;
    wc.scale_pct = 4;
    // Run the B+T workload fully (its final validate() must pass), then
    // crash and validate the recovered image still passes.
    BplusWorkload(wc).run(rt);
    rt.crashAndRecover();
    // Re-attach a tree over the recovered anchor and validate.
    const uint32_t home = 1; // first pool created by PoolSet(Random)
    const ObjectID anchor = rt.poolRoot(home, 16);
    BPlusTree tree(rt, anchor, [home](uint64_t) { return home; });
    EXPECT_TRUE(tree.validate());
    EXPECT_GT(tree.size(), 0u);
}

} // namespace
} // namespace workloads
} // namespace poat
