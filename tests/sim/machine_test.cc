/** @file Integration tests: Machine as a TraceSink over both designs. */
#include <gtest/gtest.h>

#include <sstream>

#include "pmem/runtime.h"
#include "sim/machine.h"

namespace poat {
namespace sim {
namespace {

MachineConfig
inorder(PolbDesign d = PolbDesign::Pipelined)
{
    MachineConfig c;
    c.core = CoreType::InOrder;
    c.polb_design = d;
    return c;
}

TEST(Machine, CountsInstructionsAndEvents)
{
    Machine m(inorder());
    m.alu(5, 0);
    m.branch(true, 0x10, 0);
    m.load(0x1000, 0, 0);
    m.store(0x2000, 0);
    m.fence();
    const auto met = m.metrics();
    EXPECT_EQ(met.instructions, 9u);
    EXPECT_EQ(met.loads, 1u);
    EXPECT_EQ(met.stores, 1u);
    EXPECT_EQ(met.fences, 1u);
    EXPECT_GT(met.cycles, 0u);
}

TEST(Machine, TlbMissChargesPenalty)
{
    Machine hot(inorder()), cold(inorder());
    // Touch one page repeatedly vs. 128 distinct pages (TLB holds 64).
    for (int i = 0; i < 128; ++i)
        hot.load(0x1000, 0, 0);
    for (int i = 0; i < 128; ++i)
        cold.load(0x1000 + static_cast<uint64_t>(i) * kPageSize, 0, 0);
    EXPECT_GT(cold.cycles(), hot.cycles());
    EXPECT_GT(cold.metrics().tlb_misses, 100u);
}

TEST(Machine, PipelinedNvLoadHitCostsPolbLatency)
{
    Machine m(inorder());
    m.poolMapped(1, 0x100000, 1 << 20);
    m.nvLoad(ObjectID(1, 0), 0, 0); // cold: POLB miss + walk
    const uint64_t after_miss = m.cycles();
    m.nvLoad(ObjectID(1, 0), 0, 0); // hot: POLB hit, L1 hit
    // Hit: 3-cycle blocking L1 access; the pipelined POLB is hidden.
    EXPECT_EQ(m.cycles() - after_miss, 3u);
    EXPECT_EQ(m.metrics().polb_hits, 1u);
    EXPECT_EQ(m.metrics().polb_misses, 1u);
}

TEST(Machine, PipelinedNvMissChargesPotWalk)
{
    Machine m(inorder());
    m.poolMapped(1, 0x100000, 1 << 20);
    const uint64_t before = m.cycles();
    m.nvLoad(ObjectID(1, 0), 0, 0);
    // POT walk 30 + TLB miss 30 + mem 120.
    EXPECT_GE(m.cycles() - before, 30u + 30u + 120u);
    EXPECT_EQ(m.metrics().pot_walks, 1u);
}

TEST(Machine, ParallelNvHitHasNoTranslationCost)
{
    Machine m(inorder(PolbDesign::Parallel));
    m.poolMapped(1, 0x100000, 1 << 20);
    m.nvLoad(ObjectID(1, 0), 0, 0); // cold
    const uint64_t after_miss = m.cycles();
    m.nvLoad(ObjectID(1, 8), 0, 0); // same page: POLB hit
    EXPECT_EQ(m.cycles() - after_miss, 3u); // plain L1 hit only
}

TEST(Machine, ParallelTracksPagesNotPools)
{
    Machine m(inorder(PolbDesign::Parallel));
    m.poolMapped(1, 0x100000, 1 << 20);
    // Touch 3 pages of one pool: 3 POLB entries.
    m.nvLoad(ObjectID(1, 0), 0, 0);
    m.nvLoad(ObjectID(1, 4096), 0, 0);
    m.nvLoad(ObjectID(1, 8192), 0, 0);
    EXPECT_EQ(m.polb().occupancy(), 3u);
    EXPECT_EQ(m.metrics().polb_misses, 3u);

    Machine p(inorder(PolbDesign::Pipelined));
    p.poolMapped(1, 0x100000, 1 << 20);
    p.nvLoad(ObjectID(1, 0), 0, 0);
    p.nvLoad(ObjectID(1, 4096), 0, 0);
    p.nvLoad(ObjectID(1, 8192), 0, 0);
    EXPECT_EQ(p.polb().occupancy(), 1u);
    EXPECT_EQ(p.metrics().polb_misses, 1u);
}

TEST(Machine, ParallelMissCostsMoreThanPipelinedMiss)
{
    MachineConfig pc = inorder(PolbDesign::Pipelined);
    MachineConfig qc = inorder(PolbDesign::Parallel);
    Machine p(pc), q(qc);
    p.poolMapped(1, 0x100000, 1 << 20);
    q.poolMapped(1, 0x100000, 1 << 20);
    // First access misses the POLB in both; Parallel pays 60 vs 30+3
    // but skips the TLB-miss penalty, so compare pre-warmed TLB.
    p.load(0x100000, 0, 0); // warm TLB for the pool page
    const uint64_t p0 = p.cycles();
    p.nvLoad(ObjectID(1, 64), 0, 0);
    const uint64_t p_miss = p.cycles() - p0;

    q.load(0x100000, 0, 0);
    const uint64_t q0 = q.cycles();
    q.nvLoad(ObjectID(1, 64), 0, 0);
    const uint64_t q_miss = q.cycles() - q0;
    EXPECT_GT(q_miss, p_miss);
}

TEST(Machine, IdealTranslationIsFree)
{
    MachineConfig c = inorder();
    c.ideal_translation = true;
    Machine m(c);
    m.poolMapped(1, 0x100000, 1 << 20);
    m.load(0x100000, 0, 0); // warm TLB + cache line
    const uint64_t before = m.cycles();
    m.nvLoad(ObjectID(1, 0), 0, 0); // same line: pure L1 hit
    EXPECT_EQ(m.cycles() - before, 3u);
}

TEST(Machine, PoolUnmapInvalidatesTranslations)
{
    Machine m(inorder());
    m.poolMapped(1, 0x100000, 1 << 20);
    m.nvLoad(ObjectID(1, 0), 0, 0);
    EXPECT_TRUE(m.polb().contains(1));
    m.poolUnmapped(1);
    EXPECT_FALSE(m.polb().contains(1));
    EXPECT_FALSE(m.pot().walk(1).found);
}

TEST(Machine, NvClwbFlushesAndCharges)
{
    Machine m(inorder());
    m.poolMapped(1, 0x100000, 1 << 20);
    m.nvStore(ObjectID(1, 0), 0);
    const uint64_t before = m.cycles();
    m.nvClwb(ObjectID(1, 0));
    EXPECT_GE(m.cycles() - before, 100u);
    EXPECT_EQ(m.metrics().clwbs, 1u);
}

TEST(Machine, SharedCacheSeesBothRegularAndNvAccesses)
{
    // A regular store then an nv load of the same pool byte must hit in
    // the cache: both paths resolve to the same physical line.
    Machine m(inorder());
    m.poolMapped(1, 0x100000, 1 << 20);
    m.store(0x100040, 0); // vaddr of pool offset 0x40
    const uint64_t before = m.cycles();
    m.nvLoad(ObjectID(1, 0x40), 0, 0);
    // POLB miss (30) + L1 hit (3): no memory latency.
    EXPECT_LE(m.cycles() - before, 35u);
}

/** End-to-end smoke: drive a runtime-produced trace into machines of
 *  all designs and check consistency invariants. */
TEST(Machine, EndToEndWithRuntime)
{
    for (const auto design : {PolbDesign::Pipelined, PolbDesign::Parallel}) {
        for (const auto core : {CoreType::InOrder, CoreType::OutOfOrder}) {
            MachineConfig c;
            c.core = core;
            c.polb_design = design;
            Machine m(c);
            RuntimeOptions o;
            o.mode = TranslationMode::Hardware;
            PmemRuntime rt(o, &m);

            const uint32_t pool = rt.poolCreate("p", 1 << 20);
            ObjectID head = OID_NULL;
            for (int i = 0; i < 50; ++i) {
                const ObjectID n = rt.pmalloc(pool, 16);
                ObjectRef r = rt.deref(n);
                rt.write<uint64_t>(r, 0, i);
                rt.write<uint64_t>(r, 8, head.raw);
                head = n;
            }
            // Walk the list.
            uint64_t sum = 0;
            ObjectID cur = head;
            while (!cur.isNull()) {
                ObjectRef r = rt.deref(cur);
                sum += rt.read<uint64_t>(r, 0);
                cur = ObjectID(rt.read<uint64_t>(r, 8));
            }
            EXPECT_EQ(sum, 49u * 50u / 2u);
            const auto met = m.metrics();
            EXPECT_GT(met.cycles, 0u);
            EXPECT_GT(met.nv_loads, 100u);
            EXPECT_EQ(met.polb_hits + met.polb_misses,
                      met.nv_loads + met.nv_stores + met.clwbs);
        }
    }
}

/** Counts what the machine reports; changes nothing. */
struct CountingObserver : telemetry::Observer
{
    void
    retired(const telemetry::Retired &r) override
    {
        ++byKind[static_cast<size_t>(r.kind)];
        if (r.end_cycle < r.start_cycle)
            ++backwards;
        // One core: each charge starts where the previous one ended.
        if (r.start_cycle != lastEnd)
            ++gaps;
        lastEnd = r.end_cycle;
    }
    void coreSwitched(uint32_t) override { ++switches; }

    uint64_t byKind[9] = {};
    uint64_t backwards = 0;
    uint64_t gaps = 0;
    uint64_t lastEnd = 0;
    uint64_t switches = 0;
};

/** A short runtime-driven list workload on @p m; returns the stats JSON. */
std::string
runListWorkload(Machine &m)
{
    RuntimeOptions o;
    o.mode = TranslationMode::Hardware;
    PmemRuntime rt(o, &m);
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    ObjectID head = OID_NULL;
    for (int i = 0; i < 50; ++i) {
        const ObjectID n = rt.pmalloc(pool, 16);
        ObjectRef r = rt.deref(n);
        rt.write<uint64_t>(r, 0, i);
        rt.write<uint64_t>(r, 8, head.raw);
        head = n;
    }
    for (ObjectID cur = head; !cur.isNull();)
        cur = ObjectID(rt.read<uint64_t>(rt.deref(cur), 8));
    std::ostringstream os;
    m.dumpStatsJson(os);
    return os.str();
}

TEST(Machine, ObserversLeaveTheStatsJsonByteIdentical)
{
    using Kind = telemetry::Retired::Kind;
    for (const auto design : {PolbDesign::Pipelined, PolbDesign::Parallel}) {
        for (const auto core : {CoreType::InOrder, CoreType::OutOfOrder}) {
            MachineConfig c;
            c.core = core;
            c.polb_design = design;
            Machine plain(c);
            Machine observed(c);
            CountingObserver a, b;
            observed.addObserver(&a);
            observed.addObserver(&b);
            EXPECT_EQ(runListWorkload(plain), runListWorkload(observed));

            // Every observer sees every instruction event, in order.
            const auto met = observed.metrics();
            const auto n = [&a](Kind k) {
                return a.byKind[static_cast<size_t>(k)];
            };
            EXPECT_EQ(n(Kind::NvLoad), met.nv_loads);
            EXPECT_EQ(n(Kind::NvStore), met.nv_stores);
            EXPECT_EQ(n(Kind::NvClwb) + n(Kind::Clwb), met.clwbs);
            EXPECT_EQ(n(Kind::Fence), met.fences);
            EXPECT_EQ(n(Kind::Load), met.loads);
            EXPECT_EQ(n(Kind::Store), met.stores);
            EXPECT_EQ(a.backwards, 0u);
            EXPECT_EQ(a.gaps, 0u);
            EXPECT_EQ(a.lastEnd, observed.cycles());
            EXPECT_EQ(a.switches, 0u);
            for (size_t k = 0; k < 9; ++k)
                EXPECT_EQ(a.byKind[k], b.byKind[k]) << k;
        }
    }
}

TEST(Machine, CoreSwitchesReachEveryObserver)
{
    MachineConfig c = inorder();
    c.cores = 2;
    Machine m(c);
    CountingObserver obs;
    m.addObserver(&obs);
    m.alu(4, 0);
    m.coreSwitch(1);
    m.alu(2, 0);
    m.coreSwitch(0);
    EXPECT_EQ(obs.switches, 2u);
    EXPECT_EQ(obs.byKind[static_cast<size_t>(telemetry::Retired::Kind::Alu)],
              2u);
}

TEST(Machine, DumpStatsListsAllSubsystems)
{
    Machine m(inorder());
    m.poolMapped(1, 0x100000, 1 << 20);
    m.alu(10, 0);
    m.nvLoad(ObjectID(1, 0), 0, 0);
    m.branch(true, 0x1, 0);
    std::ostringstream os;
    m.dumpStats(os);
    const std::string s = os.str();
    for (const char *key :
         {"core.cycles", "core.instructions", "cache.l1d.misses",
          "tlb.misses", "polb.hits", "pot.walks", "branch.lookups",
          "vm.mapped_pages", "core.cpi.total", "core.cpi.pot_walk"}) {
        EXPECT_NE(s.find(key), std::string::npos) << key;
    }
    // Values are consistent with the metrics accessors.
    std::istringstream is(s);
    std::string name;
    uint64_t value;
    bool saw_cycles = false;
    while (is >> name >> value) {
        if (name == "core.cycles") {
            EXPECT_EQ(value, m.cycles());
            saw_cycles = true;
        }
    }
    EXPECT_TRUE(saw_cycles);
}

} // namespace
} // namespace sim
} // namespace poat
