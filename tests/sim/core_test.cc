/** @file Timing-model tests for the in-order and OoO cores. */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sim/config.h"
#include "sim/core_inorder.h"
#include "sim/core_ooo.h"

namespace poat {
namespace sim {
namespace {

MachineConfig
cfg()
{
    return MachineConfig{};
}

/** Access with @p pre translation pre-stall cycles and a @p mem -cycle
 *  memory access (charged to L1D by default; the component does not
 *  affect timing). */
AccessCosts
costs(uint32_t pre, uint32_t mem)
{
    AccessCosts c;
    c.pot = pre;
    c.mem = mem;
    return c;
}

// ---------------------------------------------------------------- in-order

TEST(InOrder, AluIsOneCyclePerInstruction)
{
    InOrderCore c(cfg());
    c.alu(10, 0);
    EXPECT_EQ(c.cycles(), 10u);
    EXPECT_EQ(c.uopCount(), 10u);
}

TEST(InOrder, LoadsAreBlocking)
{
    InOrderCore c(cfg());
    c.load(costs(0, 3), 0, 0); // L1 hit: full 3-cycle blocking access
    EXPECT_EQ(c.cycles(), 3u);
}

TEST(InOrder, MissLatencyStallsFully)
{
    InOrderCore c(cfg());
    c.load(costs(0, 120), 0, 0); // memory access
    EXPECT_EQ(c.cycles(), 120u);
}

TEST(InOrder, PreStallChargesFully)
{
    InOrderCore c(cfg());
    c.load(costs(33, 3), 0, 0); // POLB residue + POT walk before an L1 hit
    EXPECT_EQ(c.cycles(), 36u);
}

TEST(InOrder, BranchMispredictCostsEightExtra)
{
    InOrderCore c(cfg());
    c.branch(false, 0);
    EXPECT_EQ(c.cycles(), 1u);
    c.branch(true, 0);
    EXPECT_EQ(c.cycles(), 10u);
}

TEST(InOrder, StoresAbsorbedByStoreBuffer)
{
    InOrderCore c(cfg());
    for (int i = 0; i < 8; ++i)
        c.store(costs(0, 120), 0);
    // 8 entries absorb 8 stores at 1 cycle each.
    EXPECT_EQ(c.cycles(), 8u);
    // The 9th store stalls until the first slot drains.
    c.store(costs(0, 120), 0);
    EXPECT_GT(c.cycles(), 100u);
}

TEST(InOrder, FenceDrainsStoreBuffer)
{
    InOrderCore c(cfg());
    c.store(costs(0, 120), 0); // drains at 1 + 120
    c.fence();
    EXPECT_GE(c.cycles(), 121u);
}

TEST(InOrder, ClwbChargesItsLatency)
{
    InOrderCore c(cfg());
    c.clwb({}, 100);
    EXPECT_EQ(c.cycles(), 100u);
}

// ---------------------------------------------------------------- OoO

TEST(Ooo, IndependentAluRunAtIssueWidth)
{
    OooCore c(cfg());
    c.alu(400, 0);
    // Width 4: ~100 cycles plus small pipeline slack.
    EXPECT_GE(c.cycles(), 100u);
    EXPECT_LE(c.cycles(), 110u);
}

TEST(Ooo, IndependentLoadsOverlap)
{
    OooCore c(cfg());
    for (int i = 0; i < 8; ++i)
        c.load(costs(0, 120), 0, 0);
    // All eight miss to memory in parallel: ~120 cycles, not ~960.
    EXPECT_LT(c.cycles(), 160u);
}

TEST(Ooo, DependentLoadsSerialize)
{
    OooCore c(cfg());
    uint64_t tag = 0;
    for (int i = 0; i < 8; ++i)
        tag = c.load(costs(0, 120), tag, 0);
    // A pointer chase: completion grows by ~120 per link.
    EXPECT_GE(c.cycles(), 8u * 120u);
}

TEST(Ooo, DepThroughSecondOperand)
{
    OooCore c(cfg());
    const uint64_t t = c.load(costs(0, 120), 0, 0);
    c.load(costs(0, 3), 0, t); // address depends on the first load
    EXPECT_GE(c.cycles(), 123u);
}

TEST(Ooo, RobLimitsMemoryLevelParallelism)
{
    // More independent misses than the ROB can hold: they can no
    // longer all overlap.
    OooCore c(cfg());
    for (int i = 0; i < 256; ++i)
        c.load(costs(0, 120), 0, 0);
    // 256 loads / min(ROB 128, LQ 48) -> several memory rounds, but far
    // fewer than fully serial execution (256 * 120).
    EXPECT_GE(c.cycles(), 2u * 120u);
    EXPECT_LT(c.cycles(), 8u * 120u);
}

TEST(Ooo, LqLimitsOutstandingLoads)
{
    MachineConfig small = cfg();
    small.lq_size = 2;
    OooCore c(small);
    for (int i = 0; i < 8; ++i)
        c.load(costs(0, 120), 0, 0);
    // Two at a time: ~4 rounds of 120.
    EXPECT_GE(c.cycles(), 4u * 120u);
}

TEST(Ooo, MispredictStallsFetch)
{
    OooCore a(cfg()), b(cfg());
    for (int i = 0; i < 50; ++i) {
        a.branch(false, 0);
        a.alu(4, 0);
        b.branch(true, 0);
        b.alu(4, 0);
    }
    EXPECT_GT(b.cycles(), a.cycles() + 50 * 8 - 50);
}

TEST(Ooo, FenceSerializes)
{
    OooCore c(cfg());
    c.clwb({}, 100);
    c.fence();
    c.alu(1, 0);
    // The ALU op dispatches only after the CLWB completed.
    EXPECT_GE(c.cycles(), 100u);
}

TEST(Ooo, PreStallExtendsLoadLatency)
{
    OooCore a(cfg()), b(cfg());
    uint64_t ta = 0, tb = 0;
    for (int i = 0; i < 10; ++i) {
        ta = a.load(costs(0, 3), ta, 0);
        tb = b.load(costs(33, 3), tb, 0); // POLB+POT in AGEN
    }
    EXPECT_GE(b.cycles(), a.cycles() + 10 * 33 - 5);
}

TEST(Ooo, CyclesAreMonotonic)
{
    OooCore c(cfg());
    uint64_t prev = 0;
    for (int i = 0; i < 1000; ++i) {
        if (i % 3 == 0)
            c.load(costs(0, i % 2 ? 120 : 3), 0, 0);
        else if (i % 7 == 0)
            c.branch(i % 2, 0);
        else
            c.alu(2, 0);
        EXPECT_GE(c.cycles(), prev);
        prev = c.cycles();
    }
}

/** Property: OoO is never slower than in-order on the same stream, and
 *  never faster than the dataflow bound would allow. */
TEST(Ooo, BoundedByInOrderAboveAndCriticalPathBelow)
{
    MachineConfig conf = cfg();
    InOrderCore io(conf);
    OooCore oo(conf);
    uint64_t tio = 0, too = 0;
    uint64_t chain_latency = 0;
    for (int i = 0; i < 500; ++i) {
        const uint32_t lat = (i % 5 == 0) ? 120 : 3;
        tio = io.load(costs(0, lat), tio, 0);
        too = oo.load(costs(0, lat), too, 0);
        chain_latency += lat;
        io.alu(3, 0);
        oo.alu(3, 0);
    }
    EXPECT_LE(oo.cycles(), io.cycles());
    EXPECT_GE(oo.cycles(), chain_latency); // serial load chain bound
}

/**
 * The per-uop reference for OooCore's ALU bursts: every uop of a burst
 * goes through processUop, as the first one does in OooCore itself.
 */
class PerUopOooCore : public OooCore
{
  public:
    using OooCore::OooCore;

    void
    alu(uint32_t count, uint64_t dep) override
    {
        const Seg seg{CpiComponent::Base, 1};
        for (uint32_t i = 0; i < count; ++i)
            processUop(&seg, 1, i == 0 ? dep : kNone, kNone, Slot::None,
                       CpiComponent::Base);
    }
};

/** Random access costs: any mix of translation segments and levels. */
AccessCosts
randomCosts(Rng &rng)
{
    static constexpr uint32_t kMem[] = {3, 12, 40, 120};
    static constexpr CpiComponent kLevel[] = {
        CpiComponent::L1D, CpiComponent::L2, CpiComponent::L3,
        CpiComponent::Mem};
    AccessCosts c;
    c.polb = rng.below(3) == 0 ? static_cast<uint32_t>(rng.below(4)) : 0;
    c.pot = rng.below(4) == 0 ? static_cast<uint32_t>(rng.below(60)) : 0;
    c.tlb = rng.below(5) == 0 ? static_cast<uint32_t>(rng.below(40)) : 0;
    const size_t level = rng.below(4);
    c.mem = kMem[level];
    c.mem_comp = kLevel[level];
    return c;
}

/**
 * Differential check of the burst loop: OooCore and the per-uop
 * reference, fed the same seeded stream over random core shapes, agree
 * on cycles, uop count and every CPI component after every event. The
 * stream has bursts longer than the ROB, bursts right after a fence or
 * a mispredict and inside sw-translate regions, loads with deps, and
 * deps on arbitrary tags (as a multi-core machine passes another
 * core's load tags), which can name a burst's own uops.
 */
TEST(Ooo, AluBurstsMatchThePerUopReference)
{
    for (uint64_t seed = 1; seed <= 48; ++seed) {
        Rng rng(seed);
        MachineConfig conf;
        conf.issue_width = 1 + static_cast<uint32_t>(rng.below(8));
        conf.rob_size = 1 + static_cast<uint32_t>(rng.below(160));
        conf.lq_size = 1 + static_cast<uint32_t>(rng.below(48));
        conf.sq_size = 1 + static_cast<uint32_t>(rng.below(32));
        OooCore fast(conf);
        PerUopOooCore ref(conf);
        std::vector<uint64_t> tags = {0};

        auto dep = [&]() -> uint64_t {
            switch (rng.below(4)) {
              case 0:
                return 0;
              case 1: { // one of the last four loads
                const size_t back = std::min<size_t>(tags.size(), 4);
                return tags[tags.size() - 1 - rng.below(back)];
              }
              case 2: // any load so far
                return tags[rng.below(tags.size())];
              default: // any tag, another core's included
                return 1 + rng.below(ref.uopCount() + 16);
            }
        };
        auto burst = [&] {
            uint32_t count;
            switch (rng.below(4)) {
              case 0: // longer than the ROB
                count = conf.rob_size +
                    static_cast<uint32_t>(rng.below(2 * conf.rob_size));
                break;
              case 1:
                count = static_cast<uint32_t>(rng.below(3));
                break;
              default:
                count = 1 + static_cast<uint32_t>(rng.below(24));
            }
            const uint64_t d = dep();
            fast.alu(count, d);
            ref.alu(count, d);
        };

        for (int step = 0; step < 2500; ++step) {
            switch (rng.below(12)) {
              case 0: case 1: case 2: case 3:
                burst();
                break;
              case 4: case 5: {
                const AccessCosts c = randomCosts(rng);
                const uint64_t d1 = dep(), d2 = dep();
                const uint64_t t = fast.load(c, d1, d2);
                ASSERT_EQ(t, ref.load(c, d1, d2)) << "seed " << seed;
                tags.push_back(t);
                break;
              }
              case 6: {
                const AccessCosts c = randomCosts(rng);
                const uint64_t d = dep();
                fast.store(c, d);
                ref.store(c, d);
                break;
              }
              case 7: {
                const AccessCosts c = randomCosts(rng);
                fast.clwb(c, 100);
                ref.clwb(c, 100);
                break;
              }
              case 8: { // a branch, then a burst behind any redirect
                const bool mispredict = rng.below(2) == 0;
                const uint64_t d = dep();
                fast.branch(mispredict, d);
                ref.branch(mispredict, d);
                burst();
                break;
              }
              case 9: // a fence, then a burst behind it
                fast.fence();
                ref.fence();
                burst();
                break;
              default: { // enter or leave a sw-translate region
                const bool on = rng.below(2) == 0;
                fast.setSwTranslate(on);
                ref.setSwTranslate(on);
                break;
              }
            }
            ASSERT_EQ(fast.cycles(), ref.cycles())
                << "seed " << seed << " step " << step;
            ASSERT_EQ(fast.uopCount(), ref.uopCount())
                << "seed " << seed << " step " << step;
            for (size_t i = 0; i < kCpiComponents; ++i) {
                const auto c = static_cast<CpiComponent>(i);
                ASSERT_EQ(fast.cpi()[c], ref.cpi()[c])
                    << cpiComponentName(c) << ", seed " << seed
                    << " step " << step;
            }
        }
    }
}

} // namespace
} // namespace sim
} // namespace poat
