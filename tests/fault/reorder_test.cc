/**
 * @file
 * Unit tests for the persistence-reordering crash-state machinery:
 * drain-batch probing, subset/torn-state planning, the CrashWithDrain
 * full-subset equivalence with prefix freezing, the profile-pass event
 * contract, the reproducer drain/stack/strict tokens, and the committed
 * regression reproducers for the torn split-remainder header bug the
 * reorder explorer found.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "fault/explore.h"
#include "fault/injector.h"
#include "fault/reorder.h"
#include "fault/trial.h"
#include "pmem/pool.h"

namespace poat {
namespace {

using fault::DrainBatch;
using fault::DrainPlan;
using fault::DrainProbe;
using fault::ExploreOptions;
using fault::ExploreReport;

TEST(Reorder, TornWordMasksArePrefixesAndSuffixes)
{
    const std::vector<uint8_t> &masks = fault::tornWordMasks();
    ASSERT_EQ(masks.size(), 14u);
    std::set<uint8_t> distinct(masks.begin(), masks.end());
    EXPECT_EQ(distinct.size(), 14u);
    for (uint8_t m : masks) {
        EXPECT_NE(m, 0u);
        EXPECT_NE(m, DurabilityHook::kFullLineMask);
        // A prefix is 0...01...1, a suffix 1...10...0: adding the
        // lowest set bit (suffix) or one past the highest (prefix)
        // yields a power of two.
        const bool prefix = ((m + 1) & m) == 0;
        const uint8_t low = m & static_cast<uint8_t>(-m);
        const uint8_t grown = static_cast<uint8_t>(m + low);
        const bool suffix = (grown & (grown - 1)) == 0;
        EXPECT_TRUE(prefix || suffix) << "mask " << int(m);
    }
}

TEST(Reorder, DrainProbeGroupsFenceBatches)
{
    Pool pool("p", 1, 1 << 20);
    pool.setDurabilityPolicy(DurabilityPolicy::Strict);
    DrainProbe probe;
    pool.setDurabilityHook(&probe);

    // Three dirty lines retired by one fence: one batch of three.
    pool.writeAs<uint64_t>(4096, 1);
    pool.writeAs<uint64_t>(4096 + 64, 2);
    pool.writeAs<uint64_t>(4096 + 128, 3);
    pool.persist(4096, 192);

    // A second persist is a separate batch even under the same policy.
    pool.writeAs<uint64_t>(8192, 4);
    pool.persist(8192, 8);

    pool.setDurabilityHook(nullptr);
    ASSERT_EQ(probe.batches().size(), 2u);
    const DrainBatch &b0 = probe.batches()[0];
    EXPECT_EQ(b0.start, 0u);
    EXPECT_EQ(b0.size(), 3u);
    EXPECT_EQ(b0.cause, WriteBackCause::Fence);
    const std::vector<uint32_t> want = {4096 / 64, (4096 + 64) / 64,
                                       (4096 + 128) / 64};
    EXPECT_EQ(b0.lines, want);
    EXPECT_EQ(probe.batches()[1].start, 3u);
    EXPECT_EQ(probe.batches()[1].size(), 1u);
    EXPECT_EQ(probe.total(), 4u);
}

/** Captures what the fence announces vs what the pool had staged. */
class StagedCapture final : public DurabilityHook
{
  public:
    bool
    onWriteBack(Pool &, uint32_t, WriteBackCause) override
    {
        return true;
    }

    void
    onFenceDrainBegin(Pool &pool,
                      const std::vector<uint32_t> &pending) override
    {
        announced = pending;
        staged = pool.stagedLines();
    }

    std::vector<uint32_t> announced;
    std::vector<uint32_t> staged;
};

TEST(Reorder, EveryStagedLineAppearsInTheDrainAnnouncement)
{
    Pool pool("p", 1, 1 << 20);
    pool.setDurabilityPolicy(DurabilityPolicy::Strict);
    fault::EventCounter counter;
    pool.setDurabilityHook(&counter);
    pool.writeAs<uint64_t>(4096, 1);
    pool.writeAs<uint64_t>(4096 + 64, 2);

    StagedCapture cap;
    pool.setDurabilityHook(&cap);
    pool.persist(4096, 128);
    pool.setDurabilityHook(&counter);
    pool.writeAs<uint64_t>(4096, 3);
    pool.persist(4096, 8);
    pool.setDurabilityHook(nullptr);

    // The Strict policy turns every line's retirement into a fence
    // event...
    EXPECT_GT(counter.count(WriteBackCause::Fence), 0u);
    // ...and the drain announcement names exactly the staged set.
    std::sort(cap.staged.begin(), cap.staged.end());
    std::vector<uint32_t> sorted_announce = cap.announced;
    std::sort(sorted_announce.begin(), sorted_announce.end());
    ASSERT_EQ(cap.announced.size(), 2u);
    EXPECT_EQ(sorted_announce, cap.staged);
}

/** Runs the same five-line Strict write schedule under @p hook. */
template <typename Hook>
std::vector<uint8_t>
durableAfterSchedule(Hook &hook)
{
    Pool pool("p", 1, 1 << 20);
    pool.setDurabilityPolicy(DurabilityPolicy::Strict);
    pool.setDurabilityHook(&hook);
    pool.writeAs<uint64_t>(4096, 11);
    pool.writeAs<uint64_t>(4096 + 64, 22);
    pool.writeAs<uint64_t>(4096 + 128, 33);
    pool.persist(4096, 192); // batch: events 0..2
    pool.writeAs<uint64_t>(8192, 44);
    pool.writeAs<uint64_t>(8192 + 64, 55);
    pool.persist(8192, 128); // batch: events 3..4
    pool.setDurabilityHook(nullptr);
    pool.crash();
    return pool.durableImage().dense();
}

TEST(Reorder, FullSubsetDrainIsBitIdenticalToPrefixFreeze)
{
    // Draining the full first batch and then crashing must equal the
    // prefix freeze at the batch's end: CrashWithDrain(0, {ff,ff,ff})
    // == CrashAtEvent(3), bit for bit.
    fault::CrashAtEvent prefix(3);
    fault::CrashWithDrain full(
        0, {DurabilityHook::kFullLineMask, DurabilityHook::kFullLineMask,
            DurabilityHook::kFullLineMask});
    EXPECT_EQ(durableAfterSchedule(prefix), durableAfterSchedule(full));

    // The empty subset equals the freeze at the batch's start.
    fault::CrashAtEvent before(0);
    fault::CrashWithDrain none(0, {0, 0, 0});
    EXPECT_EQ(durableAfterSchedule(before), durableAfterSchedule(none));

    // And a proper subset differs from both.
    fault::CrashWithDrain partial(
        0, {DurabilityHook::kFullLineMask, 0, 0});
    const std::vector<uint8_t> img = durableAfterSchedule(partial);
    EXPECT_NE(img, durableAfterSchedule(prefix));
    EXPECT_NE(img, durableAfterSchedule(before));
}

TEST(Reorder, TornDrainPersistsOnlyMaskedWords)
{
    // Mask 0x01 persists words [0, 8) of the interrupted line only.
    fault::CrashWithDrain torn(0, {0x01, 0, 0});
    Pool pool("p", 1, 1 << 20);
    pool.setDurabilityPolicy(DurabilityPolicy::Strict);
    pool.setDurabilityHook(&torn);
    pool.writeAs<uint64_t>(4096, 11);
    pool.writeAs<uint64_t>(4096 + 8, 99); // same line, second word
    pool.persist(4096, 72);
    pool.setDurabilityHook(nullptr);
    EXPECT_TRUE(torn.fired());
    pool.crash();
    EXPECT_EQ(pool.readAs<uint64_t>(4096), 11u);
    EXPECT_EQ(pool.readAs<uint64_t>(4096 + 8), 0u);
}

TEST(Reorder, PlanDrainStatesExhaustiveForSmallBatches)
{
    DrainBatch b;
    b.start = 10;
    b.lines = {1, 2, 3};
    b.cause = WriteBackCause::Fence;
    const std::vector<DrainPlan> plans =
        fault::planDrainStates(b, 6, 32, 42);

    uint64_t subsets = 0, torn = 0;
    std::set<std::string> distinct;
    for (const DrainPlan &p : plans) {
        EXPECT_EQ(p.start, 10u);
        distinct.insert(fault::encodeDrainMasks(p.masks));
        if (p.torn)
            ++torn;
        else
            ++subsets;
    }
    // 2^3 - 2 proper non-empty subsets; 14 torn masks at each of the
    // three interrupt positions.
    EXPECT_EQ(subsets, 6u);
    EXPECT_EQ(torn, 3u * 14u);
    EXPECT_EQ(distinct.size(), plans.size()) << "plans must be distinct";
}

TEST(Reorder, PlanDrainStatesSamplesLargeBatches)
{
    DrainBatch b;
    b.start = 0;
    b.lines.resize(12);
    for (uint32_t i = 0; i < 12; ++i)
        b.lines[i] = i;
    b.cause = WriteBackCause::Fence;
    const std::vector<DrainPlan> plans =
        fault::planDrainStates(b, 6, 16, 42);

    uint64_t subsets = 0, torn = 0;
    for (const DrainPlan &p : plans)
        (p.torn ? torn : subsets) += 1;
    EXPECT_EQ(subsets, 16u) << "sampled, not 2^12 - 2";
    EXPECT_EQ(torn, 12u * 14u);

    // Deterministic for a fixed seed, different for another.
    const std::vector<DrainPlan> again =
        fault::planDrainStates(b, 6, 16, 42);
    ASSERT_EQ(again.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i)
        EXPECT_EQ(again[i].masks, plans[i].masks);
}

TEST(Reorder, DrainMaskCodecRoundTripsAndRejects)
{
    const std::vector<uint8_t> masks = {0x03, 0xff, 0x00, 0xe0};
    const std::string hex = fault::encodeDrainMasks(masks);
    EXPECT_EQ(hex, "03ff00e0");
    EXPECT_EQ(fault::decodeDrainMasks(hex), masks);
    EXPECT_THROW(fault::decodeDrainMasks(""), std::invalid_argument);
    EXPECT_THROW(fault::decodeDrainMasks("0"), std::invalid_argument);
    EXPECT_THROW(fault::decodeDrainMasks("zz"), std::invalid_argument);
}

TEST(Reorder, EventContractViolationNamesBothCounts)
{
    using fault::detail::checkEventContract;
    using fault::detail::Recording;
    auto recording = [](size_t events) {
        Recording r;
        r.events.resize(events);
        for (size_t i = 0; i < events; ++i)
            r.events[i].line = static_cast<uint32_t>(i);
        return r;
    };
    EXPECT_NO_THROW(checkEventContract(recording(5), recording(5)));
    try {
        checkEventContract(recording(5), recording(7));
        FAIL() << "contract violation must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("contract"), std::string::npos) << what;
        EXPECT_NE(what.find("7"), std::string::npos)
            << "must name the second count: " << what;
        EXPECT_NE(what.find("5"), std::string::npos)
            << "must name the first count: " << what;
    }

    // Equal counts are not enough: the streams must match event for
    // event — line bytes and phase included.
    Recording torn = recording(5);
    torn.events[3].bytes[17] = 0x5a;
    EXPECT_THROW(checkEventContract(recording(5), torn),
                 std::runtime_error);
    Recording moved = recording(5);
    moved.events[2].evict_pass = true;
    EXPECT_THROW(checkEventContract(recording(5), moved),
                 std::runtime_error);
}

TEST(Reorder, ExplorationCoversReorderStates)
{
    ExploreOptions o;
    o.workload = "LL";
    o.steps = 4;
    o.seed = 3;
    o.jobs = 2;
    o.depth = 1;
    o.reorder = true;
    o.strict = true;
    const ExploreReport rep = fault::explore(o);
    EXPECT_TRUE(rep.ok()) << (rep.failures.empty()
                                  ? ""
                                  : rep.failures[0].repro() + "  " +
                                        rep.failures[0].why);
    EXPECT_GT(rep.reorder_states, 0u);
    EXPECT_GT(rep.torn_states, 0u);
    EXPECT_GE(rep.reorder_states, rep.torn_states);

    StatsRegistry stats;
    rep.publish(stats);
    EXPECT_EQ(stats.counter("fault.reorder.states"), rep.reorder_states);
    EXPECT_EQ(stats.counter("fault.reorder.torn_states"),
              rep.torn_states);
}

TEST(Reorder, ReproTokensRoundTripThroughReplay)
{
    // Healthy trials replay clean through every new token.
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:d1,2").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:r03").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:rff").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:S").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:r03:S").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:d1,2:S").empty());
}

TEST(Reorder, MalformedReproTokensThrow)
{
    // Empty or non-numeric stack items.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:d"), std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:d1,,2"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:dx"),
                 std::invalid_argument);
    // Bad drain masks.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:r"), std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:r0"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:rzz"),
                 std::invalid_argument);
    // A drain state crashes mid-batch: recursing into recovery from it
    // is not a defined trial shape.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:d1:r03"),
                 std::invalid_argument);
    // Media faults run under the Eager policy, with no drain/stack.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:r03:m1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:S:m1"),
                 std::invalid_argument);
}

TEST(Reorder, TornSplitRemainderHeaderRegression)
{
    // Found by the reorder explorer (and fixed in the same change): a
    // Strict fence drain tears the 64-byte line holding both a freshly
    // allocated block's header and its split remainder's header. The
    // remainder's old bytes never held a header, so no log record and
    // no second copy could prove its liveness, and scrub fail-stopped
    // a state that a real machine must recover from. The fix moves
    // prev_size out of the checksummed word (it is walk-derivable) and
    // teaches scrub the two fresh-remainder signatures; these exact
    // crash states must replay clean forever.
    for (const char *repro :
         {"LL:6:3:24:r03:S", "LL:6:3:24:r07:S", "LL:6:3:24:r0f:S",
          "LL:6:3:24:r1f:S"}) {
        EXPECT_TRUE(fault::replayRepro(repro).empty()) << repro;
    }
}

TEST(Reorder, StaleAbsorbedHeaderTornSplitRegression)
{
    // Found by the concurrent reorder explorer: a torn fence drain
    // during an allocation split persisted only the new header's
    // (size, flags) word, and scrub's extent reconstruction then
    // accepted a STALE crc-valid header — left behind by an earlier
    // coalesce — as the split's successor, resurrecting an allocation
    // no log record covers (a permanent leak). free() now poisons
    // absorbed headers and rebuildFreeList sweeps free extents, so
    // these exact crash states must replay clean forever.
    for (const char *repro :
         {"LHT:8:1:139:r01:S:t1:n3", "LHT:8:1:139:r3f:S:t1:n3"}) {
        EXPECT_TRUE(fault::replayRepro(repro).empty()) << repro;
    }
}

TEST(Reorder, TpccDeliveryPrefixStatesVerifyRegression)
{
    // Found by the first run of the TPC-C shadow verifier: delivery
    // commits one TxScope per district, so these crash points recover
    // to a proper prefix of a delivery's district credits — a state
    // that equals NO whole-step reference count. The shadow model must
    // replay delivery sub-transaction prefixes as candidates between
    // steps s and s+1 (these two points sit mid-delivery of step 2).
    for (const char *repro : {"TPCC:10:1:118", "TPCC:10:1:597"}) {
        EXPECT_TRUE(fault::replayRepro(repro).empty()) << repro;
    }
}

} // namespace
} // namespace poat
