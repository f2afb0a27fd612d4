/** @file Unit tests for the crash-point exploration engine. */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "fault/explore.h"
#include "fault/injector.h"
#include "fault/trial.h"
#include "pmem/runtime.h"
#include "pmem/scrub.h"
#include "workloads/crash_support.h"

namespace poat {
namespace {

using fault::ExploreOptions;
using fault::ExploreReport;

ExploreOptions
smallRun(const std::string &workload)
{
    ExploreOptions o;
    o.workload = workload;
    o.steps = 6;
    o.seed = 3;
    o.jobs = 2;
    return o;
}

std::string
firstFailure(const ExploreReport &rep)
{
    if (rep.failures.empty())
        return "";
    return rep.failures[0].repro() + "  " + rep.failures[0].why;
}

TEST(Injector, EventCounterCountsByCause)
{
    fault::EventCounter counter;
    Pool pool("p", 1, 1 << 20);
    pool.setDurabilityHook(&counter);
    pool.writeAs<uint64_t>(4096, 1);
    pool.persist(4096, 8);
    EXPECT_EQ(counter.total(), 1u);
    EXPECT_EQ(counter.count(WriteBackCause::Clwb), 1u);
    EXPECT_EQ(counter.count(WriteBackCause::Evict), 0u);
    pool.setDurabilityHook(nullptr);
}

TEST(Injector, CrashAtEventFreezesDurableState)
{
    fault::CrashAtEvent crash(1);
    Pool pool("p", 1, 1 << 20);
    pool.writeAs<uint64_t>(4096, 1);
    pool.persist(4096, 8); // durable before the hook
    pool.setDurabilityHook(&crash);
    pool.writeAs<uint64_t>(4160, 2);
    pool.persist(4160, 8); // event 0: passes through
    pool.writeAs<uint64_t>(4224, 3);
    pool.persist(4224, 8); // event 1: frozen
    pool.setDurabilityHook(nullptr);
    EXPECT_TRUE(crash.fired());

    // The volatile image still sees everything; after the simulated
    // power failure only the first two stores survive.
    EXPECT_EQ(pool.readAs<uint64_t>(4224), 3u);
    pool.crash();
    EXPECT_EQ(pool.readAs<uint64_t>(4096), 1u);
    EXPECT_EQ(pool.readAs<uint64_t>(4160), 2u);
    EXPECT_EQ(pool.readAs<uint64_t>(4224), 0u);
}

TEST(Explore, ExhaustiveLinkedListPassesAllInvariants)
{
    const ExploreReport rep = fault::explore(smallRun("LL"));
    EXPECT_TRUE(rep.ok()) << firstFailure(rep);
    EXPECT_GT(rep.total_events, 0u);
    EXPECT_EQ(rep.trials, rep.total_events) << "exhaustive = one per event";
    EXPECT_GT(rep.recovery_trials, 0u);
    EXPECT_GT(rep.crashes_injected, 0u);
    EXPECT_GT(rep.undo_entries_rolled_back, 0u);
    EXPECT_EQ(rep.blocks_leaked, 0u);
}

TEST(Explore, ExhaustiveBtreeWithEvictionPressurePasses)
{
    ExploreOptions o = smallRun("BT");
    o.evict_num = 1;
    o.evict_den = 4;
    const ExploreReport rep = fault::explore(o);
    EXPECT_TRUE(rep.ok()) << firstFailure(rep);
    // Eviction only write-backs lines still dirty between steps, and a
    // committed transaction must leave none: every store goes through a
    // logged range or a tx allocation, both persisted at commit. A
    // nonzero count here means some workload store was never persisted
    // — the eviction pass is the tripwire for forgotten persists.
    EXPECT_EQ(rep.evict_events, 0u)
        << "a committed transaction left dirty lines behind";
}

TEST(Explore, DeterministicAcrossRuns)
{
    const ExploreOptions o = smallRun("BST");
    const ExploreReport a = fault::explore(o);
    const ExploreReport b = fault::explore(o);
    EXPECT_EQ(a.total_events, b.total_events);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.recovery_trials, b.recovery_trials);
    EXPECT_EQ(a.crashes_injected, b.crashes_injected);
    EXPECT_EQ(a.undo_entries_rolled_back, b.undo_entries_rolled_back);
    EXPECT_EQ(a.frees_redone, b.frees_redone);
    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (size_t i = 0; i < a.failures.size(); ++i)
        EXPECT_EQ(a.failures[i].repro(), b.failures[i].repro());
}

TEST(Explore, FreesRedoneReadsTheCrashedImage)
{
    // LL erases defer each free to commit: between the durable commit
    // point and the free's own header write-back, the crashed image
    // holds a committing log whose free record names a block that is
    // still allocated in that image. Recovery redoes that free — also
    // when the uncrashed run frees the block for good, so that no
    // end-of-run allocator state says it is live.
    const ExploreOptions o = smallRun("LL");
    const fault::detail::Recording rec = fault::detail::recordStream(o);

    // Blocks allocated when the uncrashed run ends.
    fault::detail::TrialRun done(o);
    fault::detail::crashRun(done, o, rec.events.size(), nullptr, &rec);
    done.rt.registry().recoverAll();

    uint64_t checked = 0;
    for (uint64_t k = 0; k < rec.events.size(); ++k) {
        fault::detail::TrialRun run(o);
        fault::detail::crashRun(run, o, k, nullptr, &rec);
        // Oracle on a scratch copy of the image: scrub and rescan as
        // recovery will, then ask the allocator.
        std::vector<std::pair<uint32_t, uint32_t>> redo;
        for (uint32_t id : run.rt.registry().openIds()) {
            OpenPool &op = run.rt.registry().get(id);
            scrubPool(op.pool);
            op.alloc.rescan();
            op.forEachLog([&](UndoLog &log) {
                if (log.state() != LogHeader::kCommitting)
                    return;
                for (const UndoLog::Record &r : log.records()) {
                    if (r.type == LogEntryHeader::kFree &&
                        op.alloc.isAllocated(r.target_off))
                        redo.emplace_back(id, r.target_off);
                }
            });
        }
        const bool freed_for_good =
            !redo.empty() &&
            std::all_of(redo.begin(), redo.end(), [&](const auto &b) {
                return !done.rt.registry().get(b.first).alloc.isAllocated(
                    b.second);
            });
        if (!freed_for_good)
            continue;
        ++checked;
        for (const fault::detail::Recording *source : {&rec,
             static_cast<const fault::detail::Recording *>(nullptr)}) {
            fault::detail::TrialStats ts;
            fault::detail::runTrial(o, k, {}, nullptr, source, ts);
            EXPECT_EQ(ts.frees_redone, redo.size())
                << "k=" << k << (source ? " (stream)" : " (re-executed)");
            EXPECT_TRUE(ts.failures.empty()) << "k=" << k;
        }
        run.rt.registry().recoverAll();
        for (const auto &[id, payload] : redo) {
            EXPECT_FALSE(run.rt.registry().get(id).alloc.isAllocated(
                payload))
                << "recovery must redo the free (k=" << k << ")";
        }
    }
    EXPECT_GT(checked, 0u) << "no crash point with a free to redo";
}

TEST(Explore, SamplingBoundsTrialCount)
{
    ExploreOptions o = smallRun("SPS");
    o.sample = 4;
    o.inner_cap = 1;
    o.depth = 1; // the historic single recovery-crash level
    const ExploreReport rep = fault::explore(o);
    EXPECT_TRUE(rep.ok()) << firstFailure(rep);
    EXPECT_EQ(rep.trials, 4u);
    EXPECT_LE(rep.recovery_trials, 4u);
    EXPECT_LE(rep.max_depth, 1u);
}

TEST(Explore, RecursiveRecoveryCrashesAreBudgetedByDepth)
{
    ExploreOptions o = smallRun("SPS");
    o.sample = 4;
    o.inner_cap = 1;
    o.depth = 2;
    const ExploreReport rep = fault::explore(o);
    EXPECT_TRUE(rep.ok()) << firstFailure(rep);
    // inner_cap = 1 gives at most one in-recovery crash per level:
    // <= 4 single-level trials plus <= 4 two-level trials.
    EXPECT_GT(rep.recovery_trials, 4u)
        << "depth 2 must add second-level trials";
    EXPECT_LE(rep.recovery_trials, 8u);
    EXPECT_EQ(rep.max_depth, 2u);

    // depth 0 disables in-recovery crashing entirely.
    o.depth = 0;
    const ExploreReport flat = fault::explore(o);
    EXPECT_TRUE(flat.ok()) << firstFailure(flat);
    EXPECT_EQ(flat.recovery_trials, 0u);
    EXPECT_EQ(flat.max_depth, 0u);
}

TEST(Explore, PublishExportsCounters)
{
    StatsRegistry stats;
    fault::explore(smallRun("LL")).publish(stats);
    EXPECT_GT(stats.counter("fault.events"), 0u);
    EXPECT_GT(stats.counter("fault.trials"), 0u);
    EXPECT_GT(stats.counter("fault.crashes_injected"), 0u);
    EXPECT_EQ(stats.counter("fault.failures"), 0u);
}

TEST(Explore, ReproStringRoundTrips)
{
    fault::Failure f;
    f.workload = "B+T";
    f.steps = 50;
    f.seed = 1;
    f.k = 7;
    EXPECT_EQ(f.repro(), "B+T:50:1:7");
    // A single in-recovery crash keeps the historical bare-j shape.
    f.stack = {3};
    EXPECT_EQ(f.repro(), "B+T:50:1:7:3");
    // Sampled-eviction failures carry their schedule in the string, so
    // no out-of-band --evict is needed to replay them.
    f.evict_num = 1;
    f.evict_den = 8;
    EXPECT_EQ(f.repro(), "B+T:50:1:7:3:e1/8");

    // A deeper recovery-crash stack switches to the d-token.
    f.stack = {3, 5};
    EXPECT_EQ(f.repro(), "B+T:50:1:7:d3,5:e1/8");

    // Drain-state failures carry their per-event word masks; strict
    // failures their policy.
    fault::Failure d;
    d.workload = "LL";
    d.steps = 6;
    d.seed = 3;
    d.k = 24;
    d.drain = "03ff";
    EXPECT_EQ(d.repro(), "LL:6:3:24:r03ff");
    d.strict = true;
    EXPECT_EQ(d.repro(), "LL:6:3:24:r03ff:S");
}

TEST(Explore, ReplayParsesEvictionToken)
{
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:e1/8").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:0:e1/8").empty());
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e1/8:0"),
                 std::invalid_argument);
}

TEST(Explore, ReplayOfHealthyTrialReportsNothing)
{
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:0").empty());
}

TEST(Explore, MalformedReproThrows)
{
    EXPECT_THROW(fault::replayRepro("nope"), std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2"), std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:x:2:3"), std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:4:5"),
                 std::invalid_argument);
    // Every number is strict: no trailing characters, no sign.
    for (const char *bad :
         {"LL:2:1:0abc", "LL:2:-1:0", "LL:+2:1:0", "LL:2:1: 0",
          "LHT:4:1:0:t-1", "LHT:4:1:0:t1:n-1", "LL:5:2:3:d1,-2",
          "LL:5:2:3:d1,,2"})
        EXPECT_THROW(fault::replayRepro(bad), std::invalid_argument)
            << bad;
}

TEST(Explore, UnknownWorkloadThrows)
{
    EXPECT_THROW(workloads::makeCrashDriver("XX", 5, 1),
                 std::invalid_argument);
    ExploreOptions o = smallRun("XX");
    EXPECT_THROW(fault::explore(o), std::invalid_argument);
    // So is a worker count the trial pools have no log slots for.
    o = smallRun("LHT");
    o.threads = PoolHeader::kMaxLogSlots + 1;
    EXPECT_THROW(fault::explore(o), std::invalid_argument);
    EXPECT_EQ(workloads::crashWorkloadNames().size(), 9u);
}

TEST(Explore, ConcurrentReproCarriesSchedulerTokens)
{
    fault::Failure f;
    f.workload = "LHT";
    f.steps = 12;
    f.seed = 4;
    f.k = 9;
    f.sched_seed = 5;
    // tSEED always rides along for concurrent workloads; nTHREADS only
    // when the producing run overrode the default.
    EXPECT_EQ(f.repro(), "LHT:12:4:9:t5");
    f.threads = 3;
    EXPECT_EQ(f.repro(), "LHT:12:4:9:t5:n3");
    f.stack = {2};
    f.evict_num = 1;
    f.evict_den = 8;
    EXPECT_EQ(f.repro(), "LHT:12:4:9:2:t5:n3:e1/8");

    // Sequential workloads keep their historical shape: no t/n tokens
    // even when the options carried concurrency knobs.
    fault::Failure seq;
    seq.workload = "B+T";
    seq.steps = 12;
    seq.seed = 4;
    seq.k = 9;
    seq.sched_seed = 5;
    seq.threads = 3;
    EXPECT_EQ(seq.repro(), "B+T:12:4:9");
}

TEST(Explore, ConcurrentReproReplaysThroughTheParser)
{
    // A healthy LHT trial replays clean with scheduler seed and thread
    // count parsed from the string, in every token combination.
    EXPECT_TRUE(fault::replayRepro("LHT:3:1:2:t5").empty());
    EXPECT_TRUE(fault::replayRepro("LHT:3:1:2:t5:n3").empty());
    EXPECT_TRUE(fault::replayRepro("LHT:3:1:2:0:t5:n2").empty());
    EXPECT_THROW(fault::replayRepro("LHT:3:1:2:t"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LHT:3:1:2:n2:t5"),
                 std::invalid_argument); // tokens are ordered: t then n
    // Worker counts past the 256 undo-log slots, or past 32 bits (not
    // truncated to 2), are rejected before any pool exists.
    EXPECT_THROW(fault::replayRepro("LHT:3:1:2:t5:n300"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LHT:3:1:2:t5:n4294967298"),
                 std::invalid_argument);
}

TEST(Explore, ConcurrentWorkloadsPassSmallExploration)
{
    for (const char *wl : {"LHT", "MTPCC"}) {
        ExploreOptions o;
        o.workload = wl;
        o.steps = 3;
        o.seed = 3;
        o.jobs = 2;
        o.sched_seed = 1;
        o.sample = 40;
        o.inner_cap = 2;
        const ExploreReport rep = fault::explore(o);
        EXPECT_TRUE(rep.ok()) << wl << ": " << firstFailure(rep);
        EXPECT_GT(rep.trials, 0u) << wl;
    }
}

TEST(Explore, ConcurrentExplorationIsJobCountInvariant)
{
    ExploreOptions o;
    o.workload = "LHT";
    o.steps = 4;
    o.seed = 7;
    o.sched_seed = 2;
    o.sample = 25;
    o.inner_cap = 1;
    o.jobs = 1;
    const ExploreReport serial = fault::explore(o);
    o.jobs = 4;
    const ExploreReport wide = fault::explore(o);
    EXPECT_EQ(serial.total_events, wide.total_events);
    EXPECT_EQ(serial.trials, wide.trials);
    EXPECT_EQ(serial.recovery_trials, wide.recovery_trials);
    EXPECT_EQ(serial.crashes_injected, wide.crashes_injected);
    EXPECT_EQ(serial.undo_entries_rolled_back,
              wide.undo_entries_rolled_back);
    EXPECT_EQ(serial.failures.size(), wide.failures.size());
    EXPECT_TRUE(serial.ok()) << firstFailure(serial);
}

} // namespace
} // namespace poat
