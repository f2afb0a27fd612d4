/**
 * @file
 * ContentionProfiler unit tests on hand-built event sequences: the
 * blocked-attribution invariant (running + blocked sums exactly to the
 * makespan on every core), lock wait/hold span time bases, the
 * critical-path DAG (length, lock edges, per-op and per-lock
 * attribution, and the length <= makespan bound), export idempotence,
 * and the sequential-run activation gate. Every event arrives as a
 * note, as the machine feeds it.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/stats.h"
#include "telemetry/contention.h"

namespace poat {
namespace telemetry {
namespace {

/**
 * Feed @p n to @p p as core @p core emits it at makespan @p makespan
 * and core-local clock @p local.
 */
void
feed(ContentionProfiler &p, const Note &n, uint32_t core,
     uint64_t makespan, uint64_t local = 0)
{
    p.note(n, {core, local, makespan, 0});
}

/** A transaction on core 0 that rolls back after @p wasted cycles. */
void
abortTx(ContentionProfiler &p, uint64_t wasted)
{
    feed(p, {NoteKind::TxBegin, {1}}, 0, 0);
    feed(p, {NoteKind::TxAbort, {1}}, 0, 0, wasted);
}

/** Dump @p reg to a string for whole-export comparisons. */
std::string
dumpAll(const StatsRegistry &reg)
{
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

TEST(Contention, InactiveUntilConcurrencyEvent)
{
    ContentionProfiler p;
    EXPECT_FALSE(p.active());
    // Sequential runs emit op events too; they must not activate the
    // profiler (stats schema of sequential runs is golden-gated).
    p.note(Note::opName(1, "alpha"), {});
    feed(p, {NoteKind::OpSet, {1}}, 0, 10);
    abortTx(p, 5);
    EXPECT_FALSE(p.active());
    // A sequential single-core export carries the tx.* spans only.
    StatsRegistry reg;
    p.exportInto(reg, 10, /*multi_core=*/false);
    EXPECT_EQ(reg.get("tx.aborts"), 1u);
    EXPECT_EQ(reg.findHistogram("tx.abort.wasted_cycles"), nullptr);
    p.coreSwitchIn(0, 0, 0);
    EXPECT_TRUE(p.active());
}

TEST(Contention, BlockedAttributionSumsToMakespanPerCore)
{
    // Events always come from the active core, as in the real feed.
    ContentionProfiler p;
    p.coreSwitchIn(0, 0, 0);
    // Core 0 blocks on a lock.
    feed(p, {NoteKind::LockWait, {0, 0x10, 0, 1}}, 0, 40);
    p.coreSwitchIn(1, 0, 40); // core 1 takes over (created late:
                              // backfilled as token-waiting)
    // Core 1 waits on a commit window.
    feed(p, {NoteKind::CommitJoin, {1}}, 1, 90);
    p.coreSwitchIn(2, 1, 100);
    feed(p, {NoteKind::WorkerDone, {2}}, 2, 120);
    p.coreSwitchIn(0, 2, 130);
    // Core 0's wait ends; then core 1's window closes.
    feed(p, {NoteKind::LockAcquired, {0, 0x10, 1}}, 0, 130, 7);
    feed(p, {NoteKind::CommitBatch, {2, 3}}, 0, 180);

    StatsRegistry reg;
    p.exportInto(reg, 200, true);
    for (uint32_t c = 0; c < 3; ++c) {
        const std::string pre = "sched.core." + std::to_string(c) + ".";
        uint64_t sum = reg.get(pre + "running");
        for (uint32_t r = 0; r < kBlockReasons; ++r)
            sum += reg.get(pre + "blocked." +
                           blockReasonName(static_cast<BlockReason>(r)));
        EXPECT_EQ(sum, 200u) << "core " << c;
    }
    // Spot-check the reasons: core 0 was lock-waiting for [40, 130),
    // core 1 commit-waiting for [90, 180) minus its running span
    // [90, 100), core 2 idle-done from 130 (it ran until the switch).
    EXPECT_EQ(reg.get("sched.core.0.blocked.lock_wait"), 90u);
    EXPECT_EQ(reg.get("sched.core.1.blocked.commit_wait"), 80u);
    EXPECT_EQ(reg.get("sched.core.2.blocked.idle_done"), 70u);
    // And the machine-wide rollup is the per-core sum.
    uint64_t lock_sum = 0;
    for (uint32_t c = 0; c < 3; ++c)
        lock_sum += reg.get("sched.core." + std::to_string(c) +
                            ".blocked.lock_wait");
    EXPECT_EQ(reg.get("sched.blocked.lock_wait"), lock_sum);
}

TEST(Contention, WaitSpansUseMakespanHoldSpansUseLocalClock)
{
    ContentionProfiler p;
    p.coreSwitchIn(0, 0, 0);
    p.note(Note::opName(3, "put"), {});
    feed(p, {NoteKind::OpSet, {3}}, 0, 0);
    // Wait span: makespan 500 -> 620 (the waiter's own clock is
    // frozen, so only the makespan can measure it).
    feed(p, {NoteKind::LockWait, {0, 0xabc, 1, 2}}, 0, 500);
    feed(p, {NoteKind::LockAcquired, {0, 0xabc, 1}}, 0, /*makespan=*/620,
         /*local=*/100);
    // Hold span: local 100 -> 175 on the same core.
    feed(p, {NoteKind::LockReleased, {0, 0xabc}}, 0, /*makespan=*/700,
         /*local=*/175);

    StatsRegistry reg;
    p.exportInto(reg, 700, true);
    const Histogram *wait = reg.findHistogram("lock.wait_cycles");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count(), 1u);
    EXPECT_EQ(wait->max(), 120u);
    const Histogram *hold = reg.findHistogram("lock.hold_cycles");
    ASSERT_NE(hold, nullptr);
    EXPECT_EQ(hold->count(), 1u);
    EXPECT_EQ(hold->max(), 75u);
    // Per-op and top-table rows carry the same spans.
    const Histogram *byop =
        reg.findHistogram("lock.op.put.wait_cycles");
    ASSERT_NE(byop, nullptr);
    EXPECT_EQ(byop->max(), 120u);
    EXPECT_EQ(reg.get("lock.top.count"), 1u);
    EXPECT_EQ(reg.get("lock.top.0.key"), 0xabcu);
    EXPECT_EQ(reg.get("lock.top.0.wait_cycles"), 120u);
    EXPECT_EQ(reg.get("lock.top.0.hold_cycles"), 75u);
    EXPECT_EQ(reg.get("lock.waits"), 1u);
    EXPECT_EQ(reg.get("lock.acquisitions"), 1u);
    EXPECT_EQ(reg.get("lock.waits_for_edges"), 2u);
}

TEST(Contention, CriticalPathFollowsLockEdge)
{
    // Core 0 does tagged work and releases key K at makespan 100;
    // core 1 acquires K at 150 and works until 200. The longest chain
    // is core 0's release path (100) plus core 1's post-acquire
    // segment (50) = 150 < makespan 200 — shorter than core 0's own
    // 120 + core 1's pre-acquire 30 summed naively.
    ContentionProfiler p;
    p.note(Note::opName(1, "alpha"), {});
    p.coreSwitchIn(0, 0, 0);
    feed(p, {NoteKind::OpSet, {1}}, 0, 10);
    // Never held: no hold span.
    feed(p, {NoteKind::LockReleased, {0, 0x42}}, 0, 100, 90);
    p.coreSwitchIn(1, 0, 120);
    feed(p, {NoteKind::LockAcquired, {1, 0x42, 1}}, 1, 150, 5);
    p.coreSwitchIn(0, 1, 200);

    StatsRegistry reg;
    p.exportInto(reg, 200, true);
    EXPECT_EQ(reg.get("cp.length"), 150u);
    EXPECT_LE(reg.get("cp.length"), 200u);
    EXPECT_EQ(reg.get("cp.edges.lock"), 1u);
    // The path rode the K join edge: the upstream alpha segment
    // [10, 100) charges to K.
    EXPECT_EQ(reg.get("cp.lock.count"), 1u);
    EXPECT_EQ(reg.get("cp.lock.0.key"), 0x42u);
    EXPECT_EQ(reg.get("cp.lock.0.cycles"), 90u);
    EXPECT_EQ(reg.get("cp.op.alpha.cycles"), 90u);
    // untagged: [0,10) on core 0 plus [150,200) on core 1.
    EXPECT_EQ(reg.get("cp.op.untagged.cycles"), 60u);
}

TEST(Contention, OpenSegmentCountsAtExport)
{
    // A run that never switches away from core 0: the single open
    // segment is virtually closed at the makespan, so the critical
    // path is exactly the makespan.
    ContentionProfiler p;
    p.coreSwitchIn(0, 0, 0);
    feed(p, {NoteKind::CommitJoin, {0}}, 0, 50);
    feed(p, {NoteKind::CommitBatch, {1, 0}}, 0, 80);
    StatsRegistry reg;
    p.exportInto(reg, 300, true);
    EXPECT_EQ(reg.get("cp.length"), 300u);
    EXPECT_EQ(reg.get("commit.batch.windows"), 1u);
}

TEST(Contention, ExportIsIdempotent)
{
    ContentionProfiler p;
    p.note(Note::opName(2, "beta"), {});
    p.coreSwitchIn(0, 0, 0);
    feed(p, {NoteKind::OpSet, {2}}, 0, 20);
    feed(p, {NoteKind::LockWait, {0, 0x7, 0, 0}}, 0, 30);
    p.coreSwitchIn(1, 0, 40);
    feed(p, {NoteKind::CommitJoin, {1}}, 1, 80);
    p.coreSwitchIn(0, 1, 90);
    feed(p, {NoteKind::LockAcquired, {0, 0x7, 1}}, 0, 90, 9);
    feed(p, {NoteKind::CommitBatch, {1, 2}}, 0, 110);
    abortTx(p, 33);

    StatsRegistry a;
    p.exportInto(a, 140, true);
    p.exportInto(a, 140, true); // same clock: every value reassigned equal
    StatsRegistry b;
    p.exportInto(b, 140, true);
    EXPECT_EQ(dumpAll(a), dumpAll(b));
}

TEST(Contention, AbortAndDeadlockCounters)
{
    ContentionProfiler p;
    p.coreSwitchIn(0, 0, 0);
    abortTx(p, 40);
    abortTx(p, 60);
    feed(p, {NoteKind::LockWait, {0, 0x9, 1, 3}}, 0, 10);
    // The aborted wait still charges 45.
    feed(p, {NoteKind::LockDeadlock, {0, 0x9}}, 0, 55);
    StatsRegistry reg;
    p.exportInto(reg, 100, true);
    EXPECT_EQ(reg.get("tx.abort.count"), 2u);
    EXPECT_EQ(reg.get("tx.abort.wasted_total"), 100u);
    EXPECT_EQ(reg.get("lock.deadlock_victims"), 1u);
    const Histogram *wait = reg.findHistogram("lock.wait_cycles");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count(), 1u);
    EXPECT_EQ(wait->max(), 45u);
}

} // namespace
} // namespace telemetry
} // namespace poat
