/**
 * @file
 * Unit tests for the concurrency subsystem: deterministic scheduler,
 * two-phase lock manager with deadlock detection, transaction table,
 * group commit, and the engine's abort-retry loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pmem/concurrent/engine.h"
#include "pmem/runtime.h"
#include "workloads/harness.h"

namespace poat {
namespace concurrent {
namespace {

/** The switch sequence (incoming worker ids) of one scheduled run. */
std::vector<uint32_t>
switchTrace(uint64_t seed, uint32_t nthreads, uint32_t yields_each)
{
    DetScheduler sched(seed, 3 /*max_quantum*/);
    std::vector<uint32_t> trace;
    sched.setSwitchHandler([&trace](uint32_t t) { trace.push_back(t); });
    sched.run(nthreads, [&sched, yields_each](uint32_t) {
        for (uint32_t i = 0; i < yields_each; ++i)
            sched.yield();
    });
    return trace;
}

TEST(DetScheduler, SameSeedSameSchedule)
{
    const auto a = switchTrace(17, 3, 40);
    const auto b = switchTrace(17, 3, 40);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.size(), 3u); // first entries alone would be nthreads
}

TEST(DetScheduler, DifferentSeedsDifferentSchedules)
{
    EXPECT_NE(switchTrace(1, 3, 40), switchTrace(2, 3, 40));
}

TEST(DetScheduler, PinnedSchedule)
{
    // Recorded when workers were still OS threads: the token, quanta
    // and Rng draws fix every interleaving, and with it every trace,
    // stat and explorer verdict built on them.
    const std::vector<uint32_t> want = {
        0, 2, 1, 2, 1, 2, 1, 0, 1, 0, 2, 0, 2, 0, 2, 1, 0, 1, 2,
        0, 2, 0, 1, 2, 0, 2, 1, 0, 2, 1, 0, 1, 2, 1, 0, 2, 0, 2,
        1, 0, 1, 0, 2, 1, 2, 1, 0, 1, 2, 0, 2, 0, 1, 2, 1, 0};
    EXPECT_EQ(switchTrace(17, 3, 40), want);
}

/** Recurse @p depth 16 KB frames deep, yielding every 8th level. */
uint64_t
deepSum(DetScheduler &sched, uint32_t depth)
{
    volatile uint8_t frame[16 << 10];
    for (size_t i = 0; i < sizeof frame; i += 4096)
        frame[i] = static_cast<uint8_t>(depth);
    frame[sizeof frame - 1] = static_cast<uint8_t>(depth);
    if (depth % 8 == 0)
        sched.yield();
    const uint64_t below = depth == 0 ? 0 : deepSum(sched, depth - 1);
    return below + frame[0] + frame[sizeof frame - 1];
}

TEST(DetScheduler, WorkerWithMegabytesOfStackCompletes)
{
    // 129 frames of 16 KB: 2 MB per worker, both suspended mid-descent.
    DetScheduler sched(3, 2);
    std::vector<uint64_t> sums(2, 0);
    sched.run(2, [&](uint32_t t) { sums[t] = deepSum(sched, 128); });
    EXPECT_EQ(sums[0], 128u * 129u);
    EXPECT_EQ(sums[1], 128u * 129u);
    EXPECT_GT(sched.switches(), 1u);
}

TEST(DetScheduler, HostThreadsRunSchedulersIndependently)
{
    std::vector<std::vector<uint32_t>> serial;
    for (uint64_t seed = 0; seed < 16; ++seed)
        serial.push_back(switchTrace(seed, 3, 40));

    std::vector<std::vector<std::vector<uint32_t>>> got(2);
    std::vector<std::thread> hosts;
    for (size_t h = 0; h < got.size(); ++h) {
        hosts.emplace_back([&got, h] {
            for (uint64_t seed = 0; seed < 16; ++seed)
                got[h].push_back(switchTrace(seed, 3, 40));
        });
    }
    for (std::thread &th : hosts)
        th.join();
    for (const auto &traces : got)
        EXPECT_EQ(traces, serial);
}

size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    return static_cast<size_t>(
        std::count(std::istreambuf_iterator<char>(maps),
                   std::istreambuf_iterator<char>(), '\n'));
}

TEST(DetScheduler, BackToBackRunsRecycleStacks)
{
    auto once = [] {
        DetScheduler sched(7, 1);
        uint32_t steps = 0;
        sched.run(2, [&](uint32_t) {
            ++steps;
            sched.yield();
            ++steps;
        });
        return steps;
    };
    // The first run fills this thread's stack cache. TSan keeps the
    // bookkeeping of the last 16 destroyed fibers before reusing it,
    // so a few dozen runs also settle a TSan build's mappings.
    for (int i = 0; i < 32; ++i)
        ASSERT_EQ(once(), 4u);
    const size_t before = mappingCount();
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(once(), 4u);
    EXPECT_LE(mappingCount(), before);
}

TEST(DetSchedulerDeathTest, YieldInsideCatchHandler)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            DetScheduler sched(1, 1);
            sched.run(2, [&sched](uint32_t) {
                try {
                    throw 1;
                } catch (int) {
                    sched.yield();
                }
            });
        },
        "yield inside a catch handler");
    // Still caught when run() itself is called from a handler.
    EXPECT_DEATH(
        {
            try {
                throw 2;
            } catch (int) {
                DetScheduler sched(1, 1);
                sched.run(2, [&sched](uint32_t) {
                    try {
                        throw 1;
                    } catch (int) {
                        sched.yield();
                    }
                });
            }
        },
        "yield inside a catch handler");
}

TEST(DetSchedulerDeathTest, YieldDuringUnwinding)
{
    struct YieldOnDestroy
    {
        DetScheduler &sched;
        ~YieldOnDestroy() { sched.yield(); }
    };
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            DetScheduler sched(1, 1);
            sched.run(2, [&sched](uint32_t) {
                try {
                    YieldOnDestroy guard{sched};
                    throw 1;
                } catch (int) {
                }
            });
        },
        "during unwinding");
}

TEST(DetScheduler, RunInsideACallersCatchHandler)
{
    // Workers inherit the caller's exception state; it does not forbid
    // a yield, and a handler a worker enters and leaves restores it.
    const auto want = switchTrace(17, 3, 40);
    try {
        throw std::runtime_error("the caller's");
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(switchTrace(17, 3, 40), want);

        DetScheduler sched(5, 1);
        uint32_t caught = 0;
        sched.run(2, [&](uint32_t) {
            try {
                throw 1;
            } catch (int) {
                ++caught;
            }
            sched.yield();
        });
        EXPECT_EQ(caught, 2u);
        EXPECT_STREQ(e.what(), "the caller's");
    }
}

TEST(DetScheduler, RunsEveryWorkerToCompletion)
{
    DetScheduler sched(5);
    std::vector<uint32_t> count(4, 0);
    sched.run(4, [&](uint32_t t) {
        for (uint32_t i = 0; i < 10; ++i) {
            ++count[t];
            sched.yield();
        }
    });
    for (uint32_t t = 0; t < 4; ++t)
        EXPECT_EQ(count[t], 10u);
    EXPECT_EQ(sched.yields(), 40u);
}

TEST(TxTable, CountsBeginsCommitsAbortsRetries)
{
    TxTable table(2);
    table.noteBegin(0, false);
    table.noteCommit(0);
    table.noteBegin(1, false);
    table.noteAbort(1);
    table.noteBegin(1, true);
    table.noteCommit(1);
    EXPECT_EQ(table.totalCommits(), 2u);
    EXPECT_EQ(table.totalAborts(), 1u);
    EXPECT_EQ(table.totalRetries(), 1u);
    EXPECT_EQ(table.slot(0).begins, 1u);
    EXPECT_EQ(table.slot(1).begins, 2u);
    EXPECT_EQ(table.slot(1).status, TxStatus::Committed);
}

TEST(LockManager, SharedCoexistsExclusiveConflicts)
{
    LockManager lm;
    EXPECT_TRUE(lm.tryAcquire(0, 7, LockMode::Shared));
    EXPECT_TRUE(lm.tryAcquire(1, 7, LockMode::Shared));
    EXPECT_FALSE(lm.tryAcquire(2, 7, LockMode::Exclusive));
    lm.release(0, 7);
    lm.release(1, 7);
    EXPECT_TRUE(lm.tryAcquire(2, 7, LockMode::Exclusive));
    EXPECT_FALSE(lm.tryAcquire(0, 7, LockMode::Shared));
    EXPECT_TRUE(lm.holds(2, 7));
    lm.releaseAll(2);
    EXPECT_EQ(lm.heldCount(2), 0u);
}

TEST(LockManager, ReacquireAndUpgradeWhenSoleHolder)
{
    LockManager lm;
    EXPECT_TRUE(lm.tryAcquire(0, 9, LockMode::Shared));
    // Re-acquiring a held lock (same or weaker mode) is a no-op.
    EXPECT_TRUE(lm.tryAcquire(0, 9, LockMode::Shared));
    EXPECT_EQ(lm.heldCount(0), 1u);
    // Sole holder upgrades in place; a peer's Shared must now conflict.
    EXPECT_TRUE(lm.tryAcquire(0, 9, LockMode::Exclusive));
    EXPECT_FALSE(lm.tryAcquire(1, 9, LockMode::Shared));
}

TEST(LockManager, DeadlockCycleAbortsTheRequester)
{
    // w0: lock A, yield, lock B; w1: lock B, yield, lock A. With a
    // quantum of 1 the schedule interleaves at every yield, so one
    // worker closes the waits-for cycle and must be the victim.
    LockManager lm;
    DetScheduler sched(1, 1 /*max_quantum*/);
    std::vector<uint32_t> victims;
    sched.run(2, [&](uint32_t t) {
        const uint64_t first = t == 0 ? 0xA : 0xB;
        const uint64_t second = t == 0 ? 0xB : 0xA;
        try {
            lm.acquire(t, first, LockMode::Exclusive, sched);
            sched.yield();
            lm.acquire(t, second, LockMode::Exclusive, sched);
        } catch (const DeadlockAbort &d) {
            EXPECT_EQ(d.worker(), t);
            victims.push_back(t);
        }
        lm.releaseAll(t); // commit or abort: strict 2PL unlock point
    });
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(lm.deadlocks(), 1u);
    EXPECT_EQ(lm.heldCount(0), 0u);
    EXPECT_EQ(lm.heldCount(1), 0u);
}

/** Two-worker engine fixture over a real runtime with two log slots. */
struct EngineHarness
{
    EngineHarness(uint64_t sched_seed, uint32_t commit_window,
                  uint32_t max_quantum = 1)
        : rt(options()), sched(sched_seed, max_quantum)
    {
        EngineOptions eo;
        eo.threads = 2;
        eo.commit_window = commit_window;
        eng.emplace(rt, sched, eo);
        pool = rt.poolCreate("p", 1 << 20);
        for (int i = 0; i < 2; ++i)
            obj[i] = rt.pmalloc(pool, 64);
    }

    static RuntimeOptions
    options()
    {
        RuntimeOptions o;
        o.log_slots = 2;
        return o;
    }

    PmemRuntime rt;
    DetScheduler sched;
    std::optional<ConcurrentEngine> eng;
    uint32_t pool = 0;
    ObjectID obj[2];
};

TEST(Engine, AbortRetryReleasesLocksAndStaysLive)
{
    EngineHarness h(1, 1);
    const uint32_t kTxPerWorker = 8;
    h.eng->run([&](uint32_t t) {
        for (uint32_t i = 0; i < kTxPerWorker; ++i) {
            h.eng->txRun([&] {
                // Opposite lock orders manufacture real deadlock
                // cycles; locks strictly before the undo transaction
                // (draw->lock->mutate), so DeadlockAbort never unwinds
                // an open TxScope.
                h.eng->lockExclusive(t == 0 ? 0xA : 0xB);
                h.eng->yield();
                h.eng->lockExclusive(t == 0 ? 0xB : 0xA);
                workloads::TxScope tx(h.rt, true);
                tx.addRange(h.obj[t], 8);
                ObjectRef ref = h.rt.deref(h.obj[t]);
                h.rt.write<uint64_t>(
                    ref, 0, h.rt.read<uint64_t>(ref, 0) + 1);
            });
            h.eng->yield();
        }
    });
    const EngineStats s = h.eng->stats();
    // Completion itself is the liveness property; every transaction
    // eventually commits despite deadlock aborts along the way.
    EXPECT_EQ(s.commits, 2 * kTxPerWorker);
    EXPECT_GE(s.aborts, 1u);
    EXPECT_EQ(s.aborts, s.retries);
    EXPECT_EQ(s.deadlocks, s.aborts);
    EXPECT_EQ(h.eng->locks().heldCount(0), 0u);
    EXPECT_EQ(h.eng->locks().heldCount(1), 0u);
    for (int t = 0; t < 2; ++t) {
        EXPECT_EQ(h.rt.read<uint64_t>(h.rt.deref(h.obj[t]), 0),
                  kTxPerWorker);
    }
}

TEST(Engine, GroupCommitBatchesFences)
{
    auto runWindow = [](uint32_t window) {
        EngineHarness h(3, window, 4);
        h.eng->run([&](uint32_t t) {
            for (uint32_t i = 0; i < 8; ++i) {
                h.eng->txRun([&] {
                    h.eng->lockExclusive(t);
                    workloads::TxScope tx(h.rt, true);
                    tx.addRange(h.obj[t], 8);
                    h.rt.write<uint64_t>(h.rt.deref(h.obj[t]), 0, i);
                });
                h.eng->yield();
            }
        });
        return h.eng->stats();
    };

    const EngineStats batched = runWindow(4);
    EXPECT_EQ(batched.commits, 16u);
    EXPECT_EQ(batched.gc_members, 16u);
    EXPECT_LE(batched.gc_windows, 5u); // 16 commits / window of 4 (+tail)
    EXPECT_GE(batched.gc_windows, 4u);
    EXPECT_GT(batched.fences_elided, 0u);

    const EngineStats unbatched = runWindow(1);
    EXPECT_EQ(unbatched.commits, 16u);
    EXPECT_EQ(unbatched.gc_members, 0u);
    EXPECT_EQ(unbatched.fences_elided, 0u);
}

TEST(Engine, RestoresWorkerZeroAfterRun)
{
    EngineHarness h(2, 1);
    h.eng->run([&](uint32_t t) {
        h.eng->txRun([&] {
            h.eng->lockExclusive(t);
            workloads::TxScope tx(h.rt, true);
            tx.addRange(h.obj[t], 8);
            h.rt.write<uint64_t>(h.rt.deref(h.obj[t]), 0, 1);
        });
    });
    // Subsequent single-threaded emission must land on worker 0's
    // context: a plain transaction works and uses slot 0.
    workloads::TxScope tx(h.rt, true);
    tx.addRange(h.obj[0], 8);
    h.rt.write<uint64_t>(h.rt.deref(h.obj[0]), 0, 2);
}

} // namespace
} // namespace concurrent
} // namespace poat
