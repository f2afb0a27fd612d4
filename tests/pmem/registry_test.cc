/** @file Unit tests for the pool registry (create/open/close cycle). */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "pmem/registry.h"

namespace poat {
namespace {

/** Records every write-back and drain announcement; vetoes nothing. */
struct WriteBackRecorder : DurabilityHook
{
    bool
    onWriteBack(Pool &, uint32_t line, WriteBackCause cause) override
    {
        events.emplace_back(line, cause);
        return true;
    }

    void
    onFenceDrainBegin(Pool &, const std::vector<uint32_t> &pending) override
    {
        drains.push_back(pending);
    }

    std::vector<std::pair<uint32_t, WriteBackCause>> events;
    std::vector<std::vector<uint32_t>> drains;
};

TEST(Registry, CreateAssignsSequentialIdsFromOne)
{
    PoolRegistry r;
    EXPECT_EQ(r.create("a", 1 << 20).pool.id(), 1u);
    EXPECT_EQ(r.create("b", 1 << 20).pool.id(), 2u);
    EXPECT_EQ(r.openCount(), 2u);
}

TEST(Registry, PoolsGetDistinctPageAlignedVbases)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    auto &b = r.create("b", 1 << 20);
    EXPECT_NE(a.pool.vbase(), b.pool.vbase());
    EXPECT_EQ(a.pool.vbase() % kPageSize, 0u);
    EXPECT_EQ(b.pool.vbase() % kPageSize, 0u);
}

TEST(Registry, AslrSeedChangesPlacementDeterministically)
{
    PoolRegistry r1(7), r2(7), r3(8);
    EXPECT_EQ(r1.create("a", 1 << 20).pool.vbase(),
              r2.create("a", 1 << 20).pool.vbase());
    EXPECT_NE(r1.create("b", 1 << 20).pool.vbase(),
              r3.create("b", 1 << 20).pool.vbase());
}

TEST(Registry, FindAndGet)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    EXPECT_EQ(r.find(a.pool.id()), &a);
    EXPECT_EQ(r.find(999), nullptr);
    EXPECT_EQ(&r.get(a.pool.id()), &a);
}

TEST(Registry, CloseThenReopenPreservesDataAndId)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t id = a.pool.id();
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 123);
    // No explicit persist: close must flush dirty lines like a file
    // close writes back page-cache contents.
    r.close(id);
    EXPECT_EQ(r.openCount(), 0u);

    auto &b = r.open("a");
    EXPECT_EQ(b.pool.id(), id);
    EXPECT_EQ(b.pool.readAs<uint64_t>(off), 123u);
    EXPECT_TRUE(b.alloc.isAllocated(off));
}

TEST(Registry, ReopenGetsAFreshRandomizedMapping)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint64_t vbase1 = a.pool.vbase();
    r.close(a.pool.id());
    auto &b = r.open("a");
    // ASLR: a reopened pool (almost surely) lands elsewhere, which is
    // exactly why ObjectIDs rather than raw pointers are needed.
    EXPECT_NE(b.pool.vbase(), vbase1);
}

TEST(Registry, OpenRunsLogRecovery)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t id = a.pool.id();
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 1);
    a.pool.persist(off, 8);

    a.log.begin();
    a.log.addRange(off, 8);
    a.pool.writeAs<uint64_t>(off, 2);
    a.pool.persist(off, 8);
    // Crash with the transaction still active, then close-less reopen
    // via crashAll + recoverAll.
    r.crashAll();
    r.recoverAll();
    EXPECT_EQ(r.get(id).pool.readAs<uint64_t>(off), 1u);
}

TEST(Registry, CrashAllRevertsUnpersistedWrites)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 55);
    r.crashAll();
    EXPECT_EQ(a.pool.readAs<uint64_t>(off), 0u);
    EXPECT_TRUE(a.alloc.validate());
}

TEST(Registry, OpenIdsAreSorted)
{
    PoolRegistry r;
    r.create("a", 1 << 20);
    r.create("b", 1 << 20);
    r.create("c", 1 << 20);
    r.close(2);
    const auto ids = r.openIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(ids[1], 3u);
}

TEST(Registry, ManyPoolsCoexist)
{
    PoolRegistry r;
    for (int i = 0; i < 200; ++i)
        r.create("pool" + std::to_string(i), Pool::kMinSize);
    EXPECT_EQ(r.openCount(), 200u);
    EXPECT_EQ(r.addressSpace().regionCount(), 200u);
}

TEST(Registry, CloseWritesBackExactlyWhatAWholePoolWalkWould)
{
    // close() visits only the dirty lines; its write-back sequence must
    // equal the CLWB-every-line walk it replaced, under both policies.
    for (DurabilityPolicy policy :
         {DurabilityPolicy::Eager, DurabilityPolicy::Strict}) {
        auto dirtyUp = [&](PoolRegistry &r) -> Pool & {
            r.setDurabilityPolicy(policy);
            Pool &p = r.create("a", 1 << 20).pool;
            // Dirty lines across several pages, written out of order,
            // one straddling two lines, one in the pool's last line; a
            // CLWB without a fence leaves 9000's line staged (Strict).
            for (uint32_t off : {700000u, 9000u, 64u, 12348u, 200000u})
                p.writeAs<uint64_t>(off, off + 1);
            p.writeAs<uint64_t>(static_cast<uint32_t>(p.size()) - 8, 7);
            p.clwb(9000);
            return p;
        };
        PoolRegistry closed, walked;
        Pool &c = dirtyUp(closed);
        Pool &w = dirtyUp(walked);
        WriteBackRecorder by_close, by_walk;
        closed.setDurabilityHook(&by_close);
        walked.setDurabilityHook(&by_walk);

        closed.close(c.id());
        for (uint64_t off = 0; off < w.size(); off += kLineSize)
            w.clwb(static_cast<uint32_t>(off));
        w.fence();

        EXPECT_EQ(by_close.events, by_walk.events);
        EXPECT_EQ(by_close.drains, by_walk.drains);
        EXPECT_GE(by_close.events.size(), 6u);
        EXPECT_TRUE(std::is_sorted(by_close.events.begin(),
                                   by_close.events.end()));
        const WriteBackCause want = policy == DurabilityPolicy::Eager
            ? WriteBackCause::Clwb
            : WriteBackCause::Fence;
        for (const auto &e : by_close.events)
            EXPECT_EQ(e.second, want);

        // The closed image on "disk" is the walked pool's durable image.
        closed.setDurabilityHook(nullptr);
        walked.setDurabilityHook(nullptr);
        EXPECT_EQ(closed.open("a").pool.durableImage().dense(),
                  w.durableImage().dense());
    }
}

} // namespace
} // namespace poat
