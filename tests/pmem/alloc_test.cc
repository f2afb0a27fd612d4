/** @file Unit and property tests for the in-pool allocator. */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "pmem/alloc.h"
#include "pmem/pool.h"

namespace poat {
namespace {

struct Fixture
{
    explicit Fixture(uint64_t size = 1 << 20) : pool("p", 1, size) {}
    Pool pool;
};

TEST(Alloc, FreshHeapIsOneFreeBlock)
{
    Fixture f;
    PoolAllocator a(f.pool);
    EXPECT_EQ(a.freeBlockCount(), 1u);
    EXPECT_EQ(a.freeBytes(), f.pool.header().heap_size);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, AllocReturnsAlignedNonOverlappingBlocks)
{
    Fixture f;
    PoolAllocator a(f.pool);
    std::vector<std::pair<uint32_t, uint32_t>> blocks;
    for (int i = 0; i < 100; ++i) {
        const uint32_t sz = 24 + 8 * (i % 5);
        const uint32_t off = a.alloc(sz);
        ASSERT_NE(off, 0u);
        EXPECT_EQ(off % PoolAllocator::kAlign, 0u);
        for (const auto &[o, s] : blocks) {
            EXPECT_TRUE(off + sz <= o || o + s <= off)
                << "blocks overlap";
        }
        blocks.emplace_back(off, sz);
    }
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, PayloadSizeCoversRequest)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t off = a.alloc(100);
    EXPECT_GE(a.blockPayloadSize(off), 100u);
}

TEST(Alloc, FreeMakesSpaceReusable)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint64_t before = a.freeBytes();
    const uint32_t off = a.alloc(128);
    EXPECT_LT(a.freeBytes(), before);
    a.free(off);
    EXPECT_EQ(a.freeBytes(), before);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, FreeCoalescesWithBothNeighbors)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t x = a.alloc(64);
    const uint32_t y = a.alloc(64);
    const uint32_t z = a.alloc(64);
    (void)z;
    a.free(x);
    a.free(z);
    // Freeing y must merge x|y|z plus the trailing free region.
    a.free(y);
    EXPECT_EQ(a.freeBlockCount(), 1u);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, IsAllocatedTracksState)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t off = a.alloc(48);
    EXPECT_TRUE(a.isAllocated(off));
    a.free(off);
    EXPECT_FALSE(a.isAllocated(off));
    EXPECT_FALSE(a.isAllocated(4)); // outside heap
}

TEST(Alloc, ExhaustionReturnsZero)
{
    Fixture f(Pool::kMinSize);
    PoolAllocator a(f.pool);
    EXPECT_EQ(a.alloc(1 << 20), 0u);
    // And the heap is still usable afterwards.
    EXPECT_NE(a.alloc(64), 0u);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, ManySmallAllocationsUntilFull)
{
    Fixture f(Pool::kMinSize + 16 * 1024);
    PoolAllocator a(f.pool);
    int count = 0;
    while (a.alloc(32) != 0)
        ++count;
    EXPECT_GT(count, 100);
    EXPECT_TRUE(a.validate());
}

TEST(Alloc, SurvivesReopenFromDurableImage)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t keep = a.alloc(64);
    const uint32_t drop = a.alloc(64);
    a.free(drop);

    Pool reopened("p", 1, f.pool.durableImage());
    PoolAllocator b(reopened);
    EXPECT_TRUE(b.validate());
    EXPECT_TRUE(b.isAllocated(keep));
    EXPECT_FALSE(b.isAllocated(drop));
    EXPECT_EQ(b.freeBytes(), a.freeBytes());
}

TEST(Alloc, AllocatorStateIsDurableWithoutExplicitPersist)
{
    Fixture f;
    PoolAllocator a(f.pool);
    const uint32_t off = a.alloc(64);
    f.pool.crash(); // allocator metadata persists inside alloc()
    PoolAllocator b(f.pool);
    EXPECT_TRUE(b.validate());
    EXPECT_TRUE(b.isAllocated(off));
}

/** Parameterized property test: random alloc/free against a shadow
 *  model, with periodic reopen-from-durable checks. */
class AllocProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AllocProperty, RandomOpsMatchShadowModel)
{
    Rng rng(GetParam());
    Pool pool("p", 1, 1 << 20);
    PoolAllocator a(pool);

    // Shadow: payload offset -> (size, fill byte).
    std::map<uint32_t, std::pair<uint32_t, uint8_t>> shadow;
    std::vector<uint32_t> live;

    for (int step = 0; step < 2000; ++step) {
        const bool do_alloc = live.empty() || rng.chance(3, 5);
        if (do_alloc) {
            const uint32_t sz =
                static_cast<uint32_t>(rng.range(1, 256));
            const uint32_t off = a.alloc(sz);
            if (off == 0)
                continue; // full; keep going with frees
            const uint8_t fill = static_cast<uint8_t>(off * 31 + sz);
            std::vector<uint8_t> buf(sz, fill);
            pool.writeRaw(off, buf.data(), sz);
            shadow.emplace(off, std::make_pair(sz, fill));
            live.push_back(off);
        } else {
            const size_t idx = rng.below(live.size());
            const uint32_t off = live[idx];
            // Contents of other live blocks must be untouched: check
            // this block before freeing it.
            const auto &[sz, fill] = shadow.at(off);
            std::vector<uint8_t> buf(sz);
            pool.readRaw(off, buf.data(), sz);
            for (uint8_t b : buf)
                ASSERT_EQ(b, fill) << "block contents corrupted";
            a.free(off);
            shadow.erase(off);
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 500 == 499) {
            ASSERT_TRUE(a.validate());
            // Reopen from durable image: all live blocks still there.
            Pool re("p", 1, pool.durableImage());
            PoolAllocator b(re);
            ASSERT_TRUE(b.validate());
            for (const auto &kv : shadow)
                ASSERT_TRUE(b.isAllocated(kv.first));
        }
    }
    ASSERT_TRUE(a.validate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Alloc, DeferredPersistLeavesDurableHeapUntouched)
{
    // alloc(size, false) must not touch durable media: tx_pmalloc
    // relies on this to order the undo record before the allocation.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t a = alloc.alloc(64, /*persist_now=*/false);
    ASSERT_NE(a, 0u);
    EXPECT_TRUE(alloc.isAllocated(a)); // volatile view sees it

    pool.crash();
    alloc.rescan();
    EXPECT_FALSE(alloc.isAllocated(a)) << "allocation leaked to media";
    EXPECT_TRUE(alloc.validate());

    // persistTouched() completes the allocation durably.
    const uint32_t b = alloc.alloc(64, /*persist_now=*/false);
    alloc.persistTouched();
    pool.crash();
    alloc.rescan();
    EXPECT_TRUE(alloc.isAllocated(b));
    EXPECT_TRUE(alloc.validate());
}

TEST(Alloc, StaleAbsorbedHeaderIsNotAllocated)
{
    // Freeing a block that coalesces into its previous neighbour
    // rewrites the surviving merged header — and must POISON the
    // absorbed block's old header bytes: a crc-valid allocated header
    // surviving inside a free extent fools both isAllocated (recovery
    // uses it to decide whether a logged alloc/free already took
    // effect) and, worse, scrub's extent reconstruction after a torn
    // fence drain, which can resurrect the stale bytes as a live
    // allocation no log record covers (a permanent leak — found by the
    // reorder explorer, LHT:8:1:139:r01:S:t1:n3).
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t a = alloc.alloc(32);
    const uint32_t b = alloc.alloc(32);
    const uint32_t c = alloc.alloc(32); // guard: keeps b's region bounded
    ASSERT_NE(c, 0u);

    alloc.free(a);
    alloc.free(b); // merges into a's free block, absorbing b's header
    BlockHeader stale{};
    pool.readRaw(b - static_cast<uint32_t>(sizeof(BlockHeader)), &stale,
                 sizeof(stale));
    EXPECT_FALSE(stale.crcValid())
        << "the absorbed header must be poisoned, not left readable";
    EXPECT_EQ(stale.size, 0u);
    EXPECT_EQ(stale.flags, 0u);

    EXPECT_FALSE(alloc.isAllocated(b));
    EXPECT_TRUE(alloc.isAllocated(c));
    EXPECT_TRUE(alloc.validate());
}

TEST(Alloc, RebuildSweepsStaleHeadersOutOfFreeExtents)
{
    // The poison fence can be lost in a crash between the merged
    // header's persist and the poison's persist. The next pool open
    // must sweep free-extent interiors and finish the job, so scrub's
    // back-link scan never again meets the stale bytes.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t a = alloc.alloc(32);
    const uint32_t b = alloc.alloc(32);
    const uint32_t c = alloc.alloc(32);
    ASSERT_NE(c, 0u);
    alloc.free(a);

    // Forge the lost-poison state: re-plant b's pre-free header bytes
    // inside what free(b) turns into a's merged free extent.
    const uint32_t b_hdr = b - static_cast<uint32_t>(sizeof(BlockHeader));
    BlockHeader old_b{};
    pool.readRaw(b_hdr, &old_b, sizeof(old_b));
    alloc.free(b);
    pool.writeRaw(b_hdr, &old_b, sizeof(old_b));
    pool.persist(b_hdr, sizeof(old_b));

    alloc.rescan();
    BlockHeader swept{};
    pool.readRaw(b_hdr, &swept, sizeof(swept));
    EXPECT_FALSE(swept.crcValid());
    EXPECT_EQ(swept.size, 0u);
    EXPECT_FALSE(alloc.isAllocated(b));
    EXPECT_TRUE(alloc.isAllocated(c));
    EXPECT_TRUE(alloc.validate());
}

TEST(Alloc, AllZeroHeaderIsNotCrcValid)
{
    // The page skip in both 16-byte heap scans rests on this: a
    // never-written page reads as zero, so it can hold no valid header.
    const BlockHeader zero{};
    EXPECT_FALSE(zero.crcValid());
    EXPECT_NE(zero.computeCrc(), 0u);
}

TEST(Alloc, NextHeaderSlotSkipsOnlyAbsentPages)
{
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t absent = 40 * kPageSize + 48;
    ASSERT_FALSE(pool.pageResident(absent));
    EXPECT_EQ(PoolAllocator::nextHeaderSlot(pool, absent), 41 * kPageSize);

    const uint8_t one = 1;
    pool.writeRaw(absent + 100, &one, 1);
    ASSERT_TRUE(pool.pageResident(absent));
    for (uint32_t slot = 40 * kPageSize; slot < 41 * kPageSize;
         slot += PoolAllocator::kAlign) {
        ASSERT_EQ(PoolAllocator::nextHeaderSlot(pool, slot),
                  slot + PoolAllocator::kAlign);
    }
}

TEST(Alloc, RebuildSweepsStaleHeaderInAnOtherwiseUntouchedPage)
{
    // The sweep skips absent pages only: a stale crc-valid header that
    // is the sole write to a page deep inside the free extent, in the
    // page's last slot or its first, must still be poisoned.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t a = alloc.alloc(32);
    BlockHeader live{};
    pool.readRaw(a - static_cast<uint32_t>(sizeof(BlockHeader)), &live,
                 sizeof(live));
    ASSERT_TRUE(live.crcValid());

    const std::vector<uint32_t> plants = {
        static_cast<uint32_t>(101 * kPageSize - sizeof(BlockHeader)),
        static_cast<uint32_t>(150 * kPageSize)};
    for (uint32_t off : plants) {
        ASSERT_FALSE(pool.pageResident(off));
        pool.writeRaw(off, &live, sizeof(live));
        pool.persist(off, sizeof(live));
    }
    pool.crash();
    alloc.rescan();
    for (uint32_t off : plants) {
        BlockHeader swept{};
        pool.readRaw(off, &swept, sizeof(swept));
        EXPECT_FALSE(swept.crcValid()) << "stale header at " << off;
    }
    EXPECT_TRUE(alloc.isAllocated(a));
    EXPECT_TRUE(alloc.validate());
}

} // namespace
} // namespace poat
