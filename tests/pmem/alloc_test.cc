/** @file Unit and property tests for the in-pool allocator. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "pmem/alloc.h"
#include "pmem/pool.h"
#include "pmem/scrub.h"

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

/** Slots scanHeaderSlots visits in [begin, end), stopping after @p stop. */
std::vector<uint32_t>
scannedSlots(const Pool &pool, uint32_t begin, uint32_t end,
             size_t stop = SIZE_MAX)
{
    std::vector<uint32_t> slots;
    PoolAllocator::scanHeaderSlots(
        pool, begin, end, [&](uint32_t slot, const BlockHeader &h) {
            EXPECT_TRUE(h.crcValid()) << slot;
            slots.push_back(slot);
            return slots.size() == stop;
        });
    return slots;
}

TEST(Alloc, NextHeaderSlotSkipsOnlyAbsentPages)
{
    // The scan steps page by page: it skips an absent page whole and
    // visits every slot of a resident one, the first and last included.
    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    const uint32_t absent = 40 * kPageSize + 48;
    ASSERT_FALSE(pool.pageResident(absent));
    EXPECT_TRUE(scannedSlots(pool, absent, 42 * kPageSize).empty());

    BlockHeader h{};
    h.size = 64;
    h.seal();
    std::vector<uint32_t> all;
    for (uint32_t slot = 40 * kPageSize; slot < 41 * kPageSize;
         slot += PoolAllocator::kAlign) {
        pool.writeRaw(slot, &h, sizeof(h));
        all.push_back(slot);
    }
    ASSERT_TRUE(pool.pageResident(absent));
    ASSERT_FALSE(pool.pageResident(41 * kPageSize));
    EXPECT_EQ(scannedSlots(pool, 40 * kPageSize, 42 * kPageSize), all);
    EXPECT_EQ(scannedSlots(pool, absent, 41 * kPageSize),
              std::vector<uint32_t>(all.begin() + 3, all.end()));
    // A range that ends mid-page, and a caller that stops early.
    EXPECT_EQ(scannedSlots(pool, 40 * kPageSize, absent + 16),
              std::vector<uint32_t>(all.begin(), all.begin() + 4));
    EXPECT_EQ(scannedSlots(pool, 40 * kPageSize, 42 * kPageSize, 5),
              std::vector<uint32_t>(all.begin(), all.begin() + 5));
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

// ---- Reference model: the per-slot heap scans scanHeaderSlots replaced.

/**
 * The per-slot step both heap scans took before scanHeaderSlots: the
 * next kAlign slot, or the next page's start when @p slot's page is
 * absent.
 */
uint32_t
referenceNextSlot(const Pool &pool, uint32_t slot)
{
    if (pool.pageResident(slot))
        return slot + PoolAllocator::kAlign;
    return static_cast<uint32_t>(alignUp(slot + 1, kPageSize));
}

/** crc-valid slots of [begin, end) by the per-slot loop, up to @p stop. */
std::vector<uint32_t>
referenceSlots(const Pool &pool, uint32_t begin, uint32_t end,
               size_t stop = SIZE_MAX)
{
    std::vector<uint32_t> slots;
    for (uint32_t p = begin;
         p + sizeof(BlockHeader) <= end && slots.size() < stop;
         p = referenceNextSlot(pool, p)) {
        BlockHeader h{};
        pool.readRaw(p, &h, sizeof(h));
        if (h.crcValid())
            slots.push_back(p);
    }
    return slots;
}

/** Free extents (offset, size) by a read-only walk of the header chain. */
std::vector<std::pair<uint32_t, uint32_t>>
freeExtents(const Pool &pool)
{
    std::vector<std::pair<uint32_t, uint32_t>> out;
    const uint32_t end = pool.header().heap_off + pool.header().heap_size;
    for (uint32_t off = pool.header().heap_off; off < end;) {
        const BlockHeader h = pool.readAs<BlockHeader>(off);
        if (!h.allocated())
            out.emplace_back(off, h.size);
        off += h.size;
    }
    return out;
}

/** The hygiene sweep's per-slot loop; returns the slots it poisoned. */
std::vector<uint32_t>
referenceSweep(Pool &pool)
{
    std::vector<uint32_t> poisoned;
    for (const auto &[off, size] : freeExtents(pool)) {
        for (uint32_t p = off + PoolAllocator::kAlign;
             p + sizeof(BlockHeader) <= off + size;
             p = referenceNextSlot(pool, p)) {
            BlockHeader stale{};
            pool.readRaw(p, &stale, sizeof(stale));
            if (!stale.crcValid())
                continue;
            const uint8_t zeros[sizeof(BlockHeader)] = {};
            pool.writeRaw(p, zeros, sizeof(zeros));
            pool.persist(p, sizeof(BlockHeader));
            poisoned.push_back(p);
        }
    }
    return poisoned;
}

/** Every write-back of a pool, in order: its line and the bytes. */
class WriteBackLog final : public DurabilityHook
{
  public:
    uint8_t
    onWriteBack(Pool &pool, uint32_t line, WriteBackCause) override
    {
        auto &[l, bytes] = events.emplace_back();
        l = line;
        pool.readRaw(line * static_cast<uint32_t>(kLineSize), bytes.data(),
                     kLineSize);
        return kFullLineMask;
    }

    std::vector<std::pair<uint32_t, std::array<uint8_t, kLineSize>>>
        events;
};

std::vector<uint8_t>
workingBytes(const Pool &pool)
{
    std::vector<uint8_t> out(pool.size());
    pool.readRaw(0, out.data(), out.size());
    return out;
}

/** A header with random words, sealed: crc-valid, and stale anywhere. */
BlockHeader
staleHeader(Rng &rng)
{
    BlockHeader h{};
    h.size = static_cast<uint32_t>(rng.next());
    h.flags = static_cast<uint32_t>(rng.below(2));
    h.prev_size = static_cast<uint32_t>(rng.next()) | 1u; // never a link
    h.seal();
    return h;
}

/** Random bytes over [off, off + n): payload data a scan must reject. */
void
scribble(Pool &pool, Rng &rng, uint32_t off, uint32_t n)
{
    std::vector<uint8_t> bytes(n);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    pool.writeRaw(off, bytes.data(), n);
}

/**
 * A seeded heap, durable and reopened, whose free extents hold planted
 * crc-valid stale headers: in the first and the last slot of resident
 * pages, alone in otherwise absent pages with absent pages between
 * them, and one whose (size, flags) word is zero (crc 0x4f819c8c).
 * Freed blocks leave scribbled payloads and extents ending mid-page.
 */
struct SeededHeap
{
    PoolImage image;
    std::vector<uint32_t> plants;
};

SeededHeap
seededHeap(uint64_t seed)
{
    Pool pool("h", 1, 2 << 20);
    PoolAllocator alloc(pool);
    Rng rng(seed);
    std::vector<uint32_t> live;
    for (int i = 0; i < 24; ++i) {
        const uint32_t size = rng.chance(1, 3)
            ? static_cast<uint32_t>(kPageSize + rng.below(5 * kPageSize))
            : static_cast<uint32_t>(16 + rng.below(600));
        const uint32_t p = alloc.alloc(size);
        if (p == 0)
            break;
        // None, the first line, or all of the payload: big blocks keep
        // absent pages unless written whole.
        const uint64_t fill = rng.below(3);
        if (fill != 0)
            scribble(pool, rng, p, fill == 1 ? std::min(64u, size) : size);
        live.push_back(p);
    }
    for (uint32_t p : live) {
        if (rng.chance(1, 2))
            alloc.free(p);
    }

    SeededHeap out;
    auto plant = [&](uint32_t slot, const BlockHeader &h) {
        pool.writeRaw(slot, &h, sizeof(h));
        out.plants.push_back(slot);
    };
    const auto extents = freeExtents(pool);
    for (const auto &[off, size] : extents) {
        const uint32_t first = off + PoolAllocator::kAlign;
        const uint32_t last =
            off + size - static_cast<uint32_t>(sizeof(BlockHeader));
        for (uint32_t page = first / kPageSize * kPageSize; page <= last;
             page += kPageSize) {
            const uint32_t lo = std::max(page, first);
            const uint32_t hi = std::min(
                page + static_cast<uint32_t>(kPageSize - sizeof(BlockHeader)),
                last);
            if (!pool.pageResident(lo))
                continue;
            if (rng.chance(2, 3))
                plant(lo, staleHeader(rng));
            if (hi > lo && rng.chance(2, 3))
                plant(hi, staleHeader(rng));
            if (hi > lo + PoolAllocator::kAlign && rng.chance(1, 2)) {
                plant(lo + PoolAllocator::kAlign *
                          static_cast<uint32_t>(
                              1 + rng.below((hi - lo) / PoolAllocator::kAlign -
                                            1)),
                      staleHeader(rng));
            }
        }
    }
    // The tail extent: plants alone in absent pages with an absent
    // page between them, in a page's first and last slot, and the
    // zero-word header.
    const auto &[tail_off, tail_size] = extents.back();
    const uint32_t page = static_cast<uint32_t>(kPageSize);
    uint32_t p0 = static_cast<uint32_t>(alignUp(tail_off + 16, page));
    for (uint32_t q = p0; q + page <= tail_off + tail_size; q += page) {
        if (pool.pageResident(q))
            p0 = q + page; // every page past the last resident one is absent
    }
    p0 += static_cast<uint32_t>(rng.below(4)) * page;
    EXPECT_LT(p0 + 8 * kPageSize, tail_off + tail_size);
    plant(p0, staleHeader(rng));
    plant(p0 + 3 * page - 16, staleHeader(rng));
    BlockHeader zero_word{};
    zero_word.seal();
    EXPECT_EQ(zero_word.crc, 0x4f819c8cu);
    plant(p0 + 5 * page + 16 * static_cast<uint32_t>(rng.below(256)),
          zero_word);
    pool.persistAll();
    out.image = pool.durableImage();
    return out;
}

TEST(Alloc, HeaderScanMatchesPerSlotReference)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const SeededHeap heap = seededHeap(seed);
        const Pool pool("h", 1, heap.image);
        const uint32_t heap_off = pool.header().heap_off;
        const uint32_t heap_end = heap_off + pool.header().heap_size;
        Rng rng(seed * 31);
        for (int r = 0; r < 40; ++r) {
            uint32_t begin = heap_off + 16 * static_cast<uint32_t>(rng.below(
                                            (heap_end - heap_off) / 16));
            uint32_t end = begin + static_cast<uint32_t>(
                                       rng.below(heap_end - begin + 1));
            if (r == 0) {
                begin = heap_off;
                end = heap_end;
            }
            const std::vector<uint32_t> ref =
                referenceSlots(pool, begin, end);
            ASSERT_EQ(scannedSlots(pool, begin, end), ref)
                << "seed " << seed << " [" << begin << ", " << end << ")";
            if (!ref.empty()) {
                const size_t stop = 1 + rng.below(ref.size());
                EXPECT_EQ(scannedSlots(pool, begin, end, stop),
                          referenceSlots(pool, begin, end, stop));
            }
        }
    }
}

TEST(Alloc, HygieneSweepMatchesPerSlotReference)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const SeededHeap heap = seededHeap(seed);
        Pool real("h", 1, heap.image);
        Pool ref("h", 1, heap.image);
        const std::vector<uint8_t> before = workingBytes(real);

        WriteBackLog real_log, ref_log;
        real.setDurabilityHook(&real_log);
        ref.setDurabilityHook(&ref_log);
        PoolAllocator alloc(real); // attach: chain walk, then the sweep
        const std::vector<uint32_t> poisoned = referenceSweep(ref);
        real.setDurabilityHook(nullptr);
        ref.setDurabilityHook(nullptr);

        const std::vector<uint8_t> after = workingBytes(real);
        std::vector<uint32_t> changed;
        for (uint32_t s = 0; s < after.size(); s += 16) {
            if (std::memcmp(&before[s], &after[s], 16) != 0)
                changed.push_back(s);
        }
        EXPECT_EQ(changed, poisoned) << "seed " << seed;
        for (uint32_t p : heap.plants) {
            EXPECT_TRUE(std::find(poisoned.begin(), poisoned.end(), p) !=
                        poisoned.end())
                << "seed " << seed << ": plant at " << p << " survived";
        }
        EXPECT_TRUE(real_log.events == ref_log.events) << "seed " << seed;
        EXPECT_TRUE(after == workingBytes(ref)) << "seed " << seed;
        EXPECT_TRUE(real.durableImage().dense() ==
                    ref.durableImage().dense())
            << "seed " << seed;
        EXPECT_TRUE(alloc.validate());
    }
}

/**
 * Scrub's extent reconstruction by the per-slot loop: the offset of
 * the first crc-valid header past @p off + kMinBlock whose back-link
 * lands on @p off (pass 0) or on @p prev_off (pass 1), minus @p off.
 */
uint32_t
referenceExtent(const Pool &pool, uint32_t off, uint32_t prev_off,
                bool *stale_span)
{
    const uint32_t heap_end = pool.header().heap_off + pool.header().heap_size;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint32_t cand = off + PoolAllocator::kMinBlock;
             cand + sizeof(BlockHeader) <= heap_end;
             cand = referenceNextSlot(pool, cand)) {
            BlockHeader next{};
            pool.readRaw(cand, &next, sizeof(next));
            const uint32_t want = pass == 0 ? cand - off : cand - prev_off;
            if (next.crcValid() &&
                cand + static_cast<uint64_t>(next.size) <= heap_end &&
                next.prev_size == want) {
                *stale_span = pass == 1;
                return cand - off;
            }
        }
    }
    return 0;
}

TEST(Alloc, ScrubExtentReconstructionMatchesPerSlotReference)
{
    // A corrupt header whose successor sits beyond absent pages: scrub
    // must find the same extent the per-slot loop finds, and repair the
    // same headers with the same write-backs.
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Pool pool("s", 1, 2 << 20);
        PoolAllocator alloc(pool);
        Rng rng(seed);
        const uint32_t a = alloc.alloc(16 + rng.below(300));
        const uint32_t b_size =
            static_cast<uint32_t>(2 * kPageSize + rng.below(4 * kPageSize));
        const uint32_t b = alloc.alloc(b_size);
        const uint32_t c = alloc.alloc(16 + rng.below(300));
        const uint32_t d = alloc.alloc(16 + rng.below(3000));
        ASSERT_NE(d, 0u);
        scribble(pool, rng, a, 16);
        scribble(pool, rng, b, 64);
        scribble(pool, rng, c, 16);
        const uint32_t hdr = static_cast<uint32_t>(sizeof(BlockHeader));
        const uint32_t b_off = b - hdr;
        const uint32_t c_off = c - hdr;
        // One page inside b resident: a scribble and planted headers
        // whose back-links match nothing, absent pages around it.
        const uint32_t mid = static_cast<uint32_t>(
            alignUp(b_off + kPageSize, kPageSize));
        if (seed % 4 != 0 && mid + kPageSize < c_off) {
            scribble(pool, rng, mid + 64, 256);
            pool.writeAs(mid, staleHeader(rng));
            pool.writeAs(mid + static_cast<uint32_t>(kPageSize) - 16,
                         staleHeader(rng));
        }
        // Odd seeds: the successor's back-link still spans a + b, as
        // after an interrupted split — found by pass 1.
        const uint32_t a_off = a - hdr;
        const bool stale_link = seed % 2 == 1;
        // A decoy past the successor whose back-link WOULD match in the
        // same pass: the scan must stop at the first match.
        BlockHeader decoy = pool.readAs<BlockHeader>(c_off);
        const uint32_t decoy_off = c_off + PoolAllocator::kAlign;
        decoy.prev_size = decoy_off - (stale_link ? a_off : b_off);
        decoy.seal();
        pool.writeAs(decoy_off, decoy);
        if (stale_link) {
            BlockHeader ch = pool.readAs<BlockHeader>(c_off);
            ch.prev_size = c_off - a_off;
            ch.seal();
            pool.writeAs(c_off, ch);
        }
        // Corrupt b's sealed word; the crc still seals the truth.
        BlockHeader bh = pool.readAs<BlockHeader>(b_off);
        const BlockHeader truth = bh;
        bh.size = 0x5a5a5a50u;
        pool.writeAs(b_off, bh);
        pool.persistAll();

        const PoolImage image = pool.durableImage();
        Pool real("s", 1, image);
        Pool ref("s", 1, image);
        bool gap = false;
        for (uint32_t page = b_off / kPageSize + 1;
             page < c_off / kPageSize; ++page)
            gap = gap || !real.pageResident(page * kPageSize);
        ASSERT_TRUE(gap) << "the successor must sit beyond an absent page";

        WriteBackLog real_log, ref_log;
        real.setDurabilityHook(&real_log);
        ref.setDurabilityHook(&ref_log);
        const ScrubStats st = scrubPool(real);

        bool stale_span = false;
        const uint32_t size =
            referenceExtent(ref, b_off, a_off, &stale_span);
        ASSERT_EQ(size, truth.size) << "seed " << seed;
        EXPECT_EQ(stale_span, stale_link);
        BlockHeader rebuilt = truth;
        rebuilt.prev_size = b_off - a_off;
        rebuilt.seal();
        ref.writeAs(b_off, rebuilt);
        ref.persist(b_off, sizeof(rebuilt));
        BlockHeader ch = ref.readAs<BlockHeader>(c_off);
        if (ch.prev_size != size) {
            ch.prev_size = size;
            ch.seal();
            ref.writeAs(c_off, ch);
            ref.persist(c_off, sizeof(ch));
        }
        real.setDurabilityHook(nullptr);
        ref.setDurabilityHook(nullptr);

        EXPECT_EQ(st.block_header_repairs, stale_link ? 2u : 1u);
        EXPECT_TRUE(real_log.events == ref_log.events) << "seed " << seed;
        EXPECT_TRUE(workingBytes(real) == workingBytes(ref))
            << "seed " << seed;
        EXPECT_TRUE(real.durableImage().dense() ==
                    ref.durableImage().dense())
            << "seed " << seed;
    }
}

} // namespace
} // namespace poat
