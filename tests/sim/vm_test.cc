/** @file Unit tests for the page table and TLB. */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "sim/vm.h"

namespace poat {
namespace sim {
namespace {

TEST(PageTable, SamePageSameFrame)
{
    PageTable pt;
    const uint64_t pa1 = pt.translate(0x7000'0000'0123ull);
    const uint64_t pa2 = pt.translate(0x7000'0000'0456ull);
    EXPECT_EQ(pa1 / kPageSize, pa2 / kPageSize);
    EXPECT_EQ(pa1 % kPageSize, 0x123u);
    EXPECT_EQ(pa2 % kPageSize, 0x456u);
}

TEST(PageTable, DistinctPagesDistinctFrames)
{
    PageTable pt;
    const uint64_t a = pt.translate(0x1000);
    const uint64_t b = pt.translate(0x2000);
    EXPECT_NE(a / kPageSize, b / kPageSize);
    EXPECT_EQ(pt.mappedPages(), 2u);
}

TEST(PageTable, FrameZeroIsNeverUsed)
{
    PageTable pt;
    EXPECT_NE(pt.translate(0x0) / kPageSize, 0u);
}

TEST(PageTable, FrameOfMatchesTranslate)
{
    PageTable pt;
    const uint64_t va = 0x5555'0000ull + 123;
    EXPECT_EQ(pt.frameOf(va), pt.translate(va) / kPageSize);
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff)); // same page
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.access(0x1000);  // page 1 is MRU
    tlb.access(0x3000);  // evicts page 2
    EXPECT_TRUE(tlb.access(0x1000));
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, MissRateOnCyclicSweep)
{
    Tlb tlb(4);
    // 5 pages cycled through a 4-entry LRU TLB: every access misses.
    for (int i = 0; i < 50; ++i)
        tlb.access(static_cast<uint64_t>(i % 5) * kPageSize);
    EXPECT_DOUBLE_EQ(tlb.missRate(), 1.0);
}

TEST(Tlb, ResetClears)
{
    Tlb tlb(4);
    tlb.access(0x1000);
    tlb.reset();
    EXPECT_FALSE(tlb.access(0x1000));
}

/** Plain true-LRU TLB: resident vpns, most recently used first. */
class RefTlb
{
  public:
    explicit RefTlb(size_t entries) : entries_(entries) {}

    bool
    access(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        const auto it = std::find(lru_.begin(), lru_.end(), vpn);
        const bool hit = it != lru_.end();
        if (hit)
            lru_.erase(it);
        else if (lru_.size() == entries_)
            lru_.pop_back();
        lru_.insert(lru_.begin(), vpn);
        return hit;
    }

    void reset() { lru_.clear(); }

  private:
    size_t entries_;
    std::vector<uint64_t> lru_;
};

/**
 * Run @p next_page's stream through a 64-entry Tlb and the reference,
 * comparing every access, with one reset halfway. @return the hits.
 */
template <typename NextPage>
uint64_t
checkTlbStream(NextPage &&next_page, uint64_t seed)
{
    Tlb tlb(64);
    RefTlb ref(64);
    Rng rng(seed);
    for (int i = 0; i < 40000; ++i) {
        const uint64_t va = next_page(rng) * kPageSize + rng.below(kPageSize);
        EXPECT_EQ(tlb.access(va), ref.access(va)) << "access " << i;
        if (i == 20000) {
            tlb.reset();
            ref.reset();
        }
    }
    EXPECT_GT(tlb.misses(), 64u);
    return tlb.hits();
}

TEST(Tlb, PageLocalityStreamMatchesReferenceModel)
{
    // A random walk over nearby pages, mostly within the TLB's reach,
    // with an occasional jump to a far region.
    uint64_t page = 1000;
    const uint64_t hits = checkTlbStream(
        [&](Rng &rng) {
            if (rng.below(64) == 0)
                page = 1000 + rng.below(1u << 20);
            else
                page = page + rng.below(9) - 4;
            return page;
        },
        31);
    EXPECT_GT(hits, 20000u); // most accesses hit
}

TEST(Tlb, WideStreamMatchesReferenceModel)
{
    // 100 pages drawn at random, and a cyclic sweep over 65: both
    // touch more pages than the TLB holds. LRU never hits the sweep.
    EXPECT_GT(checkTlbStream(
                  [](Rng &rng) { return 0x7000'0000ull + rng.below(100); },
                  32),
              0u);
    uint64_t n = 0;
    EXPECT_EQ(checkTlbStream([&](Rng &) { return 0x10'0000ull + n++ % 65; },
                             33),
              0u);
}

TEST(PageTable, FramesFollowFirstTouchOrder)
{
    // Reference: frames are handed out 1, 2, 3, ... in first-touch
    // order, and a page keeps its frame. Runs of the same page exercise
    // the last-translation memo; jumps exercise the map.
    PageTable pt;
    std::map<uint64_t, uint64_t> ref;
    Rng rng(41);
    uint64_t page = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.below(4) == 0)
            page = rng.below(3000);
        const uint64_t off = rng.below(kPageSize);
        const uint64_t va = page * kPageSize + off;
        const uint64_t frame =
            ref.try_emplace(page, ref.size() + 1).first->second;
        if (rng.below(2) == 0) {
            ASSERT_EQ(pt.translate(va), frame * kPageSize + off)
                << "step " << i;
        } else {
            ASSERT_EQ(pt.frameOf(va), frame) << "step " << i;
        }
        ASSERT_EQ(pt.mappedPages(), ref.size());
    }
}

} // namespace
} // namespace sim
} // namespace poat
