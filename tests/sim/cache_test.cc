/** @file Unit and property tests for the cache model. */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "sim/cache.h"

namespace poat {
namespace sim {
namespace {

CacheConfig
tiny()
{
    return CacheConfig{1024, 2, 3}; // 8 sets x 2 ways x 64 B
}

TEST(Cache, FirstAccessMissesSecondHits)
{
    Cache c("t", tiny());
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103f, false)); // same 64 B line
    EXPECT_FALSE(c.access(0x1040, false)); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsedWay)
{
    Cache c("t", tiny());
    // Three lines mapping to the same set of a 2-way cache:
    // set stride = 8 sets * 64 B = 512 B.
    c.access(0x0000, false);
    c.access(0x0200, false);
    c.access(0x0000, false); // touch A so B is LRU
    c.access(0x0400, false); // evicts B
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x0200));
    EXPECT_TRUE(c.contains(0x0400));
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache c("t", tiny());
    c.access(0x0000, true); // dirty
    c.access(0x0200, false);
    c.access(0x0400, false); // evicts dirty 0x0000
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, FlushLineCleansButKeepsResident)
{
    Cache c("t", tiny());
    c.access(0x0000, true);
    EXPECT_TRUE(c.flushLine(0x0000));
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.flushLine(0x0000)); // already clean
    // A clean eviction must not count a writeback again.
    const uint64_t wb = c.writebacks();
    c.access(0x0200, false);
    c.access(0x0400, false);
    EXPECT_EQ(c.writebacks(), wb);
}

TEST(Cache, ResetEmptiesEverything)
{
    Cache c("t", tiny());
    c.access(0x0000, true);
    c.reset();
    EXPECT_FALSE(c.contains(0x0000));
    EXPECT_FALSE(c.access(0x0000, false));
}

TEST(Cache, WorkingSetSmallerThanCacheEventuallyAllHits)
{
    Cache c("t", tiny()); // 16 lines
    for (int round = 0; round < 3; ++round)
        for (uint64_t line = 0; line < 16; ++line)
            c.access(line * 64, false);
    // Rounds 2 and 3 hit entirely.
    EXPECT_EQ(c.misses(), 16u);
    EXPECT_EQ(c.hits(), 32u);
}

TEST(Cache, WorkingSetLargerThanWayCountThrashesOneSet)
{
    Cache c("t", tiny());
    // Cyclic sweep over 3 lines in one 2-way set: LRU always evicts the
    // line that is needed next, so every access misses.
    for (int i = 0; i < 30; ++i)
        c.access((i % 3) * 0x200, false);
    EXPECT_EQ(c.hits(), 0u);
}

TEST(Hierarchy, LatenciesMatchLevelOfHit)
{
    MachineConfig cfg;
    CacheHierarchy h(cfg);
    // Cold: full miss -> memory latency.
    EXPECT_EQ(h.access(0x10000, false), cfg.mem_latency);
    // Hot: L1 hit.
    EXPECT_EQ(h.access(0x10000, false), cfg.l1d.latency);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    MachineConfig cfg;
    CacheHierarchy h(cfg);
    h.access(0x0, false);
    // Blow L1 (32 KB, 8-way, 64 sets): 9 lines in set 0 evict line 0
    // from L1 but it stays in L2.
    const uint64_t set_stride = 64 * 64; // sets * line
    for (uint64_t i = 1; i <= 8; ++i)
        h.access(i * set_stride, false);
    EXPECT_EQ(h.access(0x0, false), cfg.l2.latency);
}

TEST(Hierarchy, LowerLevelsStayCleanUnderWrites)
{
    // CacheHierarchy::flushLine cleans only the L1s; that is exact
    // because nothing ever dirties an L2 or the L3. Drive a write-heavy
    // stream through a small hierarchy until all three levels evict.
    MachineConfig cfg;
    cfg.l1d = {1024, 2, 3};   // 8 sets
    cfg.l2 = {4096, 4, 8};    // 16 sets
    cfg.l3 = {16384, 8, 27};  // 32 sets
    CacheHierarchy h(cfg);
    Rng rng(11);
    std::vector<uint64_t> touched;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t pa = rng.below(2048) * 64;
        touched.push_back(pa);
        h.access(pa, rng.below(4) != 0); // 3 in 4 are writes
        if (rng.below(16) == 0)
            h.flushLine(touched[rng.below(touched.size())]);
    }
    EXPECT_GT(h.l1().writebacks(), 0u);
    EXPECT_GT(h.l2().misses(), cfg.l2.size_bytes / 64); // L2 evicted
    EXPECT_GT(h.l3().misses(), cfg.l3.size_bytes / 64); // L3 evicted
    EXPECT_EQ(h.l2().writebacks(), 0u);
    EXPECT_EQ(h.l3().writebacks(), 0u);
    // No resident L2/L3 line is dirty: a CLWB there has nothing to do.
    for (const uint64_t pa : touched) {
        EXPECT_FALSE(h.l2().flushLine(pa));
        EXPECT_FALSE(h.l3().flushLine(pa));
    }
}

TEST(Hierarchy, FlushLineCleansEveryCoreL1)
{
    MachineConfig cfg;
    cfg.cores = 4;
    CacheHierarchy h(cfg);
    const uint64_t pa = 0x40;
    for (uint32_t c = 0; c < 4; ++c)
        h.access(c, pa, true); // dirty in all four private L1s
    h.flushLine(pa);
    for (uint32_t c = 0; c < 4; ++c) {
        EXPECT_EQ(h.l1(c).writebacks(), 1u) << c;
        EXPECT_FALSE(h.l1(c).flushLine(pa)) << c; // already clean
        // Still resident: the next access is an L1 hit.
        EXPECT_EQ(h.access(c, pa, false), cfg.l1d.latency) << c;
    }
}

/** Property: hit/miss sequence matches a reference fully-mapped model
 *  for a direct-mapped configuration (assoc 1 makes LRU trivial). */
TEST(Cache, DirectMappedMatchesReferenceModel)
{
    CacheConfig cfg{4096, 1, 3}; // 64 sets
    Cache c("dm", cfg);
    std::vector<uint64_t> ref(64, ~0ull); // set -> resident line addr
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const uint64_t line = rng.below(512);
        const uint64_t addr = line * 64;
        const uint32_t set = line % 64;
        const bool expect_hit = (ref[set] == line);
        EXPECT_EQ(c.access(addr, false), expect_hit) << "access " << i;
        ref[set] = line;
    }
}

/**
 * Plain set-associative true-LRU cache: each set is a list of lines,
 * most recently used first. The hit/miss/writeback behavior the model
 * must reproduce exactly.
 */
class RefCache
{
  public:
    RefCache(uint32_t sets, uint32_t assoc) : sets_(sets), assoc_(assoc),
                                              lru_(sets) {}

    bool
    access(uint64_t paddr, bool is_write)
    {
        auto &set = lru_[setOf(paddr)];
        const uint64_t line = paddr / 64;
        for (size_t i = 0; i < set.size(); ++i) {
            if (set[i].line == line) {
                Line hit = set[i];
                hit.dirty |= is_write;
                set.erase(set.begin() + static_cast<long>(i));
                set.insert(set.begin(), hit);
                return true;
            }
        }
        if (set.size() == assoc_) {
            writebacks += set.back().dirty;
            set.pop_back();
        }
        set.insert(set.begin(), Line{line, is_write});
        return false;
    }

    bool
    flushLine(uint64_t paddr)
    {
        for (Line &l : lru_[setOf(paddr)]) {
            if (l.line == paddr / 64 && l.dirty) {
                l.dirty = false;
                ++writebacks;
                return true;
            }
        }
        return false;
    }

    bool
    contains(uint64_t paddr) const
    {
        for (const Line &l : lru_[setOf(paddr)])
            if (l.line == paddr / 64)
                return true;
        return false;
    }

    void
    reset()
    {
        for (auto &set : lru_)
            set.clear();
    }

    uint64_t writebacks = 0;

  private:
    struct Line
    {
        uint64_t line;
        bool dirty;
    };

    uint32_t setOf(uint64_t paddr) const { return paddr / 64 % sets_; }

    uint32_t sets_;
    uint32_t assoc_;
    std::vector<std::vector<Line>> lru_;
};

/** Reads, writes, flushes and a reset against the reference model. */
void
checkAgainstReference(uint32_t sets, uint32_t assoc, uint64_t seed)
{
    const CacheConfig cfg{sets * assoc * 64, assoc, 3};
    Cache c("sa", cfg);
    RefCache ref(sets, assoc);
    Rng rng(seed);
    // Twice the cache's lines, with a hot quarter: hits, LRU
    // reordering and dirty evictions all happen often.
    const uint64_t lines = 2ull * sets * assoc;
    for (int i = 0; i < 40000; ++i) {
        const uint64_t line = rng.below(4) == 0 ? rng.below(lines / 4)
                                                : rng.below(lines);
        const uint64_t pa = line * 64 + rng.below(64);
        const uint64_t op = rng.below(8);
        if (op == 0) {
            ASSERT_EQ(c.flushLine(pa), ref.flushLine(pa)) << "step " << i;
        } else {
            const bool write = op <= 3;
            ASSERT_EQ(c.access(pa, write), ref.access(pa, write))
                << "step " << i;
        }
        ASSERT_EQ(c.writebacks(), ref.writebacks) << "step " << i;
        const uint64_t probe = rng.below(lines) * 64;
        ASSERT_EQ(c.contains(probe), ref.contains(probe)) << "step " << i;
        if (i == 20000) {
            c.reset();
            ref.reset();
        }
    }
}

TEST(Cache, EightWayLruMatchesReferenceModel)
{
    checkAgainstReference(16, 8, 21);
}

TEST(Cache, SixteenWayLruMatchesReferenceModel)
{
    checkAgainstReference(8, 16, 22);
}

} // namespace
} // namespace sim
} // namespace poat
