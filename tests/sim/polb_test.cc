/** @file Unit tests for the POLB (both key disciplines use it). */
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/polb.h"

namespace poat {
namespace sim {
namespace {

TEST(Polb, MissThenHit)
{
    Polb p(4);
    EXPECT_FALSE(p.lookup(7).has_value());
    p.insert(7, 0xabc);
    auto v = p.lookup(7);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 0xabcu);
    EXPECT_EQ(p.hits(), 1u);
    EXPECT_EQ(p.misses(), 1u);
}

TEST(Polb, LruEvictionOrder)
{
    Polb p(2);
    p.insert(1, 10);
    p.insert(2, 20);
    p.lookup(1);     // 2 becomes LRU
    p.insert(3, 30); // evicts 2
    EXPECT_TRUE(p.contains(1));
    EXPECT_FALSE(p.contains(2));
    EXPECT_TRUE(p.contains(3));
}

TEST(Polb, InsertRefreshesExistingKey)
{
    Polb p(2);
    p.insert(1, 10);
    p.insert(1, 11);
    EXPECT_EQ(p.occupancy(), 1u);
    EXPECT_EQ(*p.lookup(1), 11u);
}

TEST(Polb, ZeroEntriesAlwaysMisses)
{
    Polb p(0);
    p.insert(1, 10);
    EXPECT_FALSE(p.lookup(1).has_value());
    EXPECT_EQ(p.occupancy(), 0u);
    EXPECT_EQ(p.missRate(), 1.0);
}

TEST(Polb, InvalidateIfRemovesMatching)
{
    Polb p(8);
    for (uint64_t k = 0; k < 8; ++k)
        p.insert((k << 20) | 5, k); // Parallel-style keys, pools 0..7
    p.invalidateIf([](uint64_t key) { return (key >> 20) == 3; });
    EXPECT_EQ(p.occupancy(), 7u);
    EXPECT_FALSE(p.contains((3ull << 20) | 5));
    EXPECT_TRUE(p.contains((4ull << 20) | 5));
}

TEST(Polb, CyclicSweepLargerThanCapacityAlwaysMisses)
{
    // The LL-EACH pathology from the paper: a cyclic pool sequence
    // longer than the POLB thrashes true-LRU completely.
    Polb p(32);
    for (int i = 0; i < 33; ++i)
        if (!p.lookup(i % 33))
            p.insert(i % 33, i);
    const uint64_t warm_misses = p.misses();
    for (int i = 33; i < 330; ++i)
        if (!p.lookup(i % 33))
            p.insert(i % 33, i);
    EXPECT_EQ(p.misses() - warm_misses, 297u); // every access missed
}

TEST(Polb, WorkingSetWithinCapacityOnlyColdMisses)
{
    // The RANDOM pattern with 32 pools on a 32-entry POLB: only the 32
    // warm-up misses (paper Table 8 footnote).
    Polb p(32);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t key = (i * 7) % 32;
        if (!p.lookup(key))
            p.insert(key, key);
    }
    EXPECT_EQ(p.misses(), 32u);
}

/**
 * Plain POLB: every lookup and insert scans the key's set in way order.
 * Set index and victim choice are polb.h's: a multiplicative hash of
 * the key; the first invalid way, else the lowest stamp (last use under
 * LRU, insertion under FIFO).
 */
class RefPolb
{
  public:
    RefPolb(uint32_t entries, uint32_t assoc, PolbReplacement repl)
        : assoc_(assoc == 0 ? entries : assoc), sets_(entries / assoc_),
          repl_(repl), ways_(entries)
    {}

    std::optional<uint64_t>
    lookup(uint64_t key)
    {
        ++tick_;
        for (Way *w = set(key); w != set(key) + assoc_; ++w) {
            if (w->valid && w->key == key) {
                if (repl_ == PolbReplacement::Lru)
                    w->stamp = tick_;
                ++hits;
                return w->value;
            }
        }
        ++misses;
        return std::nullopt;
    }

    void
    insert(uint64_t key, uint64_t value)
    {
        Way *victim = nullptr;
        for (Way *w = set(key); w != set(key) + assoc_; ++w) {
            if (w->valid && w->key == key) {
                w->value = value;
                if (repl_ == PolbReplacement::Lru)
                    w->stamp = tick_;
                return;
            }
            if (!w->valid) {
                victim = w;
                break;
            }
            if (!victim || w->stamp < victim->stamp)
                victim = w;
        }
        evictions += victim->valid;
        *victim = {key, value, tick_, true};
    }

    template <typename Pred>
    void
    invalidateIf(Pred pred)
    {
        for (Way &w : ways_)
            if (w.valid && pred(w.key))
                w.valid = false;
    }

    bool
    contains(uint64_t key)
    {
        for (Way *w = set(key); w != set(key) + assoc_; ++w)
            if (w->valid && w->key == key)
                return true;
        return false;
    }

    size_t
    occupancy() const
    {
        size_t n = 0;
        for (const Way &w : ways_)
            n += w.valid;
        return n;
    }

    uint64_t hits = 0, misses = 0, evictions = 0;

  private:
    struct Way
    {
        uint64_t key = 0, value = 0, stamp = 0;
        bool valid = false;
    };

    Way *
    set(uint64_t key)
    {
        const uint64_t h = (key * 0x9e3779b97f4a7c15ull) >> 32;
        return &ways_[(h % sets_) * assoc_];
    }

    uint32_t assoc_;
    uint32_t sets_;
    PolbReplacement repl_;
    std::vector<Way> ways_;
    uint64_t tick_ = 0;
};

TEST(Polb, MatchesReferenceModelAcrossOrganizations)
{
    // Fully associative, direct-mapped and 4-way; LRU and FIFO;
    // Pipelined keys (pool ids) and Parallel keys (pool id << 20 |
    // page). Lookups insert on a miss, as the machine does; direct
    // inserts (refreshes, or a second copy past a hole) and pool
    // shootdowns are mixed in.
    for (const uint32_t assoc : {0u, 1u, 4u}) {
        for (const auto repl : {PolbReplacement::Lru,
                                PolbReplacement::Fifo}) {
            for (const bool parallel : {false, true}) {
                SCOPED_TRACE("assoc " + std::to_string(assoc) + " repl " +
                             std::to_string(static_cast<int>(repl)) +
                             (parallel ? " parallel" : " pipelined"));
                Polb p(32, assoc, repl);
                RefPolb ref(32, assoc, repl);
                Rng rng(51 + assoc);
                auto draw_key = [&] {
                    const uint64_t pool = 1 + rng.below(parallel ? 8 : 48);
                    return parallel ? pool << 20 | rng.below(16) : pool;
                };
                for (int i = 0; i < 20000; ++i) {
                    const uint64_t key = draw_key();
                    const uint64_t op = rng.below(32);
                    if (op == 0) {
                        const uint64_t pool = 1 + rng.below(8);
                        auto pred = [&](uint64_t k) {
                            return (parallel ? k >> 20 : k) == pool;
                        };
                        p.invalidateIf(pred);
                        ref.invalidateIf(pred);
                    } else if (op <= 2) {
                        p.insert(key, i);
                        ref.insert(key, i);
                    } else {
                        const auto got = p.lookup(key);
                        ASSERT_EQ(got, ref.lookup(key)) << "step " << i;
                        if (!got) {
                            p.insert(key, key ^ i);
                            ref.insert(key, key ^ i);
                        }
                    }
                    ASSERT_EQ(p.hits(), ref.hits) << "step " << i;
                    ASSERT_EQ(p.misses(), ref.misses) << "step " << i;
                    ASSERT_EQ(p.evictions(), ref.evictions) << "step " << i;
                    ASSERT_EQ(p.occupancy(), ref.occupancy())
                        << "step " << i;
                    const uint64_t probe = draw_key();
                    ASSERT_EQ(p.contains(probe), ref.contains(probe))
                        << "step " << i;
                }
                EXPECT_GT(p.hits(), 0u);
                EXPECT_GT(p.evictions(), 0u);
            }
        }
    }
}

} // namespace
} // namespace sim
} // namespace poat
