/**
 * @file
 * Persistent Object Look-aside Buffer (paper sections 3.2 and 4.1).
 *
 * A small CAM-tagged translation cache inside the core. The two designs
 * differ only in what a key/value pair means, so one structure serves
 * both:
 *
 *  - Pipelined: key = pool id (32 bits), value = the pool's 64-bit
 *    virtual base address. Sized to the number of live pools.
 *  - Parallel: key = the upper 52 bits of the ObjectID (pool id plus
 *    page-within-pool), value = the 52-bit physical frame number. Sized
 *    to the number of *active pages*, hence the contention the paper
 *    reports in Table 8/9.
 *
 * The paper evaluates a fully associative, true-LRU CAM; this model
 * additionally supports set-associative organizations and FIFO/random
 * replacement for the associativity ablation (a cheaper POLB is the
 * natural follow-up question for a structure on the load path).
 *
 * polb_entries == 0 models the "no POLB" bar of Figure 11: every nv
 * access pays the POT walk.
 */
#ifndef POAT_SIM_POLB_H
#define POAT_SIM_POLB_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "sim/config.h"
#include "sim/slot_hint.h"

namespace poat {
namespace sim {

/** Set-associative (or fully associative) translation buffer. */
class Polb
{
  public:
    /**
     * @param entries Total entries; 0 disables the structure.
     * @param assoc Ways per set; 0 means fully associative.
     */
    explicit Polb(uint32_t entries, uint32_t assoc = 0,
                  PolbReplacement repl = PolbReplacement::Lru)
        : entries_(entries), repl_(repl), hint_(entries)
    {
        if (entries_ == 0) {
            sets_ = 0;
            assoc_ = 0;
            return;
        }
        assoc_ = (assoc == 0 || assoc > entries_) ? entries_ : assoc;
        POAT_ASSERT(entries_ % assoc_ == 0,
                    "POLB entries must divide evenly into ways");
        sets_ = entries_ / assoc_;
        slots_.resize(entries_);
    }

    /**
     * Look up @p key, updating recency on hit and counting statistics.
     * @return the cached value, or nullopt on miss.
     */
    std::optional<uint64_t>
    lookup(uint64_t key)
    {
        ++tick_;
        if (entries_ != 0) {
            if (Slot *s = find(key)) {
                if (repl_ == PolbReplacement::Lru)
                    s->stamp = tick_;
                ++hits_;
                return s->value;
            }
        }
        ++misses_;
        return std::nullopt;
    }

    /** Probe without statistics or recency effects (tests). */
    bool
    contains(uint64_t key) const
    {
        if (entries_ == 0)
            return false;
        const Slot *set = setOf(key);
        for (uint32_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].key == key)
                return true;
        }
        return false;
    }

    /** Install a translation, evicting per the policy when full. */
    void
    insert(uint64_t key, uint64_t value)
    {
        if (entries_ == 0)
            return;
        Slot *set = setOf(key);
        Slot *victim = &set[0];
        for (uint32_t w = 0; w < assoc_; ++w) {
            Slot &s = set[w];
            if (s.valid && s.key == key) { // refresh in place
                s.value = value;
                if (repl_ == PolbReplacement::Lru)
                    s.stamp = tick_;
                return;
            }
            if (!s.valid) {
                victim = &s;
                break;
            }
            if (victim->valid && s.stamp < victim->stamp)
                victim = &s;
        }
        if (victim->valid && repl_ == PolbReplacement::Random)
            victim = &set[xorshift() % assoc_];
        if (victim->valid)
            ++evictions_;
        hint_[key] = static_cast<uint32_t>(victim - slots_.data());
        victim->valid = true;
        victim->key = key;
        victim->value = value;
        victim->stamp = tick_; // LRU recency == FIFO insertion time here
    }

    /**
     * Drop every entry whose key satisfies @p pred; used on pool_close
     * (unmap must not leave stale translations behind).
     */
    template <typename Pred>
    void
    invalidateIf(Pred &&pred)
    {
        for (Slot &s : slots_) {
            if (s.valid && pred(s.key))
                s.valid = false;
        }
    }

    void
    reset()
    {
        for (Slot &s : slots_)
            s.valid = false;
        tick_ = 0;
    }

    uint32_t capacity() const { return entries_; }
    uint32_t associativity() const { return assoc_; }

    size_t
    occupancy() const
    {
        size_t n = 0;
        for (const Slot &s : slots_)
            n += s.valid;
        return n;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }
    uint64_t evictions() const { return evictions_; }

    double
    missRate() const
    {
        const uint64_t n = accesses();
        return n ? static_cast<double>(misses_) / n : 0.0;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        uint64_t value = 0;
        uint64_t stamp = 0;
        bool valid = false;
    };

    /**
     * The first way of @p key's set that holds it (what a scan of the
     * set finds), or null. The hint is right whenever its slot still
     * holds @p key: it is set only to the slot a scan found or an
     * insert() filled, and only insert() adds a copy of a key, always
     * ahead of any other copy in its set.
     */
    Slot *
    find(uint64_t key)
    {
        uint32_t &hint = hint_[key];
        if (slots_[hint].valid && slots_[hint].key == key)
            return &slots_[hint];
        Slot *set = setOf(key);
        for (uint32_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].key == key) {
                hint = static_cast<uint32_t>(&set[w] - slots_.data());
                return &set[w];
            }
        }
        return nullptr;
    }

    Slot *
    setOf(uint64_t key)
    {
        // Multiplicative hash spreads pool ids and page keys evenly.
        const uint64_t h = (key * 0x9e3779b97f4a7c15ull) >> 32;
        return &slots_[(h % sets_) * assoc_];
    }

    const Slot *
    setOf(uint64_t key) const
    {
        const uint64_t h = (key * 0x9e3779b97f4a7c15ull) >> 32;
        return &slots_[(h % sets_) * assoc_];
    }

    uint32_t
    xorshift()
    {
        rngState_ ^= rngState_ << 13;
        rngState_ ^= rngState_ >> 7;
        rngState_ ^= rngState_ << 17;
        return static_cast<uint32_t>(rngState_);
    }

    uint32_t entries_;
    uint32_t assoc_ = 0;
    uint32_t sets_ = 0;
    PolbReplacement repl_;
    std::vector<Slot> slots_;
    SlotHint hint_;
    uint64_t tick_ = 0;
    uint64_t rngState_ = 0x2545f4914f6cdd1dull;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_POLB_H
