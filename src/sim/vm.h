/**
 * @file
 * Virtual memory: demand-paged page table and the D-TLB.
 *
 * The paper relies on the conventional VA->PA machinery underneath both
 * translation designs: the Pipelined POLB emits virtual addresses that
 * go through the TLB like any load, and the Parallel POLB's miss path
 * performs a page-table walk after the POT walk. Frames are assigned on
 * first touch, sequentially, so physical addresses are dense and
 * deterministic for a given access order.
 */
#ifndef POAT_SIM_VM_H
#define POAT_SIM_VM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pmem/addrspace.h"
#include "sim/slot_hint.h"

namespace poat {
namespace sim {

/**
 * Demand-paged page table: vpn -> pfn, filling frames on first use.
 * The map is a flat open-addressing table (linear probing, load factor
 * at most 1/2) keyed by vpn + 1, so a zero key marks an empty slot.
 */
class PageTable
{
  public:
    PageTable() : table_(kInitialSlots), shift_(64 - kInitialBits) {}

    /** Physical frame of @p vaddr's page, allocating on first touch. */
    uint64_t
    translate(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        if (vpn != lastVpn_) {
            lastVpn_ = vpn;
            lastFrame_ = frameOfPage(vpn);
        }
        return lastFrame_ * kPageSize + vaddr % kPageSize;
    }

    /** Frame number of @p vaddr's page (allocating on first touch). */
    uint64_t
    frameOf(uint64_t vaddr)
    {
        return translate(vaddr) / kPageSize;
    }

    size_t mappedPages() const { return pages_; }

  private:
    static constexpr unsigned kInitialBits = 10;
    static constexpr size_t kInitialSlots = size_t{1} << kInitialBits;

    struct Entry
    {
        uint64_t key = 0; ///< vpn + 1; 0 = empty
        uint64_t frame = 0;
    };

    /** Fibonacci hashing: the top bits of the product mix every bit. */
    size_t
    home(uint64_t key) const
    {
        return (key * 0x9e3779b97f4a7c15ull) >> shift_;
    }

    /** Frame of page @p vpn; the next frame if it is new. */
    uint64_t
    frameOfPage(uint64_t vpn)
    {
        const uint64_t key = vpn + 1;
        const size_t mask = table_.size() - 1;
        size_t i = home(key);
        for (; table_[i].key != 0; i = (i + 1) & mask) {
            if (table_[i].key == key)
                return table_[i].frame;
        }
        // Frame 0 stays unused, so paddr 0 never appears.
        table_[i] = {key, ++pages_};
        if (2 * pages_ > table_.size())
            grow();
        return pages_;
    }

    /** Double the table and re-place every entry. */
    void
    grow()
    {
        std::vector<Entry> old(table_.size() * 2);
        old.swap(table_);
        --shift_;
        const size_t mask = table_.size() - 1;
        for (const Entry &e : old) {
            if (e.key == 0)
                continue;
            size_t i = home(e.key);
            while (table_[i].key != 0)
                i = (i + 1) & mask;
            table_[i] = e;
        }
    }

    std::vector<Entry> table_;
    unsigned shift_;
    uint64_t pages_ = 0;
    /**
     * Memo of the last translation (mappings never change once made).
     * All ones is no page's vpn, so the first lookup always misses.
     */
    uint64_t lastVpn_ = ~0ull;
    uint64_t lastFrame_ = 0;
};

/**
 * Fully associative, true-LRU data TLB. A SlotHint finds the slot of a
 * hit without the scan; each vpn occupies at most one slot.
 */
class Tlb
{
  public:
    explicit Tlb(uint32_t entries) : entries_(entries), hint_(entries) {}

    /**
     * Look up @p vaddr's page, installing it on miss.
     * @return true on hit.
     */
    bool
    access(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        ++tick_;
        uint32_t &hint = hint_[vpn];
        if (hint >= slots_.size() || slots_[hint].vpn != vpn) {
            hint = 0;
            while (hint < slots_.size() && slots_[hint].vpn != vpn)
                ++hint;
        }
        if (hint < slots_.size()) {
            slots_[hint].lru = tick_;
            ++hits_;
            return true;
        }
        ++misses_;
        if (slots_.size() < entries_) {
            slots_.push_back({vpn, tick_}); // lands at index hint
            return false;
        }
        hint = 0;
        for (uint32_t i = 1; i < slots_.size(); ++i) {
            if (slots_[i].lru < slots_[hint].lru)
                hint = i;
        }
        slots_[hint] = {vpn, tick_};
        return false;
    }

    void
    reset()
    {
        slots_.clear();
        tick_ = 0;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const uint64_t n = hits_ + misses_;
        return n ? static_cast<double>(misses_) / n : 0.0;
    }

  private:
    struct Slot
    {
        uint64_t vpn;
        uint64_t lru;
    };

    uint32_t entries_;
    std::vector<Slot> slots_;
    SlotHint hint_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_VM_H
