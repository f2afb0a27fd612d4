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

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pmem/addrspace.h"
#include "sim/slot_hint.h"

namespace poat {
namespace sim {

/** Demand-paged page table: vpn -> pfn, filling frames on first use. */
class PageTable
{
  public:
    /** Physical frame of @p vaddr's page, allocating on first touch. */
    uint64_t
    translate(uint64_t vaddr)
    {
        const uint64_t vpn = vaddr / kPageSize;
        if (vpn != lastVpn_) {
            auto [it, inserted] = map_.try_emplace(vpn, nextFrame_);
            if (inserted)
                ++nextFrame_;
            lastVpn_ = vpn;
            lastFrame_ = it->second;
        }
        return lastFrame_ * kPageSize + vaddr % kPageSize;
    }

    /** Frame number of @p vaddr's page (allocating on first touch). */
    uint64_t
    frameOf(uint64_t vaddr)
    {
        return translate(vaddr) / kPageSize;
    }

    size_t mappedPages() const { return map_.size(); }

  private:
    std::unordered_map<uint64_t, uint64_t> map_;
    uint64_t nextFrame_ = 1; // frame 0 unused so paddr 0 never appears
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
