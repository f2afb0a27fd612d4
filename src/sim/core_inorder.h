/**
 * @file
 * In-order five-stage pipeline timing model (paper section 4.5).
 *
 * The model assumes a classic IF/ID/EX/MEM/WB scalar pipeline:
 *
 *  - every instruction occupies one cycle of issue;
 *  - loads are blocking and charge the full access latency (an L1 hit
 *    costs its 3-cycle hit time), as in Sniper's in-order model;
 *  - translation work (POLB/POT/TLB walks) stalls the pipeline for its
 *    full duration, per section 4.5 ("the in-order pipeline stalls
 *    until the POT walk is completed");
 *  - stores retire into a small store buffer that drains one entry per
 *    memory access time; a full buffer stalls;
 *  - mispredicted branches flush (8-cycle penalty);
 *  - CLWB costs its fixed latency; SFENCE drains the store buffer.
 *
 * CPI accounting is trivially exact here: the pipeline is blocking, so
 * every `cycle_ +=` below is paired with a charge() of the same amount
 * to the component that caused it.
 */
#ifndef POAT_SIM_CORE_INORDER_H
#define POAT_SIM_CORE_INORDER_H

#include <vector>

#include "sim/config.h"
#include "sim/core.h"

namespace poat {
namespace sim {

/** Scalar in-order pipeline. */
class InOrderCore : public CoreModel
{
  public:
    explicit InOrderCore(const MachineConfig &cfg)
        : mispredictPenalty_(cfg.mispredict_penalty),
          storeBuf_(cfg.store_buffer_entries, 0)
    {
    }

    void
    alu(uint32_t count, uint64_t) override
    {
        cycle_ += count;
        charge(CpiComponent::Base, count);
        uops_ += count;
    }

    void
    branch(bool mispredict, uint64_t) override
    {
        cycle_ += 1 + (mispredict ? mispredictPenalty_ : 0);
        charge(CpiComponent::Base, 1);
        if (mispredict)
            charge(CpiComponent::Branch, mispredictPenalty_);
        ++uops_;
    }

    uint64_t
    load(const AccessCosts &costs, uint64_t, uint64_t) override
    {
        cycle_ += costs.total();
        chargePre(costs);
        charge(costs.mem_comp, costs.mem);
        ++uops_;
        return ++tag_;
    }

    void
    store(const AccessCosts &costs, uint64_t) override
    {
        cycle_ += 1 + costs.preStall();
        charge(CpiComponent::Base, 1);
        chargePre(costs);
        ++uops_;
        // Claim the store-buffer slot that frees the earliest (the first
        // such slot on a tie); if it is still draining, stall until it
        // is free. The scan selects without branching: drain times
        // arrive in no order a predictor could learn.
        size_t slot = 0;
        uint64_t free_at = storeBuf_[0];
        for (size_t i = 1; i < storeBuf_.size(); ++i) {
            const uint64_t t = storeBuf_[i];
            slot = t < free_at ? i : slot;
            free_at = t < free_at ? t : free_at;
        }
        if (free_at > cycle_) {
            charge(CpiComponent::Mem, free_at - cycle_);
            cycle_ = free_at;
        }
        storeBuf_[slot] = cycle_ + costs.mem;
    }

    void
    clwb(const AccessCosts &costs, uint32_t flush_latency) override
    {
        cycle_ += costs.preStall() + flush_latency;
        chargePre(costs);
        charge(CpiComponent::Flush, flush_latency);
        ++uops_;
    }

    void
    fence() override
    {
        for (uint64_t &slot : storeBuf_) {
            if (slot > cycle_) {
                charge(CpiComponent::Fence, slot - cycle_);
                cycle_ = slot;
            }
        }
        ++cycle_;
        charge(CpiComponent::Fence, 1);
        ++uops_;
    }

    uint64_t cycles() const override { return cycle_; }
    uint64_t uopCount() const override { return uops_; }

  private:
    /** Charge the pre-access translation components of @p costs. */
    void
    chargePre(const AccessCosts &costs)
    {
        charge(CpiComponent::Polb, costs.polb);
        charge(CpiComponent::PotWalk, costs.pot);
        charge(CpiComponent::Tlb, costs.tlb);
    }

    uint32_t mispredictPenalty_;
    std::vector<uint64_t> storeBuf_; ///< per-slot drain-complete time
    uint64_t cycle_ = 0;
    uint64_t uops_ = 0;
    uint64_t tag_ = 0;
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_CORE_INORDER_H
