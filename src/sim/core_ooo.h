/**
 * @file
 * Out-of-order ROB-based timing model (paper section 4.4).
 *
 * A one-pass, instruction-window-centric model in the spirit of
 * Sniper's ROB core model: each uop is assigned a dispatch time
 * (bounded by fetch width, ROB occupancy, LQ/SQ occupancy, and branch
 * redirects), a ready time (producer completion via value tags), a
 * completion time (ready + execution latency), and an in-order,
 * width-limited commit time. Independent memory accesses overlap;
 * dependence chains — pointer chasing, translate-then-access —
 * serialize, which is exactly the structure the paper's OoO analysis
 * rests on (OoO hides part of the software-translation cost, shrinking
 * but not eliminating OPT's advantage).
 *
 * nvld/nvst translation latency arrives as the pre-access segments of
 * AccessCosts: the POLB sits in the AGEN stage, so its latency (and
 * any POT walk) extends the time until the access can start.
 *
 * CPI accounting uses commit-gap attribution. Commit times are
 * monotonically non-decreasing, so the gaps commit − prev_commit sum
 * exactly to cycles(); each gap is attributed by walking the committing
 * uop's own timeline backwards — commit-wait, then its execution
 * segments (each tagged with the component that produced the latency),
 * then the wait for its slowest producer (charged to that producer's
 * dominant component), and any remainder to whatever held dispatch
 * back (ROB/LQ/SQ pressure, a fence serialization, a mispredict
 * redirect, or plain issue bandwidth). Overlapped work is thus charged
 * to the component actually exposed on the commit-critical path,
 * Sniper-style, and the stack still sums exactly to total cycles.
 */
#ifndef POAT_SIM_CORE_OOO_H
#define POAT_SIM_CORE_OOO_H

#include <algorithm>
#include <vector>

#include "sim/config.h"
#include "sim/core.h"

namespace poat {
namespace sim {

/** ROB-based out-of-order superscalar model. */
class OooCore : public CoreModel
{
  public:
    explicit OooCore(const MachineConfig &cfg)
        : width_(cfg.issue_width), robSize_(cfg.rob_size),
          lqSize_(cfg.lq_size), sqSize_(cfg.sq_size),
          mispredictPenalty_(cfg.mispredict_penalty),
          commitRing_(cfg.rob_size, 0), loadRing_(cfg.lq_size, 0),
          storeRing_(cfg.sq_size, 0), completions_(kWindow)
    {
    }

    void
    alu(uint32_t count, uint64_t dep) override
    {
        if (count == 0)
            return;
        // Only the first uop can wait on dep or a fetch redirect, or be
        // charged anything but Base; the rest retire in aluTail().
        const Seg seg{CpiComponent::Base, 1};
        processUop(&seg, 1, dep, kNone, Slot::None, CpiComponent::Base);
        aluTail(count - 1);
    }

    void
    branch(bool mispredict, uint64_t dep) override
    {
        const Seg seg{CpiComponent::Base, 1};
        const uint64_t complete =
            processUop(&seg, 1, dep, kNone, Slot::None,
                       CpiComponent::Base);
        if (mispredict)
            raiseFetchAvail(complete + mispredictPenalty_,
                            CpiComponent::Branch);
    }

    uint64_t
    load(const AccessCosts &costs, uint64_t dep, uint64_t dep2) override
    {
        Seg segs[4];
        const uint32_t n = preSegs(costs, segs);
        processUop(segs, n, dep, dep2, Slot::Load, CpiComponent::Mem);
        return seq_;
    }

    void
    store(const AccessCosts &costs, uint64_t dep) override
    {
        // The store completes once its address (incl. translation) is
        // generated; the data drains to memory after commit, which the
        // SQ-occupancy constraint models. The cache access latency
        // itself is off the critical path.
        Seg segs[4];
        uint32_t n = preSegs(costs, segs) - 1; // drop the mem segment
        segs[n++] = {CpiComponent::Base, 1};
        processUop(segs, n, dep, kNone, Slot::Store, CpiComponent::Mem);
    }

    void
    clwb(const AccessCosts &costs, uint32_t flush_latency) override
    {
        Seg segs[4];
        uint32_t n = preSegs(costs, segs) - 1; // drop the mem segment
        segs[n++] = {CpiComponent::Flush, flush_latency};
        processUop(segs, n, kNone, kNone, Slot::Store,
                   CpiComponent::Flush);
    }

    void
    fence() override
    {
        // SFENCE: dispatches only after every prior uop completed, and
        // later uops wait for it.
        serializePoint_ = maxComplete_;
        const Seg seg{CpiComponent::Fence, 1};
        const uint64_t complete = processUop(&seg, 1, kNone, kNone,
                                             Slot::None,
                                             CpiComponent::Fence);
        raiseFetchAvail(complete, CpiComponent::Fence);
        serializePoint_ = 0;
    }

    uint64_t cycles() const override { return lastCommit_; }
    uint64_t uopCount() const override { return seq_; }

  protected:
    // Protected, not private, so a test can drive processUop per uop as
    // the reference for aluTail.
    static constexpr uint64_t kNone = 0;

    enum class Slot : uint8_t { None, Load, Store };

    /** One execution-latency segment and who it belongs to. */
    struct Seg
    {
        CpiComponent comp;
        uint32_t cycles;
    };

    /**
     * Run one uop through dispatch/ready/complete/commit and attribute
     * the commit-time advance. @p segs (time-ordered, @p nsegs of
     * them) make up the execution latency; @p stall_comp is charged
     * when a structural resource (ROB/LQ/SQ) delays dispatch.
     */
    uint64_t
    processUop(const Seg *segs, uint32_t nsegs, uint64_t dep,
               uint64_t dep2, Slot slot, CpiComponent stall_comp)
    {
        ++seq_;
        robIdx_ = robIdx_ + 1 == robSize_ ? 0 : robIdx_ + 1;

        const CpiComponent issue_comp = chargeComp(CpiComponent::Base);
        CpiComponent pre_comp = issue_comp; ///< why dispatch waited
        uint64_t pre_t = dispatch_.cycle;
        auto consider = [&](uint64_t t, CpiComponent c) {
            if (t > pre_t) {
                pre_t = t;
                pre_comp = c;
            }
        };

        // Structural constraints: a ROB entry frees when the uop
        // robSize_ back commits; LQ/SQ likewise.
        uint64_t earliest = commitRing_[robIdx_];
        consider(earliest, chargeComp(stall_comp));
        if (slot == Slot::Load) {
            const uint64_t t = loadRing_[lqIdx_];
            earliest = std::max(earliest, t);
            consider(t, chargeComp(stall_comp));
        } else if (slot == Slot::Store) {
            const uint64_t t = storeRing_[sqIdx_];
            earliest = std::max(earliest, t);
            consider(t, chargeComp(stall_comp));
        }
        earliest = std::max(earliest, serializePoint_);
        consider(serializePoint_, CpiComponent::Fence);
        consider(fetchAvail_, fetchAvailComp_);

        uint32_t exec_latency = 0;
        for (uint32_t i = 0; i < nsegs; ++i)
            exec_latency += segs[i].cycles;

        const uint64_t dispatch =
            dispatch_.claim(std::max(earliest, fetchAvail_), width_);
        const uint64_t c1 = depComplete(dep);
        const uint64_t c2 = depComplete(dep2);
        const uint64_t ready = std::max({dispatch, c1, c2});
        const uint64_t complete = ready + exec_latency;
        maxComplete_ = std::max(maxComplete_, complete);

        const uint64_t commit = commit_.claim(complete, width_);

        // ---- CPI attribution: the commit-time advance is this uop's
        // exposed cost; walk its timeline backwards to name it.
        uint64_t remaining = commit > lastCommit_ ? commit - lastCommit_
                                                  : 0;
        auto take = [&](uint64_t span, CpiComponent c) {
            if (remaining == 0 || span == 0)
                return;
            const uint64_t t = std::min(span, remaining);
            cpi_[c] += t;
            remaining -= t;
        };
        take(commit - complete, issue_comp);
        CpiComponent dominant = issue_comp;
        uint32_t dominant_cycles = 0;
        for (uint32_t i = nsegs; i-- > 0;) {
            const CpiComponent c = chargeComp(segs[i].comp);
            take(segs[i].cycles, c);
            if (segs[i].cycles >= dominant_cycles) {
                dominant_cycles = segs[i].cycles;
                dominant = c;
            }
        }
        if (ready > dispatch)
            take(ready - dispatch, c1 >= c2 ? depComp(dep)
                                            : depComp(dep2));
        if (remaining)
            cpi_[pre_comp] += remaining;

        lastCommit_ = std::max(lastCommit_, commit);
        commitRing_[robIdx_] = commit;
        if (slot == Slot::Load) {
            loadRing_[lqIdx_] = commit;
            lqIdx_ = lqIdx_ + 1 == lqSize_ ? 0 : lqIdx_ + 1;
        } else if (slot == Slot::Store) {
            storeRing_[sqIdx_] = commit;
            sqIdx_ = sqIdx_ + 1 == sqSize_ ? 0 : sqIdx_ + 1;
        }
        completions_[seq_ % kWindow] = {seq_, complete, dominant};
        return complete;
    }

  private:
    static constexpr uint32_t kWindow = 8192; ///< completion-ring slots

    /**
     * A width-limited in-order stage (dispatch or commit): the cycle it
     * is filling and the slots of that cycle already taken.
     */
    struct Stage
    {
        uint64_t cycle = 0;
        uint32_t slots = 0;

        /** Take the first free slot at or after @p earliest. */
        uint64_t
        claim(uint64_t earliest, uint32_t width)
        {
            if (earliest > cycle) {
                cycle = earliest;
                slots = 0;
            }
            const uint64_t c = cycle;
            if (++slots == width) {
                ++cycle;
                slots = 0;
            }
            return c;
        }
    };

    struct Completion
    {
        uint64_t tag = 0;
        uint64_t cycle = 0;
        CpiComponent comp = CpiComponent::Base; ///< dominant cost
    };

    /**
     * Time-ordered pre-access + access segments of @p costs, written
     * to @p out (skipping zero-length ones). @return segment count
     * (>= 1: the mem segment is always emitted so callers can pop it).
     */
    static uint32_t
    preSegs(const AccessCosts &costs, Seg out[4])
    {
        uint32_t n = 0;
        if (costs.polb)
            out[n++] = {CpiComponent::Polb, costs.polb};
        if (costs.pot)
            out[n++] = {CpiComponent::PotWalk, costs.pot};
        if (costs.tlb)
            out[n++] = {CpiComponent::Tlb, costs.tlb};
        out[n++] = {costs.mem_comp, costs.mem};
        return n;
    }

    /** Completion time of producer @p tag; 0 if long since done. */
    uint64_t
    depComplete(uint64_t tag) const
    {
        if (tag == kNone || tag + kWindow <= seq_)
            return 0;
        const Completion &c = completions_[tag % kWindow];
        return c.tag == tag ? c.cycle : 0;
    }

    /** Dominant CPI component of producer @p tag (Base if retired). */
    CpiComponent
    depComp(uint64_t tag) const
    {
        if (tag == kNone || tag + kWindow <= seq_)
            return CpiComponent::Base;
        const Completion &c = completions_[tag % kWindow];
        return c.tag == tag ? c.comp : CpiComponent::Base;
    }

    /** Raise the fetch redirect point and remember who caused it. */
    void
    raiseFetchAvail(uint64_t t, CpiComponent comp)
    {
        if (t > fetchAvail_) {
            fetchAvail_ = t;
            fetchAvailComp_ = chargeComp(comp);
        }
    }

    /**
     * Retire the @p n uops of an ALU burst after its first. processUop
     * would charge each one's whole commit-time advance to
     * chargeComp(Base), so this loop only replays dispatch and commit
     * against the ROB ring. That is exact because each of them has no
     * dep and one Base cycle of latency, serializePoint_ is 0 outside
     * fence(), and fetchAvail_ <= dispatch_.cycle once the first uop
     * dispatched, so neither holds dispatch back. Every uop still
     * writes its ROB and completion-ring entries: later uops wait on
     * the first, and a dep tag can index the second (on a multi-core
     * machine, a load tag from another core).
     */
    void
    aluTail(uint32_t n)
    {
        const CpiComponent comp = chargeComp(CpiComponent::Base);
        // Work on copies: stores into the rings could otherwise alias
        // the members and force a reload of each one per uop.
        Stage dispatch = dispatch_, commit = commit_;
        uint64_t seq = seq_;
        uint32_t rob = robIdx_;
        uint64_t *const ring = commitRing_.data();
        Completion *const completions = completions_.data();
        uint64_t complete = 0, committed = 0;
        for (uint32_t i = 0; i < n; ++i) {
            ++seq;
            rob = rob + 1 == robSize_ ? 0 : rob + 1;
            complete = dispatch.claim(ring[rob], width_) + 1;
            committed = commit.claim(complete, width_);
            ring[rob] = committed;
            completions[seq % kWindow] = {seq, complete, comp};
        }
        dispatch_ = dispatch;
        commit_ = commit;
        seq_ = seq;
        robIdx_ = rob;
        maxComplete_ = std::max(maxComplete_, complete);
        if (committed > lastCommit_) {
            cpi_[comp] += committed - lastCommit_;
            lastCommit_ = committed;
        }
    }

    uint32_t width_;
    uint32_t robSize_;
    uint32_t lqSize_;
    uint32_t sqSize_;
    uint32_t mispredictPenalty_;

    std::vector<uint64_t> commitRing_;
    std::vector<uint64_t> loadRing_;
    std::vector<uint64_t> storeRing_;
    std::vector<Completion> completions_;

    uint64_t seq_ = 0;
    // Ring positions: seq_ % robSize_, and the load and store counts
    // modulo lqSize_ and sqSize_, kept without a division per uop.
    uint32_t robIdx_ = 0;
    uint32_t lqIdx_ = 0;
    uint32_t sqIdx_ = 0;
    uint64_t fetchAvail_ = 0;
    CpiComponent fetchAvailComp_ = CpiComponent::Base;
    Stage dispatch_;
    Stage commit_;
    uint64_t maxComplete_ = 0;
    uint64_t serializePoint_ = 0;
    uint64_t lastCommit_ = 0;
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_CORE_OOO_H
