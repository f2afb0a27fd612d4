/**
 * @file
 * Durability-path fault injection hooks.
 *
 * All hooks plug into Pool's write-back path (see DurabilityHook in
 * pmem/pool.h). The model is *freeze semantics*: a suppressed
 * write-back drops only the durable copy of the line — every piece of
 * volatile bookkeeping proceeds unchanged — so the program's execution
 * after the crash point is bit-identical to an uninjected run. A hooked
 * run goes on to completion, then simulates the power failure
 * (crashAll) and recovers from the frozen durable image. That turns
 * "crash at instruction X" into a deterministic, replayable experiment:
 * the durable image equals what real hardware would hold had the power
 * failed right before event k.
 *
 * The same property lets one recorded uninjected run stand in for all
 * of them: the image frozen at k is the setup image plus the first k
 * write-backs of the recorded stream, which is how the explorers build
 * their trials (fault/trial.h). The hooks below remain the reference
 * for that (--repro and the differential test re-execute under them),
 * and they still crash the recoveries of in-recovery trials.
 *
 * One crash hook, CrashAtEvent(k, masks), covers both shapes of
 * failure:
 *
 *  - with no masks, the classic prefix freeze: the first k events
 *    persist in full, everything later is suppressed;
 *  - with masks, a crash *inside* a fence-drain batch starting at event
 *    k: each batch event gets its own word mask (full, suppressed, or
 *    torn), modeling the arbitrary subset of staged lines a real power
 *    failure lets reach media, including a line torn at 8-byte-word
 *    granularity mid-write-back.
 *
 * It counts every durability event it observes (observed()); the
 * differential test requires a re-executed trial to observe exactly
 * the recorded stream's count.
 */
#ifndef POAT_FAULT_INJECTOR_H
#define POAT_FAULT_INJECTOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "pmem/pool.h"

namespace poat {
namespace fault {

/** Counts durability events (write-backs) without interfering. */
class EventCounter final : public DurabilityHook
{
  public:
    uint8_t
    onWriteBack(Pool &, uint32_t, WriteBackCause cause) override
    {
        ++total_;
        ++byCause_[static_cast<size_t>(cause)];
        return kFullLineMask;
    }

    uint64_t total() const { return total_; }

    uint64_t
    count(WriteBackCause cause) const
    {
        return byCause_[static_cast<size_t>(cause)];
    }

    void
    reset()
    {
        total_ = 0;
        byCause_ = {};
    }

  private:
    uint64_t total_ = 0;
    std::array<uint64_t, 3> byCause_{}; ///< indexed by WriteBackCause
};

/**
 * Power failure right before event index @p k: events before k persist
 * in full, event k + i persists per masks[i] (a word mask —
 * kFullLineMask, 0, or a torn in-between), and every event past the
 * masks is suppressed. With no masks this is the prefix freeze: k = 0
 * freezes immediately, and a k at or past the run's event total never
 * fires (equivalent to no crash). With all masks equal to
 * kFullLineMask it is bit-identical to CrashAtEvent(k + masks.size()) —
 * the full-subset drain is exactly the prefix freeze.
 */
class CrashAtEvent final : public DurabilityHook
{
  public:
    explicit CrashAtEvent(uint64_t k, std::vector<uint8_t> masks = {})
        : k_(k), masks_(std::move(masks))
    {}

    uint8_t
    onWriteBack(Pool &, uint32_t, WriteBackCause) override
    {
        const uint64_t i = observed_++;
        if (i < k_)
            return kFullLineMask;
        const uint64_t rel = i - k_;
        const uint8_t mask =
            rel < masks_.size() ? masks_[rel] : static_cast<uint8_t>(0);
        if (mask != kFullLineMask)
            fired_ = true;
        return mask;
    }

    /** True once at least one write-back was suppressed or torn. */
    bool fired() const { return fired_; }

    /** Total durability events observed, suppressed ones included. */
    uint64_t observed() const { return observed_; }

  private:
    uint64_t k_;
    std::vector<uint8_t> masks_;
    uint64_t observed_ = 0;
    bool fired_ = false;
};

} // namespace fault
} // namespace poat

#endif // POAT_FAULT_INJECTOR_H
