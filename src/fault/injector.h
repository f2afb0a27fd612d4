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
 * Two crash hooks cover two shapes of failure:
 *
 *  - CrashAtEvent(k): the classic prefix freeze — the first k events
 *    persist in full, everything later is suppressed.
 *  - CrashWithDrain(b, masks): a crash *inside* a fence-drain batch
 *    starting at event b — each batch event gets its own word mask
 *    (full, suppressed, or torn), modeling the arbitrary subset of
 *    staged lines a real power failure lets reach media, including a
 *    line torn at 8-byte-word granularity mid-write-back.
 *
 * Both count every durability event they observe (observed()); the
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
    bool
    onWriteBack(Pool &, uint32_t, WriteBackCause cause) override
    {
        ++total_;
        ++byCause_[static_cast<size_t>(cause)];
        return true;
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
 * Common base of the crash-injection hooks: whether a crash was
 * actually injected (fired) and how many durability events the run
 * emitted in total (observed — suppressed events included).
 */
class CrashHook : public DurabilityHook
{
  public:
    /** True once at least one write-back was suppressed or torn. */
    bool fired() const { return fired_; }

    /** Total durability events observed, suppressed ones included. */
    uint64_t observed() const { return observed_; }

  protected:
    uint64_t observed_ = 0;
    bool fired_ = false;
};

/**
 * Lets the first @p k write-backs through, then suppresses every later
 * one: the durable image freezes exactly as if power failed right
 * before event index k. k = 0 freezes immediately; a k at or past the
 * run's event total never fires (equivalent to no crash).
 */
class CrashAtEvent final : public CrashHook
{
  public:
    explicit CrashAtEvent(uint64_t k) : k_(k) {}

    bool
    onWriteBack(Pool &, uint32_t, WriteBackCause) override
    {
        ++observed_;
        if (seen_ < k_) {
            ++seen_;
            return true;
        }
        fired_ = true;
        return false;
    }

    /** Write-backs allowed through so far (<= k). */
    uint64_t seen() const { return seen_; }

  private:
    uint64_t k_;
    uint64_t seen_ = 0;
};

/**
 * Crash inside the drain batch starting at event @p batch_start: events
 * before the batch persist in full, batch event i persists per
 * masks[i] (a word mask — kFullLineMask, 0, or a torn in-between), and
 * everything past the masks is suppressed. With all masks equal to
 * kFullLineMask this is bit-identical to CrashAtEvent(batch_start +
 * masks.size()) — the full-subset drain is exactly the prefix freeze.
 */
class CrashWithDrain final : public CrashHook
{
  public:
    CrashWithDrain(uint64_t batch_start, std::vector<uint8_t> masks)
        : start_(batch_start), masks_(std::move(masks))
    {}

    uint8_t
    onWriteBackWords(Pool &, uint32_t, WriteBackCause) override
    {
        const uint64_t i = observed_++;
        if (i < start_)
            return kFullLineMask;
        const uint64_t rel = i - start_;
        const uint8_t mask =
            rel < masks_.size() ? masks_[rel] : static_cast<uint8_t>(0);
        if (mask != kFullLineMask)
            fired_ = true;
        return mask;
    }

    bool
    onWriteBack(Pool &pool, uint32_t line, WriteBackCause cause) override
    {
        // Pool dispatches through onWriteBackWords(); this boolean view
        // exists only for callers of the legacy entry point.
        return onWriteBackWords(pool, line, cause) == kFullLineMask;
    }

  private:
    uint64_t start_;
    std::vector<uint8_t> masks_;
};

} // namespace fault
} // namespace poat

#endif // POAT_FAULT_INJECTOR_H
