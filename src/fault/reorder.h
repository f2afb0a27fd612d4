/**
 * @file
 * Persistence-reordering crash states: drain batches and their subsets.
 *
 * The prefix-freeze explorer (fault/explore.h) crashes between
 * durability events, which covers every reachable crash state only if
 * each event persists one full line in program order. Under the Strict
 * policy that assumption breaks at every fence: the fence retires a
 * *batch* of staged lines with no ordering among them until it
 * completes, so a real power failure mid-drain persists an arbitrary
 * subset of the batch — and may additionally tear the line it was
 * writing at 8-byte-word granularity. This module enumerates that
 * per-event crash-state space:
 *
 *  1. The explorer's recording pass forwards every durability event to
 *     DrainProbe, which groups the fence-retired ones into batches
 *     (Pool::fence announces each drain via onFenceDrainBegin; CLWB and
 *     eviction write-backs are singleton batches).
 *  2. For each batch [b, b+n) the explorer plans CrashWithDrain trials:
 *     every proper, non-empty subset of the batch when 2^n - 2 fits the
 *     exhaustive bound, a seeded sample of subsets otherwise, plus torn
 *     states — the drain stops mid-line at each batch position, with
 *     the interrupted line persisting only a proper prefix or suffix of
 *     its eight 8-byte words (the word-mask analogue of the media
 *     injector's torn-64B faults). A trial persists the recorded
 *     events before b whole and batch event b + i per its word mask:
 *     the image CrashWithDrain(b, masks) would freeze.
 *
 * The empty subset equals CrashAtEvent(b) and the full subset equals
 * CrashAtEvent(b + n), so both are covered by the prefix trials and
 * skipped here (the bit-identity of the full subset is asserted by
 * tests, not re-explored).
 */
#ifndef POAT_FAULT_REORDER_H
#define POAT_FAULT_REORDER_H

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"

namespace poat {
namespace fault {

/**
 * One drain batch of the recorded event stream: the write-back events
 * [start, start + lines.size()) retire together and reach media in no
 * guaranteed order. A CLWB or eviction write-back is its own batch of
 * one (the line can still tear mid-write).
 */
struct DrainBatch
{
    uint64_t start = 0;           ///< event index of the first event
    std::vector<uint32_t> lines;  ///< line numbers, in event order
    uint32_t pool_id = 0;
    WriteBackCause cause = WriteBackCause::Clwb;

    uint64_t size() const { return lines.size(); }
};

/**
 * Hook that groups the durability events it observes into
 * fence-drain batches (see file comment). Non-interfering: every
 * write-back proceeds.
 */
class DrainProbe final : public DurabilityHook
{
  public:
    bool onWriteBack(Pool &pool, uint32_t line,
                     WriteBackCause cause) override;
    void onFenceDrainBegin(Pool &pool,
                           const std::vector<uint32_t> &pending) override;

    const std::vector<DrainBatch> &batches() const { return batches_; }

    /** Total durability events observed (== sum of batch sizes). */
    uint64_t total() const { return total_; }

  private:
    std::vector<DrainBatch> batches_;
    uint64_t total_ = 0;
    uint32_t fencePool_ = 0; ///< pool of the announced drain
    uint64_t fenceLeft_ = 0; ///< events remaining in the announced drain
};

/**
 * The 14 torn-line word masks: every proper, non-empty prefix and
 * suffix of a line's eight 8-byte words (7 prefixes + 7 suffixes;
 * never 0 or kFullLineMask, which are the untorn subset states).
 */
const std::vector<uint8_t> &tornWordMasks();

/**
 * One planned reorder trial: CrashWithDrain(start, masks). torn is true
 * when any mask is a partial line (for the fault.reorder.torn counter).
 */
struct DrainPlan
{
    uint64_t start = 0;
    std::vector<uint8_t> masks;
    bool torn = false;
};

/**
 * Plan the reorder trials for one batch (see file comment): proper
 * subsets — exhaustive when 2^size - 2 <= exhaustive bound 2^bound,
 * i.e. size <= bound, else @p sample seeded draws — plus the torn
 * states at every batch position. Deterministic for a fixed seed.
 */
std::vector<DrainPlan> planDrainStates(const DrainBatch &batch,
                                       uint64_t bound, uint64_t sample,
                                       uint64_t seed);

/** Hex encoding of a drain-mask vector (two digits per event). */
std::string encodeDrainMasks(const std::vector<uint8_t> &masks);

/**
 * Parse a ":r" reproducer payload back into masks.
 * @throws std::invalid_argument on an empty, odd-length, or non-hex
 *         string.
 */
std::vector<uint8_t> decodeDrainMasks(const std::string &hex);

} // namespace fault
} // namespace poat

#endif // POAT_FAULT_REORDER_H
