/**
 * @file
 * Write-ahead undo log: the failure-safety substrate (paper section
 * 2.1.4).
 *
 * Each pool reserves a log region. A transaction snapshots every range
 * it is about to modify (tx_add_range) into the log and makes the
 * snapshot durable *before* the caller mutates the range; allocations
 * and frees inside a transaction are logged so they can be reverted or
 * completed.
 *
 * Commit is two-phase so that deferred frees survive a crash:
 *
 *   active (1)      — undo on recovery: restore data snapshots in
 *                     reverse order, free blocks from ALLOC records.
 *   committing (2)  — the transaction's effects are durable; redo on
 *                     recovery: perform any FREE records not yet done.
 *   idle (0)        — nothing to do.
 *
 * A non-transactional pmalloc interrupted by a crash may leak its block
 * (same contract as NVML non-transactional allocation); everything else
 * is exactly-once.
 */
#ifndef POAT_PMEM_TX_H
#define POAT_PMEM_TX_H

#include <cstdint>

#include "pmem/alloc.h"
#include "pmem/pool.h"

namespace poat {

/**
 * On-media header at the start of a pool's log region, crc32c-sealed
 * and replicated: the mirror copy lives one 64-byte line up
 * (log_off + kMirrorLineOff) and entries start two lines in, so a
 * media fault in either header line repairs from the other. Every
 * state write stores both copies, primary first; between two *valid*
 * copies the primary wins — it is the commit point of the state
 * machine, the mirror is its backup.
 *
 * The crc seed is 0 so a freshly zeroed log region decodes as a validly
 * sealed idle header (crc32c of zeros from seed 0 is 0), exactly the
 * "nothing to recover" a fresh pool means.
 */
struct LogHeader
{
    static constexpr uint32_t kIdle = 0;
    static constexpr uint32_t kActive = 1;
    static constexpr uint32_t kCommitting = 2;
    /** Mirror copy offset relative to the log region start. */
    static constexpr uint32_t kMirrorLineOff = 64;
    /** Entries start this far into the log region (after both copies). */
    static constexpr uint32_t kEntriesOff = 128;

    uint32_t state;
    uint32_t num_entries;
    uint32_t used; ///< bytes of entries written after this header
    uint32_t crc;  ///< crc32c over the preceding fields (seed 0)

    uint32_t
    computeCrc() const
    {
        return crc32c(this, offsetof(LogHeader, crc));
    }
    bool crcValid() const { return crc == computeCrc(); }
    void seal() { crc = computeCrc(); }
};

/**
 * On-media header of one log entry, followed by its payload.
 *
 * Two checksums: hdr_crc seals every preceding header field (so the
 * entry walk can trust sizes and targets), data_crc seals the payload
 * snapshot bytes (so recovery never copies corrupt old data back over
 * a live object). Both are verified by validateLog and the recovery
 * scrub.
 */
struct LogEntryHeader
{
    static constexpr uint32_t kData = 1;  ///< payload = old bytes
    static constexpr uint32_t kAlloc = 2; ///< target = allocated payload
    static constexpr uint32_t kFree = 3;  ///< target = deferred free
    /** Seed for both entry checksums; nonzero so zeroed media fails. */
    static constexpr uint32_t kCrcSeed = 0x106e7221;

    uint32_t type;
    uint32_t payload_size;
    uint32_t target_off;

    /**
     * kAlloc: payload bytes of the new block, persisted at commit so
     * stores into a freshly tx-allocated object become durable with
     * the transaction (they have no kData snapshot to persist through).
     * Zero for other entry types.
     */
    uint32_t alloc_size;

    uint32_t data_crc; ///< crc32c of the payload bytes; 0 if no payload
    uint32_t pad0;
    uint32_t pad1;
    uint32_t hdr_crc;  ///< crc32c over all preceding fields

    uint32_t
    computeHdrCrc() const
    {
        return crc32c(this, offsetof(LogEntryHeader, hdr_crc), kCrcSeed);
    }
    bool hdrCrcValid() const { return hdr_crc == computeHdrCrc(); }
    void seal() { hdr_crc = computeHdrCrc(); }
};

static_assert(sizeof(LogHeader) == 16);
static_assert(sizeof(LogEntryHeader) == 32);

/**
 * Undo-log manager bound to one pool and its allocator.
 *
 * Concurrency: a pool created with log_slots > 1 carves its log region
 * into equal line-aligned slots, one per worker thread, each with its
 * own independent LogHeader state machine at slotOffset(). Every slot
 * recovers independently, so a crash with several transactions frozen
 * mid-flight (some active, some committing) replays each to its own
 * consistent end state. Slot 0 of a single-slot pool is byte-identical
 * to the classic whole-region log.
 */
class UndoLog
{
  public:
    /** Bind to @p slot of the pool's log region (see slotCount). */
    UndoLog(Pool &pool, PoolAllocator &alloc, uint32_t slot = 0);

    /** Slots the pool's log region is carved into (header `pad`). */
    static uint32_t slotCount(const PoolHeader &h)
    {
        return PoolHeader::decodeLogSlots(h.pad);
    }

    /** Bytes of one slot: the region divided evenly, line-aligned. */
    static uint32_t slotSize(const PoolHeader &h)
    {
        return alignDown(h.log_size / slotCount(h), kLineSize);
    }

    /** Pool offset where @p slot's LogHeader lives. */
    static uint32_t slotOffset(const PoolHeader &h, uint32_t slot)
    {
        return h.log_off + slot * slotSize(h);
    }

    /** Begin a transaction; nesting is not supported. */
    void begin();

    /**
     * Snapshot [off, off+size) into the log and persist the snapshot.
     * Must be called before the range is modified.
     *
     * @throws std::runtime_error if the log region cannot hold the
     *         entry (transaction too large for the pool's log_size);
     *         the log itself is left untouched, so the transaction can
     *         still be aborted cleanly.
     */
    void addRange(uint32_t off, uint32_t size);

    /**
     * Record that @p payload_off was allocated inside this tx.
     * @p payload_bytes is persisted at commit (see
     * LogEntryHeader::alloc_size); pass the object's size so stores
     * into it survive a post-commit crash.
     */
    void logAlloc(uint32_t payload_off, uint32_t payload_bytes = 0);

    /**
     * Record a deferred free of @p payload_off; the block is actually
     * freed during commit, after the commit point is durable.
     */
    void logFree(uint32_t payload_off);

    /** Commit: persist modified ranges, run deferred frees, clear log. */
    void commit();

    /**
     * Commit phase 1: persist every modified range, then make the
     * commit point (kCommitting) durable. After this returns the
     * transaction has logically happened — a crash before phase 2
     * redoes only the deferred frees. Split out for the group-commit
     * coordinator, which batches several transactions' phase-2 work
     * (and their emitted fences) into one window.
     */
    void commitPhase1();

    /** Commit phase 2: deferred frees + log reset (after phase 1). */
    void commitPhase2();

    /** Abort: roll every logged change back, then clear the log. */
    void abort();

    /**
     * Post-crash recovery; call once after reopening the pool. Applies
     * undo (active) or redo of deferred frees (committing) as needed.
     * Validates the on-media log first and throws std::runtime_error
     * (never UB) if the state machine or an entry is corrupt — e.g. a
     * garbage state word, an unknown entry type, or a trailing entry
     * truncated past the log region.
     * @return true if any recovery action was taken.
     */
    bool recover();

    /**
     * Check the on-media log for structural legality: a known state,
     * every published entry in bounds with a known type, targets inside
     * the pool, and the byte count consistent with the entry walk.
     * @throws std::runtime_error describing the first violation.
     */
    void validateLog() const;

    /**
     * Reset the volatile notion of an in-flight transaction after a
     * simulated crash; the on-media state drives recovery from here.
     */
    void markCrashed() { active_ = false; committing_ = false; }

    bool active() const { return active_; }

    /** True between commitPhase1() and commitPhase2(). */
    bool committing() const { return committing_; }

    /** The log-region slot this manager is bound to. */
    uint32_t slot() const { return slot_; }

    uint32_t entryCount() const;

    /** Current on-media state (LogHeader::kIdle/kActive/kCommitting). */
    uint32_t state() const { return readHeader().state; }

    /** Snapshot of one log entry for introspection. */
    struct Record
    {
        uint32_t type;
        uint32_t size;
        uint32_t target_off;
        uint32_t entry_off; ///< pool offset of the entry itself
    };

    /** All current log entries (oldest first). */
    std::vector<Record> records() const;

    /** Pool offset of the most recently appended entry. */
    uint32_t lastEntryOff() const { return lastEntryOff_; }
    /** Total bytes (header + payload) of the most recent entry. */
    uint32_t lastEntryBytes() const { return lastEntryBytes_; }
    /** Pool offset of the log header (for trace emission). */
    uint32_t headerOff() const { return logOff_; }

    /** Bytes still available for log entries. */
    uint32_t remainingCapacity() const;

    /** Bytes of entries currently in the log (a telemetry gauge). */
    uint32_t usedBytes() const { return readHeader().used; }

  private:
    LogHeader readHeader() const;
    void writeState(uint32_t state, uint32_t num, uint32_t used);

    /**
     * Append @p eh (type, target and sizes set) as the next entry: check
     * that it fits, seal it, write and persist it, then publish it in
     * the header. A kData entry's payload is the payload_size bytes now
     * at target_off, sealed by data_crc; other types have no payload.
     * @throws std::runtime_error naming @p api if the log is full, before
     *         anything is read or written.
     */
    void append(const char *api, LogEntryHeader eh);

    /** Throw std::runtime_error: @p entry_bytes does not fit the log. */
    [[noreturn]] void throwExhausted(const char *api, uint32_t entry_bytes,
                                     const LogHeader &h) const;
    LogEntryHeader readEntryHeader(uint32_t entry_off) const;
    uint32_t entriesBase() const;

    /** Walk entries forward, invoking fn(entry_off, header). */
    template <typename Fn> void forEachEntry(Fn &&fn) const;

    /** Restore snapshots in reverse; free ALLOC blocks. */
    void applyUndo();

    /** Execute deferred frees (idempotent per block). */
    void applyDeferredFrees();

    /** Persist every kData target range (commit step one). */
    void persistDataRanges();

    Pool &pool_;
    PoolAllocator &alloc_;
    uint32_t slot_;
    uint32_t logOff_;
    uint32_t logSize_;
    bool active_ = false;
    bool committing_ = false; ///< between commitPhase1 and commitPhase2
    uint32_t lastEntryOff_ = 0;
    uint32_t lastEntryBytes_ = 0;
};

} // namespace poat

#endif // POAT_PMEM_TX_H
