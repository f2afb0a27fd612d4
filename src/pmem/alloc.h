/**
 * @file
 * In-pool persistent heap allocator (pmalloc/pfree substrate).
 *
 * Block headers live inside the pool so the heap survives reopen and
 * crash; the free list is volatile and rebuilt by a header scan when the
 * allocator is attached, mirroring how NVML reconstructs runtime state
 * on pool open. Blocks are 16-byte aligned, carry boundary information
 * (prev_size) for O(1) physical coalescing, and are first-fit allocated.
 *
 * Crash-atomicity of an individual allocation is the transaction layer's
 * job: tx_pmalloc writes an ALLOC undo record before the allocation is
 * made durable, so recovery can return a half-visible block. A non-
 * transactional pmalloc interrupted by a crash may leak its block, the
 * same contract NVML's non-transactional allocations have.
 */
#ifndef POAT_PMEM_ALLOC_H
#define POAT_PMEM_ALLOC_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "pmem/pool.h"

namespace poat {

/**
 * On-media header preceding every heap block.
 *
 * The trailing word doubles as discriminator and integrity check: it is
 * the crc32c of the sealed fields seeded with kMagic, so a header that
 * was never written (fresh heap: all zeros) and a header a media fault
 * touched both fail validation — there is no way to forge a valid
 * header by luck short of a 2^-32 collision. For an allocated block
 * this is the paper-level "object header" checksum; for a free block it
 * protects the allocator's own metadata.
 *
 * Field order is load-bearing for torn-write recovery. Media persists
 * whole 8-byte words even when a cache line tears, so the header's two
 * words are each internally consistent with SOME version of the header:
 *
 *  - word 0 (size, flags) is the sealed semantic state — an atomic
 *    (extent, liveness) pair from one version;
 *  - word 1 (prev_size, crc) carries the checksum plus the back-link,
 *    which is derivable redundancy: the forward chain walk can always
 *    recompute prev_size, so it is deliberately OUTSIDE the checksum
 *    and scrub/rescan repair a stale value silently.
 *
 * Consequence: a neighbour update that only rewrites prev_size (an
 * alloc split or free coalesce touching the block after the changed
 * region) never changes word 0 or the crc, so a torn write-back of that
 * update cannot invalidate the header — the one crash state that used
 * to be unrecoverable, because nothing else records a bystander block's
 * liveness. When (size, flags) do change, a tear interleaves two
 * versions and scrubHeap recovers one of them: the observed crc seals
 * exactly one version's word 0, and the observed word 0 IS a version's
 * truth whenever its size matches the reconstructed extent.
 */
struct BlockHeader
{
    static constexpr uint32_t kMagic = 0xb10cb10c; ///< crc seed
    static constexpr uint32_t kAllocated = 1u << 0;

    uint32_t size;      ///< total block bytes including this header
    uint32_t flags;
    uint32_t prev_size; ///< total bytes of the physically previous block
    uint32_t crc;       ///< crc32c(size, flags; seed kMagic)

    bool allocated() const { return flags & kAllocated; }

    uint32_t
    computeCrc() const
    {
        // Word 0 only: prev_size is unsealed (see the class comment).
        return crc32c(this, offsetof(BlockHeader, prev_size), kMagic);
    }
    bool crcValid() const { return crc == computeCrc(); }
    void seal() { crc = computeCrc(); }
};

static_assert(sizeof(BlockHeader) == 16);

/** First-fit allocator over one pool's heap region. */
class PoolAllocator
{
  public:
    static constexpr uint32_t kAlign = 16;
    static constexpr uint32_t kMinBlock = sizeof(BlockHeader) + kAlign;

    /**
     * Attach to @p pool, scanning headers to rebuild the free list. A
     * fresh heap (first header all zeros) is formatted as one free
     * block; a checksum-invalid header anywhere raises MediaError —
     * recovery paths run the scrub pass first so this never fires on a
     * repairable image.
     */
    explicit PoolAllocator(Pool &pool);

    /**
     * Allocate @p size payload bytes.
     *
     * With @p persist_now false the headers are written but NOT made
     * durable; the caller must call persistTouched() once its undo
     * record for the allocation is durable, or the ordering contract
     * above (log entry before durable allocation) is broken.
     *
     * @return payload offset within the pool, or 0 on exhaustion.
     */
    uint32_t alloc(uint32_t size, bool persist_now = true);

    /**
     * Visit the crc-valid BlockHeaders at the kAlign-aligned slots of
     * [@p begin, @p end) in @p pool's working image, in ascending
     * order: @p visit(slot, header) returns true to stop the scan, and
     * may rewrite the slot it is handed. Each resident page of the
     * range is read once through its page view; an absent page is
     * skipped whole, and an all-zero slot before its crc is computed.
     * Both skips are exact: an absent page reads as zero, an all-zero
     * BlockHeader is not crc-valid, and an aligned header never
     * straddles a page. An unaligned @p begin, which only a forged
     * block size can produce, starts at the next slot.
     */
    template <typename Visit>
    static void scanHeaderSlots(const Pool &pool, uint32_t begin,
                                uint32_t end, Visit &&visit);

    /** Persist every header the last alloc/free wrote. */
    void persistTouched();

    /** Free the block whose payload begins at @p payload_off. */
    void free(uint32_t payload_off);

    /** Total payload capacity of the block at @p payload_off. */
    uint32_t blockPayloadSize(uint32_t payload_off) const;

    /**
     * True iff @p payload_off names a live allocated block. Offsets
     * inside a free-list extent return false even when stale absorbed-
     * header bytes there still read as allocated — coalescing rewrites
     * only the surviving header, and recovery's redo/rollback decisions
     * must not trust the leftovers.
     */
    bool isAllocated(uint32_t payload_off) const;

    /// @name Introspection for tests and the runtime cost model
    /// @{
    uint64_t freeBytes() const;
    uint64_t usedBytes() const;
    size_t freeBlockCount() const { return freeList_.size(); }

    /**
     * Pool offsets whose headers the last alloc/free wrote; the runtime
     * replays these as persistent stores in the instruction trace.
     */
    const std::vector<uint32_t> &lastTouched() const { return touched_; }

    /**
     * Re-scan headers and rebuild the volatile free list; required after
     * a simulated crash reverted the working image.
     */
    void rescan() { rebuildFreeList(); }

    /**
     * Walk the whole heap checking header-chain invariants (magic
     * values, size chaining, no two adjacent free blocks).
     * @return true iff the heap is consistent.
     */
    bool validate() const;

    /**
     * Payload offsets of every allocated block, in heap order. The
     * crash-point explorer compares this against the set of offsets a
     * workload can still reach to account for leaks and double uses.
     */
    std::vector<uint32_t> allocatedPayloads() const;
    /// @}

  private:
    BlockHeader readHeader(uint32_t block_off) const;
    void writeHeader(uint32_t block_off, const BlockHeader &h);

    /**
     * Zero a dead header absorbed by a coalesce. A crc-valid header
     * left inside a free extent is a landmine: if the covering block's
     * header is later torn by a partial fence drain, scrub's extent
     * reconstruction can mistake the stale bytes for a live block and
     * resurrect an allocation no log record covers — a permanent leak.
     * Zeroed bytes instead read as never-written space, which the
     * scrub proof ladder already classifies correctly. Must be queued
     * on touched_ AFTER the merged header that covers the position, so
     * a crash between the two fences only ever exposes the stale
     * header under a still-valid covering extent (swept on the next
     * pool open by rebuildFreeList).
     */
    void poisonHeader(uint32_t block_off);
    void rebuildFreeList();
    uint32_t heapEnd() const;

    Pool &pool_;
    uint32_t heapOff_;
    uint32_t heapSize_;
    std::map<uint32_t, uint32_t> freeList_; ///< block off -> total size
    std::vector<uint32_t> touched_;
};

template <typename Visit>
void
PoolAllocator::scanHeaderSlots(const Pool &pool, uint32_t begin,
                               uint32_t end, Visit &&visit)
{
    static_assert(kPageSize % kAlign == 0);
    for (uint64_t slot = alignUp(begin, kAlign);
         slot + sizeof(BlockHeader) <= end;) {
        const uint64_t next_page = alignUp(slot + 1, kPageSize);
        const uint64_t page_end = std::min<uint64_t>(next_page, end);
        const uint8_t *page =
            pool.residentPage(static_cast<uint32_t>(slot));
        for (; page != nullptr && slot + sizeof(BlockHeader) <= page_end;
             slot += kAlign) {
            BlockHeader h;
            std::memcpy(&h, page + slot % kPageSize, sizeof(h));
            if ((h.size | h.flags | h.prev_size | h.crc) == 0)
                continue;
            if (h.crcValid() && visit(static_cast<uint32_t>(slot), h))
                return;
        }
        slot = next_page;
    }
}

} // namespace poat

#endif // POAT_PMEM_ALLOC_H
