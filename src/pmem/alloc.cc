#include "pmem/alloc.h"

#include "common/bits.h"

namespace poat {

PoolAllocator::PoolAllocator(Pool &pool)
    : pool_(pool),
      heapOff_(pool.header().heap_off),
      heapSize_(pool.header().heap_size)
{
    BlockHeader first{};
    pool_.readRaw(heapOff_, &first, sizeof(first));
    if (first.size == 0 && first.prev_size == 0 && first.flags == 0 &&
        first.crc == 0) {
        // Fresh heap: one giant free block spanning the whole region.
        BlockHeader h{};
        h.size = heapSize_;
        h.prev_size = 0;
        h.flags = 0;
        writeHeader(heapOff_, h);
        pool_.persist(heapOff_, sizeof(h));
    }
    rebuildFreeList();
}

BlockHeader
PoolAllocator::readHeader(uint32_t block_off) const
{
    BlockHeader h{};
    pool_.readRaw(block_off, &h, sizeof(h));
    if (!h.crcValid()) {
        // Checksum-detected corruption, never UB: recovery paths scrub
        // before attaching, so reaching this means an unrepaired fault.
        throw MediaError(pool_.name(), block_off,
                         MediaStructure::BlockHeader,
                         "block header checksum mismatch");
    }
    return h;
}

void
PoolAllocator::writeHeader(uint32_t block_off, const BlockHeader &h)
{
    BlockHeader sealed = h;
    sealed.seal();
    pool_.checksumCounters().block_header_updates += 1;
    pool_.checksumCounters().bytes_summed += offsetof(BlockHeader, prev_size);
    pool_.writeRaw(block_off, &sealed, sizeof(sealed));
    touched_.push_back(block_off);
}

void
PoolAllocator::poisonHeader(uint32_t block_off)
{
    const uint8_t zeros[sizeof(BlockHeader)] = {};
    pool_.writeRaw(block_off, zeros, sizeof(zeros));
    touched_.push_back(block_off);
}

uint32_t
PoolAllocator::heapEnd() const
{
    return heapOff_ + heapSize_;
}

void
PoolAllocator::rebuildFreeList()
{
    // The scan is self-healing: a crash can leave torn *linkage* (a
    // stale prev_size, or two adjacent free blocks whose merge did not
    // reach the media) even though each block header itself is written
    // atomically at persist points. Both conditions are repaired here,
    // mirroring the recovery scan real persistent allocators perform on
    // pool open. Torn block *extents* cannot occur because a block's
    // own header is the commit point of alloc/free.
    freeList_.clear();
    uint32_t off = heapOff_;
    uint32_t prev_size = 0;
    uint32_t prev_free_off = 0; // offset of previous block if free, else 0
    while (off < heapEnd()) {
        BlockHeader h = readHeader(off);
        if (h.size < kMinBlock || off + h.size > heapEnd()) {
            throw MediaError(pool_.name(), off,
                             MediaStructure::BlockHeader,
                             "bad block extent");
        }
        if (h.prev_size != prev_size) {
            h.prev_size = prev_size;
            h.seal();
            pool_.writeRaw(off, &h, sizeof(h));
            pool_.persist(off, sizeof(h));
        }
        if (!h.allocated()) {
            if (prev_free_off != 0) {
                // Merge with the previous free block (crash-interrupted
                // coalesce) and restart the scan position there.
                BlockHeader prev = readHeader(prev_free_off);
                prev.size += h.size;
                prev.seal();
                pool_.writeRaw(prev_free_off, &prev, sizeof(prev));
                pool_.persist(prev_free_off, sizeof(prev));
                const uint8_t zeros[sizeof(BlockHeader)] = {};
                pool_.writeRaw(off, zeros, sizeof(zeros));
                pool_.persist(off, sizeof(BlockHeader));
                freeList_[prev_free_off] = prev.size;
                prev_size = prev.size;
                off = prev_free_off + prev.size;
                continue;
            }
            freeList_.emplace(off, h.size);
            prev_free_off = off;
        } else {
            prev_free_off = 0;
        }
        prev_size = h.size;
        off += h.size;
    }
    if (off != heapEnd()) {
        throw MediaError(pool_.name(), off, MediaStructure::BlockHeader,
                         "blocks overrun the heap region");
    }

    // Hygiene sweep: no crc-valid header may survive inside a free
    // extent. free() poisons absorbed headers itself, but a crash
    // between the merged-header fence and the poison fence leaves the
    // stale bytes behind; scrub's extent reconstruction could later
    // mistake them for a live block (see poisonHeader). Idempotent —
    // a clean image has nothing to poison. The scan reads each resident
    // page of an extent once and computes a crc only for a slot that
    // is not all zero, so a fresh heap costs one page and a freed
    // region costs its written slots.
    for (const auto &[free_off, free_size] : freeList_) {
        scanHeaderSlots(pool_, free_off + kAlign, free_off + free_size,
                        [this](uint32_t stale, const BlockHeader &) {
                            const uint8_t zeros[sizeof(BlockHeader)] = {};
                            pool_.writeRaw(stale, zeros, sizeof(zeros));
                            pool_.persist(stale, sizeof(BlockHeader));
                            return false; // sweep the whole extent
                        });
    }
}

void
PoolAllocator::persistTouched()
{
    for (uint32_t t : touched_)
        pool_.persist(t, sizeof(BlockHeader));
}

uint32_t
PoolAllocator::alloc(uint32_t size, bool persist_now)
{
    touched_.clear();
    const uint32_t need = static_cast<uint32_t>(
        alignUp(size + sizeof(BlockHeader), kAlign));

    // First fit in address order.
    for (auto it = freeList_.begin(); it != freeList_.end(); ++it) {
        const uint32_t block_off = it->first;
        const uint32_t block_size = it->second;
        if (block_size < need)
            continue;

        BlockHeader h = readHeader(block_off);
        const uint32_t remainder = block_size - need;
        freeList_.erase(it);

        if (remainder >= kMinBlock) {
            // Split: new free block follows the allocated one.
            const uint32_t rem_off = block_off + need;
            BlockHeader rem{};
            rem.size = remainder;
            rem.prev_size = need;
            rem.flags = 0;
            writeHeader(rem_off, rem);
            freeList_.emplace(rem_off, remainder);

            // The block after the remainder keeps its size but its
            // prev_size now names the remainder.
            const uint32_t next_off = block_off + block_size;
            if (next_off < heapEnd()) {
                BlockHeader next = readHeader(next_off);
                next.prev_size = remainder;
                writeHeader(next_off, next);
            }
            h.size = need;
        }
        h.flags |= BlockHeader::kAllocated;
        writeHeader(block_off, h);

        if (persist_now)
            persistTouched();
        return block_off + sizeof(BlockHeader);
    }
    return 0; // exhausted
}

void
PoolAllocator::free(uint32_t payload_off)
{
    touched_.clear();
    POAT_ASSERT(payload_off >= heapOff_ + sizeof(BlockHeader) &&
                    payload_off < heapEnd(),
                "pfree of offset outside heap");
    uint32_t block_off = payload_off - sizeof(BlockHeader);
    BlockHeader h = readHeader(block_off);
    POAT_ASSERT(h.allocated(), "double pfree");

    h.flags &= ~BlockHeader::kAllocated;

    // Coalesce with the physically next block if it is free.
    uint32_t next_off = block_off + h.size;
    uint32_t absorbed_next = 0;
    if (next_off < heapEnd()) {
        BlockHeader next = readHeader(next_off);
        if (!next.allocated()) {
            freeList_.erase(next_off);
            absorbed_next = next_off;
            h.size += next.size;
            next_off = block_off + h.size;
        }
    }

    // Coalesce with the physically previous block if it is free.
    uint32_t absorbed_self = 0;
    if (h.prev_size != 0) {
        const uint32_t prev_off = block_off - h.prev_size;
        BlockHeader prev = readHeader(prev_off);
        if (!prev.allocated()) {
            freeList_.erase(prev_off);
            prev.size += h.size;
            h = prev;
            absorbed_self = block_off;
            block_off = prev_off;
        }
    }

    writeHeader(block_off, h);
    freeList_.emplace(block_off, h.size);
    // Headers the merge absorbed die AFTER the merged header that
    // covers them is queued (see poisonHeader on the ordering).
    if (absorbed_next != 0)
        poisonHeader(absorbed_next);
    if (absorbed_self != 0)
        poisonHeader(absorbed_self);

    // The block following the merged region must name it in prev_size.
    if (next_off < heapEnd()) {
        BlockHeader next = readHeader(next_off);
        next.prev_size = h.size;
        writeHeader(next_off, next);
    }

    for (uint32_t t : touched_)
        pool_.persist(t, sizeof(BlockHeader));
}

uint32_t
PoolAllocator::blockPayloadSize(uint32_t payload_off) const
{
    const BlockHeader h = readHeader(payload_off - sizeof(BlockHeader));
    return h.size - sizeof(BlockHeader);
}

bool
PoolAllocator::isAllocated(uint32_t payload_off) const
{
    if (payload_off < heapOff_ + sizeof(BlockHeader) ||
        payload_off >= heapEnd()) {
        return false;
    }
    const uint32_t block_off =
        payload_off - static_cast<uint32_t>(sizeof(BlockHeader));
    BlockHeader h{};
    pool_.readRaw(block_off, &h, sizeof(h));
    if (!h.crcValid() || !h.allocated())
        return false;
    // A header can read as valid-and-allocated yet be stale: freeing a
    // block that coalesces into its *previous* neighbour rewrites only
    // the surviving merged header, leaving the absorbed block's old
    // bytes inside the free extent. The free list is the authority on
    // free extents, so an offset one covers is not a live block —
    // recovery depends on this when it asks whether a logged alloc or
    // free already took effect before re-applying it.
    auto it = freeList_.upper_bound(block_off);
    if (it != freeList_.begin()) {
        --it;
        if (block_off < it->first + it->second)
            return false;
    }
    return true;
}

uint64_t
PoolAllocator::freeBytes() const
{
    uint64_t total = 0;
    for (const auto &kv : freeList_)
        total += kv.second;
    return total;
}

uint64_t
PoolAllocator::usedBytes() const
{
    return heapSize_ - freeBytes();
}

bool
PoolAllocator::validate() const
{
    uint32_t off = heapOff_;
    uint32_t prev_size = 0;
    bool prev_free = false;
    while (off < heapEnd()) {
        BlockHeader h{};
        pool_.readRaw(off, &h, sizeof(h));
        if (!h.crcValid())
            return false;
        if (h.prev_size != prev_size)
            return false;
        if (h.size < kMinBlock)
            return false;
        if (off + h.size > heapEnd())
            return false;
        const bool is_free = !h.allocated();
        if (is_free && prev_free)
            return false; // adjacent free blocks must have coalesced
        if (is_free != (freeList_.count(off) != 0))
            return false; // volatile free list out of sync
        prev_free = is_free;
        prev_size = h.size;
        off += h.size;
    }
    return off == heapEnd();
}

std::vector<uint32_t>
PoolAllocator::allocatedPayloads() const
{
    std::vector<uint32_t> out;
    uint32_t off = heapOff_;
    while (off < heapEnd()) {
        const BlockHeader h = readHeader(off);
        if (h.allocated())
            out.push_back(off + static_cast<uint32_t>(sizeof(BlockHeader)));
        off += h.size;
    }
    return out;
}

} // namespace poat
