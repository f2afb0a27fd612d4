#include "pmem/scrub.h"

#include <cstring>
#include <vector>

#include "common/bits.h"

namespace poat {

namespace {

/**
 * Repair a replicated structure pair: if exactly one copy is valid,
 * copy it over the other; if both are valid but disagree (a crash
 * between the two line write-backs), the primary wins and the mirror is
 * resynced — the primary write-back is the commit point of an update.
 * @return true if a repair/resync was persisted.
 * @throws MediaError (via @p both_bad) when neither copy is usable.
 */
template <typename T, typename ValidFn, typename BothBadFn>
bool
repairPair(Pool &pool, uint32_t prim_off, uint32_t mirr_off,
           ValidFn &&valid, BothBadFn &&both_bad, ScrubStats &st)
{
    T prim{}, mirr{};
    pool.readRaw(prim_off, &prim, sizeof(T));
    pool.readRaw(mirr_off, &mirr, sizeof(T));
    st.structures_checked += 2;
    pool.checksumCounters().verifies += 2;

    const bool pok = valid(prim);
    const bool mok = valid(mirr);
    if (pok && mok) {
        if (std::memcmp(&prim, &mirr, sizeof(T)) == 0)
            return false;
        pool.writeRaw(mirr_off, &prim, sizeof(T));
        pool.persist(mirr_off, sizeof(T));
        return true;
    }
    st.corruptions_detected += 1;
    if (!pok && !mok)
        both_bad();
    const T &good = pok ? prim : mirr;
    const uint32_t bad_off = pok ? mirr_off : prim_off;
    pool.writeRaw(bad_off, &good, sizeof(T));
    pool.persist(bad_off, sizeof(T));
    return true;
}

void
scrubSuperblock(Pool &pool, ScrubStats &st)
{
    const bool repaired = repairPair<PoolHeader>(
        pool, 0, PoolHeader::kMirrorOff,
        [&](const PoolHeader &h) { return h.valid(pool.size()); },
        [&]() -> void {
            throw MediaError(pool.name(), 0, MediaStructure::Superblock,
                             "both superblock copies are corrupt");
        },
        st);
    if (repaired)
        st.superblock_repairs += 1;
    pool.refreshHeader();
}

void
scrubLogHeaders(Pool &pool, ScrubStats &st)
{
    // One independent header state machine per undo-log slot (one slot
    // per worker thread; single-slot pools have exactly one).
    const PoolHeader &ph = pool.header();
    for (uint32_t s = 0; s < UndoLog::slotCount(ph); ++s) {
        const uint32_t log_off = UndoLog::slotOffset(ph, s);
        const bool repaired = repairPair<LogHeader>(
            pool, log_off, log_off + LogHeader::kMirrorLineOff,
            [](const LogHeader &h) {
                return h.crcValid() && h.state <= LogHeader::kCommitting;
            },
            [&]() -> void {
                throw MediaError(pool.name(), log_off,
                                 MediaStructure::LogHeader,
                                 "both log header copies are corrupt");
            },
            st);
        if (repaired)
            st.log_header_repairs += 1;
    }
}

/** A trusted view of one published log record (post log scrub). */
struct LogRecord
{
    uint32_t type;
    uint32_t target_off;
    uint32_t payload_size;
    uint32_t alloc_size;
};

/**
 * Checksum-walk the published log entries; dead snapshot payloads of a
 * committing transaction are resealed, anything else corrupt is fatal
 * (the snapshot bytes have no replica to repair from).
 * @return the trusted records, for heap-header reconstruction.
 */
void
scrubSlotEntries(Pool &pool, uint32_t log_off, uint32_t log_size,
                 std::vector<LogRecord> &records, ScrubStats &st)
{
    LogHeader lh{};
    pool.readRaw(log_off, &lh, sizeof(lh));
    if (lh.num_entries == 0)
        return;

    const uint32_t end = log_off + log_size;
    uint32_t off = log_off + LogHeader::kEntriesOff;
    for (uint32_t i = 0; i < lh.num_entries; ++i) {
        if (off + sizeof(LogEntryHeader) > end) {
            st.corruptions_detected += 1;
            throw MediaError(pool.name(), off, MediaStructure::LogEntry,
                             "entry " + std::to_string(i) +
                                 " truncated past the log region");
        }
        LogEntryHeader eh{};
        pool.readRaw(off, &eh, sizeof(eh));
        st.structures_checked += 1;
        pool.checksumCounters().verifies += 1;
        if (!eh.hdrCrcValid()) {
            // Without the header the walk cannot even size this entry;
            // and an active transaction's undo needs it verbatim.
            st.corruptions_detected += 1;
            throw MediaError(pool.name(), off, MediaStructure::LogEntry,
                             "entry " + std::to_string(i) +
                                 " header checksum mismatch");
        }
        const uint32_t entry_bytes =
            static_cast<uint32_t>(sizeof(LogEntryHeader)) +
            static_cast<uint32_t>(alignUp(eh.payload_size, 16));
        if (off + entry_bytes > end) {
            st.corruptions_detected += 1;
            throw MediaError(pool.name(), off, MediaStructure::LogEntry,
                             "entry " + std::to_string(i) +
                                 " payload truncated past the log region");
        }
        if (eh.payload_size != 0) {
            std::vector<uint8_t> payload(eh.payload_size);
            pool.readRaw(off + sizeof(LogEntryHeader), payload.data(),
                         payload.size());
            pool.checksumCounters().verifies += 1;
            if (eh.data_crc != crc32c(payload.data(), payload.size(),
                                      LogEntryHeader::kCrcSeed)) {
                st.corruptions_detected += 1;
                if (lh.state == LogHeader::kCommitting &&
                    eh.type == LogEntryHeader::kData) {
                    // The commit point is durable: this snapshot is
                    // dead (recovery only redoes FREEs). Reseal it so
                    // the log validates clean again.
                    eh.data_crc = crc32c(payload.data(), payload.size(),
                                         LogEntryHeader::kCrcSeed);
                    eh.seal();
                    pool.writeRaw(off, &eh, sizeof(eh));
                    pool.persist(off, sizeof(eh));
                    st.log_entry_repairs += 1;
                } else {
                    throw MediaError(
                        pool.name(), off, MediaStructure::LogEntry,
                        "entry " + std::to_string(i) +
                            " snapshot payload checksum mismatch "
                            "(undo data unrecoverable)");
                }
            }
        }
        records.push_back(
            {eh.type, eh.target_off, eh.payload_size, eh.alloc_size});
        off += entry_bytes;
    }
}

/**
 * Walk every log slot's published entries and merge their trusted
 * records: a multi-slot pool crashed mid-flight can hold several
 * independent transactions' records, all of which prove liveness for
 * heap-header reconstruction.
 */
std::vector<LogRecord>
scrubLogEntries(Pool &pool, ScrubStats &st)
{
    std::vector<LogRecord> records;
    const PoolHeader &ph = pool.header();
    for (uint32_t s = 0; s < UndoLog::slotCount(ph); ++s) {
        scrubSlotEntries(pool, UndoLog::slotOffset(ph, s),
                         UndoLog::slotSize(ph), records, st);
    }
    return records;
}

/**
 * Does some published log record prove the block at @p block_off (with
 * payload [block_off+16, block_off+size)) was live at the crash? An
 * ALLOC or FREE record names the payload directly; a DATA snapshot of
 * any range inside the payload proves a live object too.
 */
bool
provenAllocated(const std::vector<LogRecord> &records, uint32_t block_off,
                uint32_t size)
{
    const uint32_t payload = block_off +
        static_cast<uint32_t>(sizeof(BlockHeader));
    const uint32_t payload_end = block_off + size;
    for (const LogRecord &r : records) {
        if (r.target_off == payload)
            return true;
        if (r.type == LogEntryHeader::kData && r.target_off >= payload &&
            static_cast<uint64_t>(r.target_off) + r.payload_size <=
                payload_end) {
            return true;
        }
    }
    return false;
}

void
scrubHeap(Pool &pool, const std::vector<LogRecord> &records,
          ScrubStats &st)
{
    const PoolHeader &ph = pool.header();
    const uint32_t heap_off = ph.heap_off;
    const uint32_t heap_end = ph.heap_off + ph.heap_size;

    // A heap that was never formatted (no allocator ever attached, and
    // no root published) is all zeros: nothing to scrub, the allocator
    // will format it on attach.
    {
        BlockHeader first{};
        pool.readRaw(heap_off, &first, sizeof(first));
        if (ph.root_off == 0 && first.size == 0 && first.prev_size == 0 &&
            first.flags == 0 && first.crc == 0) {
            return;
        }
    }

    uint32_t off = heap_off;
    uint32_t prev_size = 0;
    bool prev_allocated = false;
    while (off < heap_end) {
        BlockHeader h{};
        pool.readRaw(off, &h, sizeof(h));
        st.structures_checked += 1;
        pool.checksumCounters().verifies += 1;
        const bool ok = h.crcValid() && h.size >= PoolAllocator::kMinBlock &&
            off + static_cast<uint64_t>(h.size) <= heap_end;
        if (!ok) {
            st.corruptions_detected += 1;
            // Extent reconstruction: the next block's header back-links
            // to us via prev_size, so scan forward for a valid header
            // whose back-link lands exactly here. Failing that, accept
            // a back-link that spans the corrupt block and lands on the
            // PREVIOUS block's start: that successor last saw a single
            // block covering both, i.e. the corrupt header is a
            // remainder an alloc split freshly carved and the
            // successor's prev_size update has not persisted yet. No
            // match of either kind means this was the last block.
            const uint32_t prev_off = off - prev_size;
            uint32_t size = 0;
            bool stale_span = false;
            for (int pass = 0; pass < 2 && size == 0; ++pass) {
                const uint32_t link_base = pass == 0 ? off : prev_off;
                PoolAllocator::scanHeaderSlots(
                    pool, off + PoolAllocator::kMinBlock, heap_end,
                    [&](uint32_t cand, const BlockHeader &next) {
                        if (cand + static_cast<uint64_t>(next.size) >
                                heap_end ||
                            next.prev_size != cand - link_base)
                            return false;
                        size = cand - off;
                        stale_span = pass == 1;
                        return true;
                    });
            }
            if (size == 0 && heap_end - off >= PoolAllocator::kMinBlock)
                size = heap_end - off;
            if (size == 0) {
                throw MediaError(pool.name(), off,
                                 MediaStructure::BlockHeader,
                                 "block header checksum mismatch and no "
                                 "reconstructible extent");
            }
            // Liveness: three independent proofs, strongest first.
            // (1) The crc is word-atomic and seals one version's
            //     (size, flags): if it validates the reconstructed
            //     extent under one flags candidate, that version's
            //     whole sealed word is recovered.
            // (2) The observed (size, flags) word is itself atomic —
            //     a torn write interleaves versions, it does not
            //     invent words — so if its size agrees with the
            //     reconstructed extent, its flags are that version's
            //     truth.
            // (3) A published log record naming the payload proves a
            //     live allocation.
            // Anything else diagnoses instead of guessing, because a
            // wrong guess is a silent leak or a silent data loss.
            bool have_flags = false;
            uint32_t flags = 0;
            for (uint32_t cand : {BlockHeader::kAllocated, 0u}) {
                BlockHeader t{};
                t.size = size;
                t.flags = cand;
                pool.checksumCounters().verifies += 1;
                if (h.crc == t.computeCrc()) {
                    flags = cand;
                    have_flags = true;
                    break;
                }
            }
            if (!have_flags && h.size == size) {
                flags = h.flags & BlockHeader::kAllocated;
                have_flags = true;
            }
            if (!have_flags && provenAllocated(records, off, size)) {
                flags = BlockHeader::kAllocated;
                have_flags = true;
            }
            // (4) Two signatures of an interrupted alloc split, whose
            //     freshly carved remainder is the one header rules 1-3
            //     cannot speak for (its old bytes never held a header):
            //     a stale spanning back-link — the successor last saw a
            //     single block covering predecessor + this one, and
            //     blocks only shrink when a free block is carved into
            //     an allocated head plus a free remainder — or an
            //     all-zero sealed word, which is the old image of
            //     never-written space (a torn write interleaves old and
            //     new words; a live block's header word is never zero).
            //     Either way the predecessor must be the freshly
            //     allocated head, and the remainder is rebuilt free.
            if (!have_flags &&
                (stale_span || (h.size == 0 && h.flags == 0)) &&
                off > heap_off && prev_allocated) {
                flags = 0;
                have_flags = true;
            }
            if (!have_flags) {
                throw MediaError(
                    pool.name(), off, MediaStructure::BlockHeader,
                    "block header checksum mismatch (extent " +
                        std::to_string(size) +
                        " bytes recovered, but neither the torn "
                        "header's words nor any log record proves "
                        "the block's liveness)");
            }
            BlockHeader rebuilt{};
            rebuilt.size = size;
            rebuilt.prev_size = prev_size;
            rebuilt.flags = flags;
            rebuilt.seal();
            pool.checksumCounters().block_header_updates += 1;
            pool.writeRaw(off, &rebuilt, sizeof(rebuilt));
            pool.persist(off, sizeof(rebuilt));
            st.block_header_repairs += 1;
            h = rebuilt;
        } else if (h.prev_size != prev_size) {
            // prev_size lives outside the sealed word on purpose: a
            // torn neighbour update legitimately leaves it stale while
            // the header stays valid. The walk knows the truth.
            h.prev_size = prev_size;
            h.seal();
            pool.checksumCounters().block_header_updates += 1;
            pool.writeRaw(off, &h, sizeof(h));
            pool.persist(off, sizeof(h));
            st.block_header_repairs += 1;
        }
        prev_size = h.size;
        prev_allocated = h.allocated();
        off += h.size;
    }
    if (off != heap_end) {
        throw MediaError(pool.name(), off, MediaStructure::BlockHeader,
                         "heap block chain overruns the region");
    }
}

} // namespace

ScrubStats
scrubPool(Pool &pool)
{
    ScrubStats st;
    scrubSuperblock(pool, st);
    scrubLogHeaders(pool, st);
    const std::vector<LogRecord> records = scrubLogEntries(pool, st);
    scrubHeap(pool, records, st);
    return st;
}

} // namespace poat
