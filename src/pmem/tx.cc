#include "pmem/tx.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.h"

namespace poat {

UndoLog::UndoLog(Pool &pool, PoolAllocator &alloc, uint32_t slot)
    : pool_(pool), alloc_(alloc), slot_(slot),
      logOff_(slotOffset(pool.header(), slot)),
      logSize_(slotSize(pool.header()))
{
    POAT_ASSERT(slot < slotCount(pool.header()),
                "undo-log slot out of range for this pool");
    POAT_ASSERT(logSize_ >=
                    LogHeader::kEntriesOff + sizeof(LogEntryHeader),
                "log region too small");
}

LogHeader
UndoLog::readHeader() const
{
    LogHeader h{};
    pool_.readRaw(logOff_, &h, sizeof(h));
    return h;
}

void
UndoLog::writeState(uint32_t state, uint32_t num, uint32_t used)
{
    LogHeader h{state, num, used, 0};
    h.seal();
    pool_.checksumCounters().log_header_updates += 1;
    pool_.checksumCounters().bytes_summed += offsetof(LogHeader, crc);
    // Primary first (the commit point), then the mirror, each on its
    // own 64-byte line so one media fault cannot take out both.
    pool_.writeRaw(logOff_, &h, sizeof(h));
    pool_.persist(logOff_, sizeof(h));
    pool_.writeRaw(logOff_ + LogHeader::kMirrorLineOff, &h, sizeof(h));
    pool_.persist(logOff_ + LogHeader::kMirrorLineOff, sizeof(h));
}

uint32_t
UndoLog::entriesBase() const
{
    return logOff_ + LogHeader::kEntriesOff;
}

void
UndoLog::throwExhausted(const char *api, uint32_t entry_bytes,
                        const LogHeader &h) const
{
    // A full log is a caller-visible resource limit, not a library bug:
    // report it as an exception the transaction can abort on, with
    // enough context to size the pool's log region correctly.
    throw std::runtime_error(
        std::string("undo log exhausted in ") + api + ": pool '" +
        pool_.name() + "' log_size=" + std::to_string(logSize_) +
        " used=" + std::to_string(LogHeader::kEntriesOff + h.used) +
        " requested=" + std::to_string(entry_bytes) +
        " bytes; the transaction is too large for this log region");
}

LogEntryHeader
UndoLog::readEntryHeader(uint32_t entry_off) const
{
    LogEntryHeader eh{};
    pool_.readRaw(entry_off, &eh, sizeof(eh));
    return eh;
}

template <typename Fn>
void
UndoLog::forEachEntry(Fn &&fn) const
{
    const LogHeader h = readHeader();
    uint32_t off = entriesBase();
    for (uint32_t i = 0; i < h.num_entries; ++i) {
        const LogEntryHeader eh = readEntryHeader(off);
        fn(off, eh);
        off += sizeof(LogEntryHeader) +
            static_cast<uint32_t>(alignUp(eh.payload_size, 16));
    }
}

void
UndoLog::begin()
{
    POAT_ASSERT(!active_, "nested transactions are not supported");
    writeState(LogHeader::kActive, 0, 0);
    active_ = true;
}

void
UndoLog::append(const char *api, LogEntryHeader eh)
{
    const LogHeader h = readHeader();
    const uint32_t entry_bytes = sizeof(LogEntryHeader) +
        static_cast<uint32_t>(alignUp(eh.payload_size, 16));
    const uint32_t entry_off = entriesBase() + h.used;
    if (entry_off + entry_bytes > logOff_ + logSize_)
        throwExhausted(api, entry_bytes, h);

    // Write the entry and make it durable *before* publishing it via
    // the entry count; a torn entry is then never observed.
    std::vector<uint8_t> snap(eh.payload_size);
    if (eh.type == LogEntryHeader::kData) {
        pool_.readRaw(eh.target_off, snap.data(), snap.size());
        eh.data_crc = crc32c(snap.data(), snap.size(),
                             LogEntryHeader::kCrcSeed);
    }
    eh.seal();
    pool_.checksumCounters().log_entry_updates += 1;
    pool_.checksumCounters().bytes_summed +=
        eh.payload_size + offsetof(LogEntryHeader, hdr_crc);
    pool_.writeRaw(entry_off, &eh, sizeof(eh));
    if (!snap.empty())
        pool_.writeRaw(entry_off + sizeof(eh), snap.data(), snap.size());
    pool_.persist(entry_off, entry_bytes);
    lastEntryOff_ = entry_off;
    lastEntryBytes_ = entry_bytes;

    writeState(LogHeader::kActive, h.num_entries + 1, h.used + entry_bytes);
}

void
UndoLog::addRange(uint32_t off, uint32_t size)
{
    POAT_ASSERT(active_, "tx_add_range outside a transaction");
    POAT_ASSERT(size > 0, "tx_add_range of empty range");
    LogEntryHeader eh{};
    eh.type = LogEntryHeader::kData;
    eh.payload_size = size;
    eh.target_off = off;
    append("tx_add_range", eh);
}

void
UndoLog::logAlloc(uint32_t payload_off, uint32_t payload_bytes)
{
    POAT_ASSERT(active_, "tx_pmalloc outside a transaction");
    LogEntryHeader eh{};
    eh.type = LogEntryHeader::kAlloc;
    eh.target_off = payload_off;
    eh.alloc_size = payload_bytes;
    append("tx_pmalloc", eh);
}

void
UndoLog::logFree(uint32_t payload_off)
{
    POAT_ASSERT(active_, "tx_pfree outside a transaction");
    LogEntryHeader eh{};
    eh.type = LogEntryHeader::kFree;
    eh.target_off = payload_off;
    append("tx_pfree", eh);
}

std::vector<UndoLog::Record>
UndoLog::records() const
{
    std::vector<Record> out;
    forEachEntry([&out](uint32_t off, const LogEntryHeader &eh) {
        out.push_back({eh.type, eh.payload_size, eh.target_off, off});
    });
    return out;
}

void
UndoLog::persistDataRanges()
{
    forEachEntry([this](uint32_t, const LogEntryHeader &eh) {
        if (eh.type == LogEntryHeader::kData)
            pool_.persist(eh.target_off, eh.payload_size);
        else if (eh.type == LogEntryHeader::kAlloc && eh.alloc_size != 0)
            pool_.persist(eh.target_off, eh.alloc_size);
    });
}

void
UndoLog::applyDeferredFrees()
{
    forEachEntry([this](uint32_t, const LogEntryHeader &eh) {
        if (eh.type == LogEntryHeader::kFree &&
            alloc_.isAllocated(eh.target_off)) {
            alloc_.free(eh.target_off);
        }
    });
}

void
UndoLog::applyUndo()
{
    // Collect entry offsets so snapshots restore in reverse order: the
    // oldest snapshot of a twice-logged range must win.
    std::vector<std::pair<uint32_t, LogEntryHeader>> entries;
    forEachEntry([&entries](uint32_t off, const LogEntryHeader &eh) {
        entries.emplace_back(off, eh);
    });
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        const auto &[off, eh] = *it;
        switch (eh.type) {
          case LogEntryHeader::kData: {
            std::vector<uint8_t> snap(eh.payload_size);
            pool_.readRaw(off + sizeof(LogEntryHeader), snap.data(),
                          eh.payload_size);
            pool_.writeRaw(eh.target_off, snap.data(), eh.payload_size);
            pool_.persist(eh.target_off, eh.payload_size);
            break;
          }
          case LogEntryHeader::kAlloc:
            if (alloc_.isAllocated(eh.target_off))
                alloc_.free(eh.target_off);
            break;
          case LogEntryHeader::kFree:
            break; // the free was deferred and never happened
          default:
            POAT_PANIC("corrupt undo log entry type");
        }
    }
}

void
UndoLog::commitPhase1()
{
    POAT_ASSERT(active_ && !committing_,
                "commitPhase1 outside a transaction");
    const LogHeader h = readHeader();

    // Phase 1: make every modified range durable while the undo log is
    // still valid; a crash here rolls the whole transaction back.
    persistDataRanges();

    // Commit point: after this is durable the transaction has happened.
    writeState(LogHeader::kCommitting, h.num_entries, h.used);
    committing_ = true;
}

void
UndoLog::commitPhase2()
{
    POAT_ASSERT(active_ && committing_,
                "commitPhase2 before commitPhase1");

    // Phase 2: deferred frees; idempotent, so recovery can redo them.
    applyDeferredFrees();

    writeState(LogHeader::kIdle, 0, 0);
    active_ = false;
    committing_ = false;
}

void
UndoLog::commit()
{
    POAT_ASSERT(active_, "tx_end outside a transaction");
    commitPhase1();
    commitPhase2();
}

void
UndoLog::abort()
{
    POAT_ASSERT(active_ && !committing_, "abort outside a transaction");
    applyUndo();
    writeState(LogHeader::kIdle, 0, 0);
    active_ = false;
}

void
UndoLog::validateLog() const
{
    const LogHeader h = readHeader();
    auto corrupt = [&](const std::string &what) {
        throw std::runtime_error(
            "corrupt undo log in pool '" + pool_.name() + "': " + what +
            " (state=" + std::to_string(h.state) +
            " num_entries=" + std::to_string(h.num_entries) +
            " used=" + std::to_string(h.used) + ")");
    };

    if (h.state != LogHeader::kIdle && h.state != LogHeader::kActive &&
        h.state != LogHeader::kCommitting) {
        corrupt("unknown state machine value");
    }
    pool_.checksumCounters().verifies += 1;
    if (!h.crcValid())
        corrupt("header checksum mismatch");
    const uint32_t end = logOff_ + logSize_;
    uint32_t off = entriesBase();
    for (uint32_t i = 0; i < h.num_entries; ++i) {
        if (off + sizeof(LogEntryHeader) > end)
            corrupt("entry " + std::to_string(i) +
                    " header truncated past the log region");
        const LogEntryHeader eh = readEntryHeader(off);
        pool_.checksumCounters().verifies += 1;
        if (!eh.hdrCrcValid())
            corrupt("entry " + std::to_string(i) +
                    " header checksum mismatch");
        if (eh.type != LogEntryHeader::kData &&
            eh.type != LogEntryHeader::kAlloc &&
            eh.type != LogEntryHeader::kFree) {
            corrupt("entry " + std::to_string(i) + " has unknown type " +
                    std::to_string(eh.type));
        }
        const uint64_t entry_bytes = sizeof(LogEntryHeader) +
            alignUp(eh.payload_size, 16);
        if (off + entry_bytes > end)
            corrupt("entry " + std::to_string(i) +
                    " payload truncated past the log region");
        if (eh.payload_size != 0) {
            std::vector<uint8_t> payload(eh.payload_size);
            pool_.readRaw(off + sizeof(LogEntryHeader), payload.data(),
                          eh.payload_size);
            if (eh.data_crc != crc32c(payload.data(), payload.size(),
                                      LogEntryHeader::kCrcSeed)) {
                corrupt("entry " + std::to_string(i) +
                        " payload checksum mismatch");
            }
        }
        if (static_cast<uint64_t>(eh.target_off) + eh.payload_size >
            pool_.size()) {
            corrupt("entry " + std::to_string(i) +
                    " targets past the end of the pool");
        }
        if (eh.type == LogEntryHeader::kAlloc &&
            static_cast<uint64_t>(eh.target_off) + eh.alloc_size >
                pool_.size()) {
            corrupt("entry " + std::to_string(i) +
                    " allocation extends past the end of the pool");
        }
        off += static_cast<uint32_t>(entry_bytes);
    }
    // num_entries and used are published together in one atomic header
    // write, so a walk that disagrees with used means torn media.
    if (off - entriesBase() != h.used)
        corrupt("entry walk covers " + std::to_string(off - entriesBase()) +
                " bytes but the header claims " + std::to_string(h.used));
}

bool
UndoLog::recover()
{
    POAT_ASSERT(!active_, "recover while a transaction is active");
    validateLog();
    const LogHeader h = readHeader();
    switch (h.state) {
      case LogHeader::kIdle:
        return false;
      case LogHeader::kActive:
        applyUndo();
        writeState(LogHeader::kIdle, 0, 0);
        return true;
      case LogHeader::kCommitting:
        applyDeferredFrees();
        writeState(LogHeader::kIdle, 0, 0);
        return true;
      default:
        POAT_PANIC("corrupt undo log state"); // validateLog threw already
    }
}

uint32_t
UndoLog::entryCount() const
{
    return readHeader().num_entries;
}

uint32_t
UndoLog::remainingCapacity() const
{
    const LogHeader h = readHeader();
    const uint32_t used_total = LogHeader::kEntriesOff + h.used;
    return logSize_ > used_total ? logSize_ - used_total : 0;
}

} // namespace poat
