#include "pmem/pool.h"

#include <algorithm>

namespace poat {

PoolImage::PoolImage(const std::vector<uint8_t> &dense)
    : PoolImage(dense.size())
{
    static const uint8_t zeros[kPageSize] = {};
    for (uint64_t off = 0; off < size_; off += kPageSize) {
        const size_t n = std::min<uint64_t>(kPageSize, size_ - off);
        if (std::memcmp(dense.data() + off, zeros, n) != 0)
            write(off, dense.data() + off, n);
    }
}

PoolImage &
PoolImage::operator=(const PoolImage &other)
{
    if (this == &other)
        return *this;
    size_ = other.size_;
    pages_.resize(other.pages_.size());
    for (size_t i = 0; i < pages_.size(); ++i) {
        if (!other.pages_[i]) {
            pages_[i].reset();
            continue;
        }
        if (!pages_[i])
            pages_[i] = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
        std::memcpy(pages_[i].get(), other.pages_[i].get(), kPageSize);
    }
    return *this;
}

void
PoolImage::readSpan(uint64_t off, void *dst, size_t n) const
{
    POAT_ASSERT(n == 0 || off % kPageSize + n > kPageSize,
                "a page-local read takes the inline path");
    auto *out = static_cast<uint8_t *>(dst);
    while (n > 0) {
        const uint64_t in_page = off % kPageSize;
        const size_t chunk = std::min<uint64_t>(n, kPageSize - in_page);
        if (const uint8_t *page = pages_[off / kPageSize].get())
            std::memcpy(out, page + in_page, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        off += chunk;
        n -= chunk;
    }
}

void
PoolImage::writeSpan(uint64_t off, const void *src, size_t n)
{
    POAT_ASSERT(n == 0 || off % kPageSize + n > kPageSize ||
                    !pages_[off / kPageSize],
                "a page-local write into a resident page takes the "
                "inline path");
    const auto *in = static_cast<const uint8_t *>(src);
    while (n > 0) {
        const uint64_t in_page = off % kPageSize;
        const size_t chunk = std::min<uint64_t>(n, kPageSize - in_page);
        std::unique_ptr<uint8_t[]> &page = pages_[off / kPageSize];
        if (!page)
            page = std::make_unique<uint8_t[]>(kPageSize); // zeroed
        std::memcpy(page.get() + in_page, in, chunk);
        in += chunk;
        off += chunk;
        n -= chunk;
    }
}

std::vector<uint8_t>
PoolImage::dense() const
{
    std::vector<uint8_t> out(size_);
    for (size_t i = 0; i < pages_.size(); ++i) {
        if (pages_[i]) {
            const uint64_t off = i * kPageSize;
            std::memcpy(out.data() + off, pages_[i].get(),
                        std::min<uint64_t>(kPageSize, size_ - off));
        }
    }
    return out;
}

Pool::Pool(std::string name, uint32_t pool_id, uint64_t size,
           uint32_t log_size, uint32_t log_slots)
    : name_(std::move(name)), id_(pool_id)
{
    POAT_ASSERT(pool_id != 0, "pool id 0 is reserved for OID_NULL");
    POAT_ASSERT(log_slots >= 1 && log_slots <= PoolHeader::kMaxLogSlots,
                "log slot count out of range");
    // Leave room for the header, at least a page of heap, and the log.
    size = std::max<uint64_t>(size, kHeaderSize + 4096 + log_size);
    size = std::min<uint64_t>(size, 1ull << 32);
    size = alignUp(size, kLineSize);
    POAT_ASSERT(log_size + kHeaderSize + kLineSize <= size,
                "log region does not fit in pool");

    data_ = PoolImage(size);

    PoolHeader h{};
    h.magic = PoolHeader::kMagic;
    h.version = PoolHeader::kVersion;
    h.pool_id = pool_id;
    h.pool_size = size;
    h.root_off = 0;
    h.root_size = 0;
    h.heap_off = kHeaderSize;
    h.log_size = log_size;
    h.log_off = static_cast<uint32_t>(size - log_size);
    h.heap_size = h.log_off - h.heap_off;
    h.pad = PoolHeader::encodeLogSlots(log_slots);
    storeHeader(h);

    // A fresh pool is fully durable from the start, like a newly created
    // and synced file.
    dirty_.clear();
    durable_ = data_;
}

Pool::Pool(std::string name, uint32_t pool_id, PoolImage durable_image)
    : name_(std::move(name)), id_(pool_id), data_(std::move(durable_image))
{
    if (data_.size() < kHeaderSize) {
        throw MediaError(name_, 0, MediaStructure::Superblock,
                         "image of " + std::to_string(data_.size()) +
                             " bytes is smaller than the pool header");
    }
    PoolHeader primary{};
    data_.read(0, &primary, sizeof(primary));
    if (primary.valid(data_.size())) {
        cachedHeader_ = primary;
    } else {
        // Corrupt primary superblock: repair from the mirror, or fail
        // with a precise diagnostic if both copies are gone. The scrub
        // pass re-checks (and re-syncs) both copies on recovery.
        PoolHeader mirror{};
        data_.read(PoolHeader::kMirrorOff, &mirror, sizeof(mirror));
        checksumCounters().verifies += 2;
        if (!mirror.valid(data_.size())) {
            throw MediaError(name_, 0, MediaStructure::Superblock,
                             "both superblock copies are corrupt");
        }
        data_.write(0, &mirror, sizeof(mirror));
        cachedHeader_ = mirror;
    }
    durable_ = data_;
}

void
Pool::storeHeader(PoolHeader h)
{
    h.seal();
    checksumCounters().superblock_updates += 1;
    checksumCounters().bytes_summed += offsetof(PoolHeader, crc);
    writeRaw(0, &h, sizeof(h));
    writeRaw(PoolHeader::kMirrorOff, &h, sizeof(h));
    cachedHeader_ = h;
}

void
Pool::persistHeader()
{
    persist(0, sizeof(PoolHeader));
    persist(PoolHeader::kMirrorOff, sizeof(PoolHeader));
}

void
Pool::corruptDurable(uint32_t off, const void *src, size_t n)
{
    POAT_ASSERT(static_cast<uint64_t>(off) + n <= durable_.size(),
                "media fault out of range");
    durable_.write(off, src, n);
}

void
Pool::readDurable(uint32_t off, void *dst, size_t n) const
{
    POAT_ASSERT(static_cast<uint64_t>(off) + n <= durable_.size(),
                "durable read out of range");
    durable_.read(off, dst, n);
}

void
Pool::writeRaw(uint32_t off, const void *src, size_t n)
{
    POAT_ASSERT(static_cast<uint64_t>(off) + n <= data_.size(),
                "pool write out of range");
    data_.write(off, src, n);
    const uint32_t first = off / kLineSize;
    const uint32_t last = (off + static_cast<uint32_t>(n) - 1) / kLineSize;
    for (uint32_t line = first; line <= last; ++line) {
        dirty_.insert(line);
        staged_.erase(line); // a new store re-dirties a staged line
    }
}

void
Pool::writeBackLine(uint32_t line, WriteBackCause cause)
{
    // The hook sees (and may veto or tear) every durable transition.
    // Volatile bookkeeping in the callers proceeds either way so that
    // execution after a suppressed write-back matches an uninjected run
    // exactly.
    uint8_t mask = DurabilityHook::kFullLineMask;
    if (hook_ != nullptr) {
        mask = hook_->onWriteBack(*this, line, cause);
        if (mask == 0)
            return;
    }
    const uint64_t base = static_cast<uint64_t>(line) * kLineSize;
    uint8_t bytes[kLineSize];
    data_.read(base, bytes,
               std::min<uint64_t>(kLineSize, data_.size() - base));
    persistLineWords(line, bytes, mask);
}

void
Pool::persistLineWords(uint32_t line, const uint8_t *bytes, uint8_t mask)
{
    const uint64_t base = static_cast<uint64_t>(line) * kLineSize;
    POAT_ASSERT(base < durable_.size(), "write-back line out of range");
    const uint64_t n = std::min<uint64_t>(kLineSize, durable_.size() - base);
    if (mask == DurabilityHook::kFullLineMask) {
        durable_.write(base, bytes, n);
        return;
    }
    // Torn write-back: only the masked-in 8-byte words reach media; the
    // rest of the durable line keeps its pre-crash contents.
    static_assert(kLineSize == 8 * sizeof(uint64_t));
    for (uint32_t w = 0; w < 8; ++w) {
        if ((mask & (1u << w)) == 0)
            continue;
        const uint64_t off = w * sizeof(uint64_t);
        if (off >= n)
            break;
        durable_.write(base + off, bytes + off,
                       std::min<uint64_t>(sizeof(uint64_t), n - off));
    }
}

void
Pool::clwb(uint32_t off)
{
    const uint32_t line = off / kLineSize;
    if (!dirty_.count(line))
        return; // clean line: CLWB is a no-op
    if (policy_ == DurabilityPolicy::Eager) {
        writeBackLine(line, WriteBackCause::Clwb);
        dirty_.erase(line);
    } else {
        staged_.insert(line);
    }
}

void
Pool::fence()
{
    if (staged_.empty())
        return;
    // Drain in sorted line order: the hash set's iteration order is
    // build-local, and the crash-point explorer indexes drain events by
    // position, so the order must be a deterministic function of the
    // staged set. The hook sees the whole batch before the first
    // write-back (a mid-drain power failure persists any subset).
    const std::vector<uint32_t> lines = stagedLines();
    if (hook_ != nullptr)
        hook_->onFenceDrainBegin(*this, lines);
    for (uint32_t line : lines) {
        writeBackLine(line, WriteBackCause::Fence);
        dirty_.erase(line);
    }
    staged_.clear();
}

std::vector<uint32_t>
Pool::stagedLines() const
{
    std::vector<uint32_t> lines(staged_.begin(), staged_.end());
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
Pool::persist(uint32_t off, size_t n)
{
    if (n == 0)
        return;
    const uint32_t first = off / kLineSize;
    const uint32_t last = (off + static_cast<uint32_t>(n) - 1) / kLineSize;
    for (uint32_t line = first; line <= last; ++line)
        clwb(line * kLineSize);
    fence();
}

void
Pool::persistAll()
{
    std::vector<uint32_t> lines(dirty_.begin(), dirty_.end());
    std::sort(lines.begin(), lines.end());
    for (uint32_t line : lines)
        clwb(line * kLineSize);
    fence();
}

uint32_t
Pool::lineSpan(uint32_t off, size_t n)
{
    if (n == 0)
        return 0;
    const uint32_t first = off / kLineSize;
    const uint32_t last = (off + static_cast<uint32_t>(n) - 1) / kLineSize;
    return last - first + 1;
}

void
Pool::evictRandomLines(Rng &rng, uint64_t num, uint64_t den)
{
    std::vector<uint32_t> evicted;
    for (uint32_t line : dirty_) {
        if (staged_.count(line))
            continue;
        if (rng.chance(num, den)) {
            writeBackLine(line, WriteBackCause::Evict);
            evicted.push_back(line);
        }
    }
    for (uint32_t line : evicted)
        dirty_.erase(line);
}

void
Pool::crash()
{
    data_ = durable_;
    dirty_.clear();
    staged_.clear();
    refreshHeader();
}

void
Pool::refreshHeader()
{
    data_.read(0, &cachedHeader_, sizeof(cachedHeader_));
}

} // namespace poat
