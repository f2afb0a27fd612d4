#include "trace_io/itrace.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace poat {
namespace trace_io {

namespace {

/** Soft cap on the recorder's in-memory buffer before an fwrite. */
constexpr size_t kFlushThreshold = 1u << 20;

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
putLe32(uint8_t *out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
putLe64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
getLe32(const uint8_t *in)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(in[i]) << (8 * i);
    return v;
}

uint64_t
getLe64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[i]) << (8 * i);
    return v;
}

/**
 * Continue the v6 record hash over @p size bytes: FNV-1a steps over the
 * little-endian 64-bit words, then over the trailing size % 8 bytes one
 * at a time. Hashing a region in chunks gives the whole-region hash as
 * long as every chunk but the last is a multiple of 8 bytes long.
 */
uint64_t
hashRecords(uint64_t hash, const uint8_t *data, size_t size)
{
    const size_t words = size / 8;
    for (size_t i = 0; i < words; ++i) {
        hash ^= getLe64(data + 8 * i);
        hash *= kFnvPrime;
    }
    for (size_t i = 8 * words; i < size; ++i) {
        hash ^= data[i];
        hash *= kFnvPrime;
    }
    return hash;
}

[[noreturn]] void
badFile(const std::string &path, const std::string &why)
{
    throw std::runtime_error("poat-itrace: " + path + ": " + why);
}

[[noreturn]] void
badVarint(const std::string &path, VarintStatus st)
{
    badFile(path, st == VarintStatus::Truncated
                      ? "truncated varint in record region"
                      : "varint exceeds 64 bits");
}

/** Map the whole trace file privately, prefaulting it where possible. */
#ifdef MAP_POPULATE
constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
constexpr int kMapFlags = MAP_PRIVATE;
#endif

} // namespace

const char *
eventKindName(uint8_t kind)
{
    switch (static_cast<EventKind>(kind)) {
      case EventKind::Alu:
        return "alu";
      case EventKind::Branch:
        return "branch";
      case EventKind::Load:
        return "load";
      case EventKind::Store:
        return "store";
      case EventKind::NvLoad:
        return "nvLoad";
      case EventKind::NvStore:
        return "nvStore";
      case EventKind::Clwb:
        return "clwb";
      case EventKind::NvClwb:
        return "nvClwb";
      case EventKind::Fence:
        return "fence";
      case EventKind::PoolMapped:
        return "poolMapped";
      case EventKind::PoolUnmapped:
        return "poolUnmapped";
      case EventKind::SwTranslateBegin:
        return "swTranslateBegin";
      case EventKind::SwTranslateEnd:
        return "swTranslateEnd";
      case EventKind::TxBegin:
        return "txBegin";
      case EventKind::TxCommit:
        return "txCommit";
      case EventKind::TxAbort:
        return "txAbort";
      case EventKind::OpName:
        return "opName";
      case EventKind::CoreSwitch:
        return "coreSwitch";
      case EventKind::LockWait:
        return "lockWait";
      case EventKind::LockAcquired:
        return "lockAcquired";
      case EventKind::LockReleased:
        return "lockReleased";
      case EventKind::LockDeadlock:
        return "lockDeadlock";
      case EventKind::OpSet:
        return "opSet";
      case EventKind::WorkerDone:
        return "workerDone";
      case EventKind::CommitJoin:
        return "commitJoin";
      case EventKind::CommitBatch:
        return "commitBatch";
    }
    return "?";
}

// --------------------------------------------------------------------
// TraceRecorder

TraceRecorder::TraceRecorder(TraceSink *inner, std::string path,
                             std::string fingerprint)
    : inner_(inner), path_(std::move(path)),
      fingerprint_(std::move(fingerprint)), hash_(kFnvOffset)
{
    // Unique temporary within the process and across processes sharing
    // a cache directory; the atomic rename in finish() publishes it.
    static std::atomic<uint64_t> counter{0};
    tmpPath_ = path_ + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(counter.fetch_add(1));

    f_ = std::fopen(tmpPath_.c_str(), "wb");
    if (!f_)
        badFile(tmpPath_, "cannot create temporary trace file");

    uint8_t header[kHeaderSize] = {};
    std::memcpy(header, kMagic, sizeof(kMagic));
    putLe32(header + 8, kFormatVersion);
    putLe32(header + 12, static_cast<uint32_t>(fingerprint_.size()));
    // Event count, record bytes, and record hash are patched by
    // finish(); leave zeros.
    if (std::fwrite(header, 1, kHeaderSize, f_) != kHeaderSize ||
        std::fwrite(fingerprint_.data(), 1, fingerprint_.size(), f_) !=
            fingerprint_.size()) {
        abandon();
        badFile(tmpPath_, "cannot write trace header");
    }

    buf_.reserve(kFlushThreshold + 64);
    seqToTag_.push_back(kNoDep); // sequence number 0 = "no producer"
}

TraceRecorder::~TraceRecorder()
{
    abandon();
}

void
TraceRecorder::flushBuf(bool last)
{
    if (!f_)
        return;
    // The record hash steps over 8-byte words: until the last flush,
    // write whole words only and carry the 0-7 bytes after them over.
    const size_t n = last ? buf_.size() : buf_.size() / 8 * 8;
    if (n == 0)
        return;
    hash_ = hashRecords(hash_, buf_.data(), n);
    recordBytes_ += n;
    if (std::fwrite(buf_.data(), 1, n, f_) != n) {
        abandon();
        badFile(tmpPath_, "short write while recording");
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(n));
}

void
TraceRecorder::begin(EventKind kind)
{
    if (buf_.size() >= kFlushThreshold)
        flushBuf(/*last=*/false);
    buf_.push_back(static_cast<uint8_t>(kind));
    ++events_;
}

void
TraceRecorder::finish()
{
    if (finished_)
        return;
    if (!f_)
        badFile(tmpPath_, "recorder already abandoned");
    flushBuf(/*last=*/true);

    uint8_t len[4];
    putLe32(len, static_cast<uint32_t>(profile_.size()));
    uint8_t patch[24];
    putLe64(patch + 0, events_);
    putLe64(patch + 8, recordBytes_);
    putLe64(patch + 16, hash_);
    const bool ok =
        std::fwrite(len, 1, sizeof(len), f_) == sizeof(len) &&
        std::fwrite(profile_.data(), 1, profile_.size(), f_) ==
            profile_.size() &&
        std::fseek(f_, 16, SEEK_SET) == 0 &&
        std::fwrite(patch, 1, sizeof(patch), f_) == sizeof(patch) &&
        std::fclose(f_) == 0;
    f_ = nullptr;
    if (!ok) {
        abandon();
        badFile(tmpPath_, "cannot finalize trace file");
    }
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        abandon();
        badFile(path_, "cannot publish trace file");
    }
    finished_ = true;
}

void
TraceRecorder::abandon() noexcept
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
    if (!finished_ && !tmpPath_.empty())
        std::remove(tmpPath_.c_str());
}

void
TraceRecorder::alu(uint32_t count, uint64_t dep)
{
    dep = clampSeq(dep);
    begin(EventKind::Alu);
    put(count);
    put(dep);
    if (inner_)
        inner_->alu(count, innerDep(dep));
}

void
TraceRecorder::branch(bool taken, uint64_t pc, uint64_t dep)
{
    dep = clampSeq(dep);
    begin(EventKind::Branch);
    put(taken ? 1 : 0);
    put(pc);
    put(dep);
    if (inner_)
        inner_->branch(taken, pc, innerDep(dep));
}

uint64_t
TraceRecorder::load(uint64_t vaddr, uint64_t dep, uint64_t dep2)
{
    dep = clampSeq(dep);
    dep2 = clampSeq(dep2);
    begin(EventKind::Load);
    put(vaddr);
    put(dep);
    put(dep2);
    const uint64_t tag =
        inner_ ? inner_->load(vaddr, innerDep(dep), innerDep(dep2)) : 0;
    seqToTag_.push_back(tag);
    return seqToTag_.size() - 1;
}

void
TraceRecorder::store(uint64_t vaddr, uint64_t dep)
{
    dep = clampSeq(dep);
    begin(EventKind::Store);
    put(vaddr);
    put(dep);
    if (inner_)
        inner_->store(vaddr, innerDep(dep));
}

uint64_t
TraceRecorder::nvLoad(ObjectID oid, uint64_t dep, uint64_t dep2)
{
    dep = clampSeq(dep);
    dep2 = clampSeq(dep2);
    begin(EventKind::NvLoad);
    put(oid.raw);
    put(dep);
    put(dep2);
    const uint64_t tag =
        inner_ ? inner_->nvLoad(oid, innerDep(dep), innerDep(dep2)) : 0;
    seqToTag_.push_back(tag);
    return seqToTag_.size() - 1;
}

void
TraceRecorder::nvStore(ObjectID oid, uint64_t dep)
{
    dep = clampSeq(dep);
    begin(EventKind::NvStore);
    put(oid.raw);
    put(dep);
    if (inner_)
        inner_->nvStore(oid, innerDep(dep));
}

void
TraceRecorder::clwb(uint64_t vaddr)
{
    begin(EventKind::Clwb);
    put(vaddr);
    if (inner_)
        inner_->clwb(vaddr);
}

void
TraceRecorder::nvClwb(ObjectID oid)
{
    begin(EventKind::NvClwb);
    put(oid.raw);
    if (inner_)
        inner_->nvClwb(oid);
}

void
TraceRecorder::fence()
{
    begin(EventKind::Fence);
    if (inner_)
        inner_->fence();
}

void
TraceRecorder::poolMapped(uint32_t pool_id, uint64_t vbase, uint64_t size)
{
    begin(EventKind::PoolMapped);
    put(pool_id);
    put(vbase);
    put(size);
    if (inner_)
        inner_->poolMapped(pool_id, vbase, size);
}

void
TraceRecorder::poolUnmapped(uint32_t pool_id)
{
    begin(EventKind::PoolUnmapped);
    put(pool_id);
    if (inner_)
        inner_->poolUnmapped(pool_id);
}

void
TraceRecorder::swTranslateBegin()
{
    begin(EventKind::SwTranslateBegin);
    if (inner_)
        inner_->swTranslateBegin();
}

void
TraceRecorder::swTranslateEnd()
{
    begin(EventKind::SwTranslateEnd);
    if (inner_)
        inner_->swTranslateEnd();
}

void
TraceRecorder::coreSwitch(uint32_t core)
{
    begin(EventKind::CoreSwitch);
    put(core);
    if (inner_)
        inner_->coreSwitch(core);
}

void
TraceRecorder::note(const Note &n)
{
    const auto kind = static_cast<uint8_t>(n.kind);
    begin(static_cast<EventKind>(kind));
    for (uint8_t i = 0; i < kOperandCount[kind]; ++i)
        put(n.arg[i]);
    buf_.insert(buf_.end(), n.name.begin(), n.name.end());
    if (inner_)
        inner_->note(n);
}

// --------------------------------------------------------------------
// TraceReplayer

void
TraceReplayer::Unmap::operator()(const uint8_t *file) const noexcept
{
    ::munmap(const_cast<uint8_t *>(file), bytes);
}

TraceReplayer::TraceReplayer(const std::string &path) : path_(path)
{
    // One read-only mapping; everything below validates and later
    // decodes the file in place. A file too short for a header is not
    // mapped (mmap rejects length 0) and fails below.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        badFile(path, "cannot open trace file");
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    const size_t size = ok ? static_cast<size_t>(st.st_size) : 0;
    if (ok && size >= kHeaderSize) {
        void *map = ::mmap(nullptr, size, PROT_READ, kMapFlags, fd, 0);
        ok = map != MAP_FAILED;
        if (ok)
            file_ = {static_cast<const uint8_t *>(map), Unmap{size}};
    }
    ::close(fd);
    if (!ok)
        badFile(path, "cannot read trace file");
    if (size < kHeaderSize)
        badFile(path, "truncated header");
    const uint8_t *file = file_.get();

    if (std::memcmp(file, kMagic, sizeof(kMagic)) != 0)
        badFile(path, "not a poat-itrace file (bad magic)");
    const uint32_t version = getLe32(file + 8);
    if (version != kFormatVersion)
        badFile(path,
                "unsupported format version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kFormatVersion) + ")");
    const uint32_t fpr_len = getLe32(file + 12);
    eventCount_ = getLe64(file + 16);
    const uint64_t record_bytes = getLe64(file + 24);
    const uint64_t record_hash = getLe64(file + 32);

    const size_t records_at = kHeaderSize + fpr_len;
    if (records_at > size || record_bytes > size - records_at)
        badFile(path, "truncated record region");
    fingerprint_.assign(reinterpret_cast<const char *>(file + kHeaderSize),
                        fpr_len);

    const size_t trailer_at = records_at + static_cast<size_t>(record_bytes);
    if (size - trailer_at < 4)
        badFile(path, "missing profile trailer");
    const uint32_t prof_len = getLe32(file + trailer_at);
    if (size - trailer_at - 4 != prof_len)
        badFile(path, "trailing garbage after profile");
    profile_.assign(reinterpret_cast<const char *>(file + trailer_at + 4),
                    prof_len);

    records_ = file + records_at;
    recordBytes_ = static_cast<size_t>(record_bytes);
    if (hashRecords(kFnvOffset, records_, recordBytes_) != record_hash)
        badFile(path, "record region corrupt (hash mismatch)");
}

void
TraceReplayer::replayInto(TraceSink &sink) const
{
    const uint8_t *d = records_;
    const size_t n = recordBytes_;
    size_t pos = 0;
    uint64_t events = 0;

    // A load-like record takes at least 4 bytes (kind and 3 operands),
    // so this reservation never grows. Growing by doubling would copy
    // the table and touch fresh pages at every step, a measurable share
    // of decoding a large multi-core trace.
    std::vector<uint64_t> tags;
    tags.reserve(n / 4 + 1);
    tags.push_back(kNoDep); // sequence number 0 = "no producer"
    auto dep = [&](uint64_t seq) -> uint64_t {
        if (seq >= tags.size())
            badFile(path_, "dep references a load that never happened");
        return tags[seq];
    };
    auto u32 = [](uint64_t v) { return static_cast<uint32_t>(v); };

    // The next operand. A one-byte operand is one load and compare while
    // the region still has room for any varint; everything else takes
    // readVarint. Inlined at every use, so each operand of each record
    // kind has its own branch.
    auto next = [&]() __attribute__((always_inline)) -> uint64_t {
        if (n - pos >= kMaxVarintBytes && d[pos] < 0x80) [[likely]]
            return d[pos++];
        uint64_t v = 0;
        const VarintStatus st = readVarint(d, n, &pos, &v);
        if (st != VarintStatus::Ok) [[unlikely]]
            badVarint(path_, st);
        return v;
    };

    // Each typed kind decodes its operands in its own case, in file
    // order, before any dep is resolved.
    while (pos < n) {
        const uint8_t kind = d[pos++];
        if (kind < kMinEventKind || kind > kMaxEventKind)
            badFile(path_, "unknown record kind " + std::to_string(kind) +
                               " at offset " + std::to_string(pos - 1));
        switch (static_cast<EventKind>(kind)) {
          case EventKind::Alu: {
            const uint64_t count = next();
            const uint64_t d1 = next();
            sink.alu(u32(count), dep(d1));
            break;
          }
          case EventKind::Branch: {
            const uint64_t taken = next();
            const uint64_t pc = next();
            const uint64_t d1 = next();
            sink.branch(taken != 0, pc, dep(d1));
            break;
          }
          case EventKind::Load: {
            const uint64_t vaddr = next();
            const uint64_t d1 = next();
            const uint64_t d2 = next();
            tags.push_back(sink.load(vaddr, dep(d1), dep(d2)));
            break;
          }
          case EventKind::Store: {
            const uint64_t vaddr = next();
            const uint64_t d1 = next();
            sink.store(vaddr, dep(d1));
            break;
          }
          case EventKind::NvLoad: {
            const uint64_t oid = next();
            const uint64_t d1 = next();
            const uint64_t d2 = next();
            tags.push_back(sink.nvLoad(ObjectID(oid), dep(d1), dep(d2)));
            break;
          }
          case EventKind::NvStore: {
            const uint64_t oid = next();
            const uint64_t d1 = next();
            sink.nvStore(ObjectID(oid), dep(d1));
            break;
          }
          case EventKind::Clwb:
            sink.clwb(next());
            break;
          case EventKind::NvClwb:
            sink.nvClwb(ObjectID(next()));
            break;
          case EventKind::Fence:
            sink.fence();
            break;
          case EventKind::PoolMapped: {
            const uint64_t id = next();
            const uint64_t vbase = next();
            const uint64_t size = next();
            sink.poolMapped(u32(id), vbase, size);
            break;
          }
          case EventKind::PoolUnmapped:
            sink.poolUnmapped(u32(next()));
            break;
          case EventKind::SwTranslateBegin:
            sink.swTranslateBegin();
            break;
          case EventKind::SwTranslateEnd:
            sink.swTranslateEnd();
            break;
          case EventKind::CoreSwitch:
            sink.coreSwitch(u32(next()));
            break;
          default: { // a note: every kind from TxBegin on but CoreSwitch
            Note note{static_cast<NoteKind>(kind)};
            for (uint8_t i = 0; i < kOperandCount[kind]; ++i)
                note.arg[i] = next();
            if (note.kind == NoteKind::OpName) {
                if (note.arg[1] > n - pos)
                    badFile(path_, "truncated opName record");
                note.name = {reinterpret_cast<const char *>(d + pos),
                             static_cast<size_t>(note.arg[1])};
                pos += static_cast<size_t>(note.arg[1]);
            }
            sink.note(note);
            break;
          }
        }
        ++events;
    }
    if (events != eventCount_)
        badFile(path_,
                "event count mismatch: header says " +
                    std::to_string(eventCount_) + ", decoded " +
                    std::to_string(events));
}

bool
TraceReplayer::matches(const std::string &path,
                       const std::string &fingerprint) noexcept
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    uint8_t header[kHeaderSize];
    bool ok = std::fread(header, 1, kHeaderSize, f) == kHeaderSize &&
        std::memcmp(header, kMagic, sizeof(kMagic)) == 0 &&
        getLe32(header + 8) == kFormatVersion &&
        getLe32(header + 12) == fingerprint.size();
    if (ok) {
        std::string fpr(fingerprint.size(), '\0');
        ok = std::fread(fpr.data(), 1, fpr.size(), f) == fpr.size() &&
            fpr == fingerprint;
    }
    std::fclose(f);
    return ok;
}

} // namespace trace_io
} // namespace poat
