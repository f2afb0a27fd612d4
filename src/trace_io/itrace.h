/**
 * @file
 * Instruction-trace capture & replay: the "poat-itrace" format (v6).
 *
 * The simulator is execution-driven: workloads run natively and report
 * every dynamic instruction to a TraceSink (pmem/trace.h). A machine-
 * config sweep therefore re-executes identical functional work once per
 * design point. This subsystem is the classic Pin-front-end split the
 * paper itself relied on (Sniper driven by Pin traces): TraceRecorder
 * captures the stream once into a compact varint-encoded file, and
 * TraceReplayer streams that file back into any TraceSink — replaying
 * into a sim::Machine produces bit-identical MachineMetrics and stats
 * to the live run, so only the first run of a functional configuration
 * pays for native execution.
 *
 * File layout (all integers little-endian):
 *
 *   offset 0   magic "poatitrc" (8 bytes)
 *          8   u32 format version (6)
 *         12   u32 fingerprint length
 *         16   u64 event count      (patched by finish())
 *         24   u64 record bytes     (patched by finish())
 *         32   u64 record hash      (see below)
 *         40   fingerprint bytes    (canonical functional-config string)
 *          .   records: one kind byte + varint operands per event
 *          .   u32 profile length + profile bytes (opaque sidecar blob
 *              the driver uses for the run's functional profile)
 *
 * The record hash is 64-bit FNV-1a (offset basis 14695981039346656037,
 * prime 1099511628211) run over the record region as little-endian
 * 64-bit words, each step `hash ^= word; hash *= prime`, followed by
 * the same step over each of the region's trailing size % 8 bytes.
 * Every step is a bijection of the running hash, so any single
 * corrupted byte changes the result. The recorder hashes exactly those
 * words wherever its buffer flushes fall; the replayer maps the file
 * read-only, validates the hash once over the mapping, and decodes the
 * records in place.
 *
 * Value tags are canonicalized: the workload-visible tag of the n-th
 * load-like event (load/nvLoad) is its 1-based sequence number, and dep
 * operands are stored as those sequence numbers, so a trace is
 * position-independent of whatever tags the inner sink hands out. The
 * recorder translates sequence numbers back to inner-sink tags when
 * forwarding, so a captured run drives its machine with exactly the
 * values a direct run would; the replayer does the same for its sink.
 *
 * Every malformed input — bad magic, wrong version, truncation, record
 * corruption, a dep referencing a load that never happened — raises
 * std::runtime_error with a message naming the file and the problem.
 */
#ifndef POAT_TRACE_IO_ITRACE_H
#define POAT_TRACE_IO_ITRACE_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/varint.h"
#include "pmem/trace.h"

namespace poat {
namespace trace_io {

/** File magic, first 8 bytes of every poat-itrace file. */
inline constexpr char kMagic[8] = {'p', 'o', 'a', 't', 'i', 't', 'r', 'c'};

/**
 * Format version this build reads and writes. v2 added the
 * SwTranslateBegin/SwTranslateEnd region markers (CPI-stack
 * attribution); v3 added the transaction-span records
 * (TxBegin/TxCommit/TxAbort/OpName) feeding the tx.* stats subtree;
 * v4 added the CoreSwitch scheduling record (deterministic multi-core
 * interleaving); v5 added the concurrency-observability records
 * (lock waits/grants/releases/deadlocks, worker lifecycle, commit
 * windows, op switches) feeding the lock.* / sched.* / cp.* stats;
 * v6 changed the record hash from byte-wise to word-wise FNV-1a (same
 * records). Older files fail matches() and are silently recaptured.
 */
inline constexpr uint32_t kFormatVersion = 6;

/** Bytes before the fingerprint (magic + version + 3 patched fields). */
inline constexpr size_t kHeaderSize = 40;

/**
 * Record kinds: one per typed TraceSink event, plus one per NoteKind,
 * whose values they share (common/note.h).
 */
enum class EventKind : uint8_t
{
    Alu = 1,      ///< count, dep
    Branch,       ///< taken, pc, dep
    Load,         ///< vaddr, dep, dep2 (assigns the next sequence number)
    Store,        ///< vaddr, dep
    NvLoad,       ///< oid, dep, dep2 (assigns the next sequence number)
    NvStore,      ///< oid, dep
    Clwb,         ///< vaddr
    NvClwb,       ///< oid
    Fence,        ///< (no operands)
    PoolMapped,   ///< pool_id, vbase, size
    PoolUnmapped, ///< pool_id
    SwTranslateBegin, ///< (no operands; v2)
    SwTranslateEnd,   ///< (no operands; v2)
    TxBegin,          ///< pool_id, op (v3)
    TxCommit,         ///< pool_id (v3)
    TxAbort,          ///< pool_id (v3)
    OpName,           ///< op, name length, raw name bytes (v3)
    CoreSwitch,       ///< core (v4)
    LockWait,         ///< worker, key, mode, edges (v5)
    LockAcquired,     ///< worker, key, mode (v5)
    LockReleased,     ///< worker, key (v5)
    LockDeadlock,     ///< worker, key (v5)
    OpSet,            ///< op (v5)
    WorkerDone,       ///< worker (v5)
    CommitJoin,       ///< worker (v5)
    CommitBatch,      ///< members, elided (v5)
};

inline constexpr uint8_t kMinEventKind = 1;
inline constexpr uint8_t kMaxEventKind = 26;

static_assert(uint8_t(EventKind::TxBegin) == uint8_t(NoteKind::TxBegin) &&
              uint8_t(EventKind::OpName) == uint8_t(NoteKind::OpName) &&
              uint8_t(EventKind::LockWait) == uint8_t(NoteKind::LockWait) &&
              uint8_t(EventKind::CommitBatch) ==
                  uint8_t(NoteKind::CommitBatch),
              "note kinds are their record kinds");

/**
 * Varint operands of each record kind, indexed by kind byte (see the
 * EventKind comments); OpName's name bytes follow its two operands.
 */
inline constexpr uint8_t kOperandCount[kMaxEventKind + 1] = {
    0,                      // (no kind 0)
    2, 3, 3, 2, 3, 2, 1, 1, // Alu .. NvClwb
    0, 3, 1, 0, 0,          // Fence .. SwTranslateEnd
    2, 1, 1, 2, 1,          // TxBegin .. CoreSwitch
    4, 3, 2, 2, 1, 1, 1, 2, // LockWait .. CommitBatch
};

/** Human-readable name of a record kind ("?" if out of range). */
const char *eventKindName(uint8_t kind);

/**
 * TraceSink that forwards every event to an inner sink while appending
 * its record to a poat-itrace file.
 *
 * The file is written to a unique temporary name next to @p path and
 * atomically renamed into place by finish(), so readers never observe
 * a partial trace; destroying an unfinished recorder discards the
 * temporary. The recorder is transparent to the machine it wraps: the
 * inner sink sees exactly the calls (tags included) a direct run would
 * make, so a capture run's metrics equal an uncaptured run's.
 */
class TraceRecorder : public TraceSink
{
  public:
    /**
     * @param inner       Sink every event is forwarded to (not owned;
     *                    may be null to record without simulating).
     * @param path        Final path of the trace file.
     * @param fingerprint Canonical functional-config string stored in
     *                    the header (driver::traceFingerprint).
     * @throws std::runtime_error if the temporary file cannot be
     *         created.
     */
    TraceRecorder(TraceSink *inner, std::string path,
                  std::string fingerprint);
    ~TraceRecorder() override;

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Attach the opaque sidecar blob stored after the records. */
    void setProfile(std::string profile) { profile_ = std::move(profile); }

    /**
     * Flush, patch the header, and atomically publish the file at the
     * final path. @throws std::runtime_error on any I/O failure.
     */
    void finish();

    /** Discard the temporary file without publishing (idempotent). */
    void abandon() noexcept;

    /** Events recorded so far. */
    uint64_t eventCount() const { return events_; }

    /// @name TraceSink interface
    /// @{
    void alu(uint32_t count, uint64_t dep) override;
    void branch(bool taken, uint64_t pc, uint64_t dep) override;
    uint64_t load(uint64_t vaddr, uint64_t dep, uint64_t dep2) override;
    void store(uint64_t vaddr, uint64_t dep) override;
    uint64_t nvLoad(ObjectID oid, uint64_t dep, uint64_t dep2) override;
    void nvStore(ObjectID oid, uint64_t dep) override;
    void clwb(uint64_t vaddr) override;
    void nvClwb(ObjectID oid) override;
    void fence() override;
    void poolMapped(uint32_t pool_id, uint64_t vbase,
                    uint64_t size) override;
    void poolUnmapped(uint32_t pool_id) override;
    void swTranslateBegin() override;
    void swTranslateEnd() override;
    void coreSwitch(uint32_t core) override;
    void note(const Note &n) override;
    /// @}

  private:
    /** Bound a caller-supplied dep to a sequence number we handed out. */
    uint64_t clampSeq(uint64_t seq) const
    {
        return seq < seqToTag_.size() ? seq : kNoDep;
    }

    /** Inner-sink tag for canonical sequence number @p seq. */
    uint64_t innerDep(uint64_t seq) const { return seqToTag_[seq]; }

    void begin(EventKind kind);
    void put(uint64_t v) { appendVarint(buf_, v); }
    /** Write out (and hash) the buffer; see itrace.cc. */
    void flushBuf(bool last);

    TraceSink *inner_;
    std::string path_;
    std::string tmpPath_;
    std::string fingerprint_;
    std::string profile_;
    std::FILE *f_ = nullptr;
    std::vector<uint8_t> buf_;
    std::vector<uint64_t> seqToTag_; ///< canonical seq -> inner tag
    uint64_t events_ = 0;
    uint64_t recordBytes_ = 0;
    uint64_t hash_;
    bool finished_ = false;
};

/**
 * Reader of a poat-itrace file.
 *
 * The replayer maps the file read-only instead of copying it, and
 * holds the mapping until it is destroyed. That is safe because a
 * trace file is published only by TraceRecorder::finish's atomic
 * rename and is never truncated or rewritten in place: a later capture
 * of the same path renames a new file over it, which leaves an
 * existing mapping on the old one intact.
 */
class TraceReplayer
{
  public:
    /**
     * Map and validate @p path: magic, version, region bounds, and
     * the record hash. @throws std::runtime_error naming the file and
     * the defect on any mismatch.
     */
    explicit TraceReplayer(const std::string &path);

    /** The header's canonical functional-config string. */
    const std::string &fingerprint() const { return fingerprint_; }

    /** The opaque sidecar blob (empty if none was stored). */
    const std::string &profile() const { return profile_; }

    /** Events in the record region. */
    uint64_t eventCount() const { return eventCount_; }

    /**
     * Stream every record into @p sink, translating canonical dep
     * sequence numbers to the tags @p sink returns. Safe to call more
     * than once (each replay starts a fresh tag mapping).
     * @throws std::runtime_error on a corrupt record.
     */
    void replayInto(TraceSink &sink) const;

    /**
     * True iff @p path exists, is a structurally sound poat-itrace
     * file of this build's format version, and carries exactly
     * @p fingerprint. Never throws: any
     * defect reads as "no usable cached trace". (The record hash is
     * not checked here — construction does that.)
     */
    static bool matches(const std::string &path,
                        const std::string &fingerprint) noexcept;

  private:
    /** Deleter of file_: unmaps @p bytes from the mapping's start. */
    struct Unmap
    {
        size_t bytes; // no initializer: file_ value-initializes it
        void operator()(const uint8_t *file) const noexcept;
    };

    std::string path_;
    std::string fingerprint_;
    std::string profile_;
    std::unique_ptr<const uint8_t, Unmap> file_; ///< the whole file, mapped
    const uint8_t *records_ = nullptr; ///< record region within file_
    size_t recordBytes_ = 0;
    uint64_t eventCount_ = 0;
};

} // namespace trace_io
} // namespace poat

#endif // POAT_TRACE_IO_ITRACE_H
