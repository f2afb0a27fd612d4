/**
 * @file
 * Persistent pool: storage, on-media layout, and the NVM durability model.
 *
 * A pool is the file-like unit of persistence (paper section 2.1.1). Its
 * on-media layout is self-describing so a pool can be reopened (or
 * recovered after a crash) from its durable image alone:
 *
 *   [ PoolHeader | heap (allocator blocks) ... | undo-log region ]
 *
 * Durability model. The pool keeps two images: `data` (what the program
 * reads/writes — memory + caches) and `durable` (what is actually on
 * NVM). Stores touch only `data` and mark 64-byte lines dirty; CLWB plus
 * a fence makes lines durable. A simulated crash discards `data` in
 * favor of `durable`. Because a real cache may write back a dirty line
 * at any moment, tests can also force random early evictions; correct
 * failure-safe code (the undo log) must tolerate both extremes, which is
 * exactly what the recovery property tests check.
 *
 * Host storage. Both images are page-granular (PoolImage): a 4 KB page
 * is allocated on its first write and reads as zero while absent, so a
 * pool costs host memory, and create / crash / reopen cost host time,
 * in proportion to the bytes a run touches rather than to the pool's
 * size. Nothing observable depends on residency: every read returns the
 * same bytes a dense image would. The exported file format is the dense
 * on-media layout, unchanged.
 */
#ifndef POAT_PMEM_POOL_H
#define POAT_PMEM_POOL_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "pmem/addrspace.h"
#include "pmem/checksum.h"
#include "pmem/oid.h"

namespace poat {

/**
 * On-media header at offset 0 of every pool, crc32c-sealed and
 * replicated: a second copy lives at kMirrorOff (a different 64-byte
 * line inside the reserved header region), so a media fault in either
 * copy repairs from the other. Every header update writes and persists
 * both copies, primary first; on conflict between two *valid* copies
 * the primary wins (it is the commit point of a header update).
 */
struct PoolHeader
{
    static constexpr uint64_t kMagic = 0x504f41545f504f4cull; // "POAT_POL"
    static constexpr uint32_t kVersion = 2; ///< v2: crc + mirror
    /** Offset of the mirror copy (line 2 of the reserved header). */
    static constexpr uint32_t kMirrorOff = 128;

    uint64_t magic;
    uint32_t version;
    uint32_t pool_id;   ///< system-wide id; informational on media
    uint64_t pool_size; ///< total bytes including header and log
    uint32_t root_off;  ///< offset of root object payload; 0 = unset
    uint32_t root_size;
    uint32_t heap_off;  ///< first allocator block
    uint32_t heap_size;
    uint32_t log_off;   ///< undo-log region
    uint32_t log_size;
    uint32_t crc;       ///< crc32c over all preceding fields

    /**
     * Undo-log slot count, self-checked: the low half carries the
     * count, the high half its complement (encodeLogSlots). 0 — the
     * value every pool written before multi-slot logs existed carries —
     * decodes as one slot, so old images open unchanged. The field
     * sits after `crc` deliberately: it is outside the sealed region
     * (its complement is its own integrity check, which valid()
     * applies), so single-slot pools stay byte- and checksum-identical
     * to pre-slot ones.
     */
    uint32_t pad;

    /** Largest supported undo-log slot count (one per worker thread). */
    static constexpr uint32_t kMaxLogSlots = 256;

    /** Encode @p slots for `pad`; 1 slot encodes as legacy 0. */
    static constexpr uint32_t
    encodeLogSlots(uint32_t slots)
    {
        return slots <= 1 ? 0u
                          : (slots | ((slots ^ 0xffffu) << 16));
    }

    /**
     * Decode `pad` into a slot count. Anything that fails the
     * complement self-check or the range [1, kMaxLogSlots] reads as
     * one slot — the legacy layout — never as garbage geometry.
     */
    static constexpr uint32_t
    decodeLogSlots(uint32_t pad_value)
    {
        const uint32_t lo = pad_value & 0xffffu;
        const uint32_t hi = pad_value >> 16;
        if (pad_value == 0 || (lo ^ 0xffffu) != hi || lo < 2 ||
            lo > kMaxLogSlots) {
            return 1;
        }
        return lo;
    }

    /** CRC over every field before `crc`. */
    uint32_t
    computeCrc() const
    {
        return crc32c(this, offsetof(PoolHeader, crc));
    }
    bool crcValid() const { return crc == computeCrc(); }
    void seal() { crc = computeCrc(); }
    /**
     * Full validity: sealed, a slot count that passes its self-check
     * (a copy whose count is damaged must not hand its geometry to the
     * other copy), magic, sized for @p image_size, and a heap and log
     * region that lie inside the image past both header copies.
     */
    bool
    valid(uint64_t image_size) const
    {
        return crcValid() && pad == encodeLogSlots(decodeLogSlots(pad)) &&
            magic == kMagic && pool_size == image_size &&
            heap_off >= kMirrorOff + sizeof(PoolHeader) &&
            uint64_t{heap_off} + heap_size <= log_off &&
            uint64_t{log_off} + log_size <= image_size;
    }
};

static_assert(sizeof(PoolHeader) == 56);
static_assert(PoolHeader::kMirrorOff >= kLineSize &&
              PoolHeader::kMirrorOff % kLineSize == 0);

/** How CLWB interacts with the durable image (see file comment). */
enum class DurabilityPolicy : uint8_t
{
    Eager,  ///< CLWB writes the line back immediately (fence is ordering)
    Strict, ///< lines become durable only when a fence retires the CLWB
};

/** Why a dirty line is crossing into the durable image. */
enum class WriteBackCause : uint8_t
{
    Clwb,  ///< CLWB under the Eager policy
    Fence, ///< a fence retiring a staged CLWB (Strict policy)
    Evict, ///< simulated cache pressure (evictRandomLines)
};

class Pool;

/**
 * Fault-injection hook on the durability path.
 *
 * Every 64-byte line write-back into the durable image — the only way
 * data ever becomes persistent — first consults the installed hook.
 * Returning true lets the write-back happen; returning false suppresses
 * the durable copy while all volatile bookkeeping (dirty/staged sets)
 * proceeds unchanged, so the program's execution after a suppressed
 * write-back is bit-identical to an uninjected run. A crash-point
 * explorer uses this to freeze the durable image after the first k
 * events and then simulate power failure (see src/fault/).
 *
 * The word-granular entry point onWriteBackWords() refines the veto to
 * a bitmask over the line's eight 8-byte words, modeling a write-back
 * torn by the power failure itself: the masked-in words reach media,
 * the rest keep their old durable contents. The default implementation
 * delegates to onWriteBack(), so boolean hooks keep their exact
 * semantics (all words or none).
 */
class DurabilityHook
{
  public:
    /** All eight 8-byte words of a 64-byte line (an untorn write-back). */
    static constexpr uint8_t kFullLineMask = 0xff;

    virtual ~DurabilityHook() = default;

    /** Called before line @p line of @p pool is made durable. */
    virtual bool onWriteBack(Pool &pool, uint32_t line,
                             WriteBackCause cause) = 0;

    /**
     * Word-granular veto: bit w of the returned mask persists bytes
     * [8w, 8w+8) of the line. kFullLineMask is an ordinary write-back,
     * 0 a full suppression, anything else a torn line. Pool calls only
     * this entry point; the default routes to onWriteBack().
     */
    virtual uint8_t
    onWriteBackWords(Pool &pool, uint32_t line, WriteBackCause cause)
    {
        return onWriteBack(pool, line, cause) ? kFullLineMask : 0;
    }

    /**
     * Called by Pool::fence() under the Strict policy, before the first
     * write-back of a drain, with the full staged-line set about to be
     * retired (sorted ascending). The onWriteBackWords() calls that
     * follow — one per listed line, in the listed order, all with cause
     * Fence — are a single drain batch: hardware gives them no ordering
     * until the fence retires, so a real power failure mid-drain
     * persists an arbitrary subset. Not called for an empty staged set.
     */
    virtual void onFenceDrainBegin(Pool &pool,
                                   const std::vector<uint32_t> &pending)
    {
        (void)pool;
        (void)pending;
    }
};

/**
 * A pool-sized byte image stored as kPageSize pages. A page is
 * allocated on its first write and reads as zero while absent, so an
 * image costs memory and copy time in proportion to the pages ever
 * written, not to its size. Copies are deep.
 *
 * Page-local case. Almost every access — an 8-byte field, a 16-byte
 * header, a 64-byte line — lies inside one page. read() and write()
 * are inline and serve such an access with one memcpy (a read of an
 * absent page is one memset; a write takes this path only into a
 * resident page). Accesses that straddle a page boundary, and writes
 * that must first allocate a page, go to the out-of-line page loop.
 */
class PoolImage
{
  public:
    explicit PoolImage(uint64_t size = 0)
        : size_(size), pages_((size + kPageSize - 1) / kPageSize)
    {}

    /** From the dense on-media layout; all-zero pages stay absent. */
    explicit PoolImage(const std::vector<uint8_t> &dense);

    PoolImage(const PoolImage &other) { *this = other; }
    PoolImage &operator=(const PoolImage &other);
    PoolImage(PoolImage &&) = default;
    PoolImage &operator=(PoolImage &&) = default;

    uint64_t size() const { return size_; }

    /** Copy [off, off+n) out; absent pages read as zero. */
    void
    read(uint64_t off, void *dst, size_t n) const
    {
        const uint64_t in_page = off % kPageSize;
        if (n != 0 && in_page + n <= kPageSize) {
            if (const uint8_t *p = pages_[off / kPageSize].get())
                std::memcpy(dst, p + in_page, n);
            else
                std::memset(dst, 0, n);
            return;
        }
        readSpan(off, dst, n);
    }

    /** Copy @p n bytes in at @p off, allocating absent pages. */
    void
    write(uint64_t off, const void *src, size_t n)
    {
        const uint64_t in_page = off % kPageSize;
        if (n != 0 && in_page + n <= kPageSize) {
            if (uint8_t *p = pages_[off / kPageSize].get()) {
                std::memcpy(p + in_page, src, n);
                return;
            }
        }
        writeSpan(off, src, n);
    }

    /** The kPageSize bytes of the page holding @p off; null if absent. */
    const uint8_t *
    page(uint64_t off) const
    {
        return pages_[off / kPageSize].get();
    }

    /** The dense on-media layout: every byte, absent pages as zeros. */
    std::vector<uint8_t> dense() const;

  private:
    /** read() of an access that crosses a page boundary (or is empty). */
    void readSpan(uint64_t off, void *dst, size_t n) const;

    /**
     * write() of an access that crosses a page boundary, is empty, or
     * touches an absent page first.
     */
    void writeSpan(uint64_t off, const void *src, size_t n);

    uint64_t size_ = 0;
    std::vector<std::unique_ptr<uint8_t[]>> pages_;
};

/**
 * A persistent memory pool.
 *
 * Pool does storage and durability only; it emits no trace events and
 * applies no policy. Allocation lives in PoolAllocator, transactions in
 * UndoLog, and instruction accounting in PmemRuntime.
 */
class Pool
{
  public:
    /** Fraction of a fresh pool reserved for the undo log. */
    static constexpr uint32_t kDefaultLogSize = 64 * 1024;
    static constexpr uint32_t kHeaderSize = 256;
    /** Minimum total size that leaves room for header, heap, and log. */
    static constexpr uint64_t kMinSize = kHeaderSize + 4096 + kDefaultLogSize;

    /**
     * Create a fresh pool image.
     *
     * @param name User-visible pool name (like a file name).
     * @param pool_id System-wide id assigned by the registry; nonzero.
     * @param size Total pool bytes; clamped to [kMinSize, 4 GB].
     * @param log_size Bytes reserved for the undo-log region.
     * @param log_slots Undo-log slots the region is carved into (one
     *        per concurrent worker thread); 1 = the classic layout,
     *        byte-identical to pools created before slots existed.
     */
    Pool(std::string name, uint32_t pool_id, uint64_t size,
         uint32_t log_size = kDefaultLogSize, uint32_t log_slots = 1);

    /**
     * Reopen a pool from a durable image (recovery path). The image
     * becomes both the durable and the working copy. The superblock is
     * checksum-verified: a corrupt primary repairs from the mirror
     * (and vice versa, during the scrub pass that follows).
     * @throws MediaError if the image is smaller than the header region
     *         or both superblock copies are invalid (bad crc or magic, a
     *         pool_size other than the image's, or a heap or log region
     *         outside the image).
     */
    Pool(std::string name, uint32_t pool_id, PoolImage durable_image);

    const std::string &name() const { return name_; }
    uint32_t id() const { return id_; }
    uint64_t size() const { return data_.size(); }
    const PoolHeader &header() const { return cachedHeader_; }

    /** Undo-log slots this pool's log region is carved into (>= 1). */
    uint32_t logSlots() const
    {
        return PoolHeader::decodeLogSlots(cachedHeader_.pad);
    }

    /** Virtual base address where this pool is currently mapped. */
    uint64_t vbase() const { return vbase_; }
    void setVbase(uint64_t vbase) { vbase_ = vbase; }

    /** Simulated virtual address of byte @p off within the pool. */
    uint64_t vaddrOf(uint32_t off) const { return vbase_ + off; }

    /** ObjectID of byte @p off within the pool. */
    ObjectID oidOf(uint32_t off) const { return ObjectID(id_, off); }

    /// @name Raw access (volatile image; marks dirty lines)
    /// @{
    void writeRaw(uint32_t off, const void *src, size_t n);

    void
    readRaw(uint32_t off, void *dst, size_t n) const
    {
        POAT_ASSERT(static_cast<uint64_t>(off) + n <= data_.size(),
                    "pool read out of range");
        data_.read(off, dst, n);
    }

    template <typename T>
    T
    readAs(uint32_t off) const
    {
        T v;
        readRaw(off, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeAs(uint32_t off, const T &v)
    {
        writeRaw(off, &v, sizeof(T));
    }
    /// @}

    /// @name Durability (CLWB / SFENCE semantics)
    /// @{
    /** CLWB the line containing @p off. */
    void clwb(uint32_t off);

    /** SFENCE: all CLWB'd lines are durable after this returns. */
    void fence();

    /** Convenience: CLWB every line in [off, off+n) then fence. */
    void persist(uint32_t off, size_t n);

    /** Number of lines spanned by [off, off+n): the CLWB count. */
    static uint32_t lineSpan(uint32_t off, size_t n);

    /**
     * Simulate cache pressure: each currently dirty, un-flushed line is
     * independently written back with probability @p num/@p den.
     * Failure-safe code must remain correct under any such schedule.
     */
    void evictRandomLines(Rng &rng, uint64_t num, uint64_t den);

    /**
     * CLWB every dirty line in ascending line order, then fence: the
     * write-backs of persist(0, size()), without visiting clean lines.
     */
    void persistAll();

    /** Simulate power failure: the working image reverts to durable. */
    void crash();

    /**
     * Copy of the durable image (what close() keeps and offline
     * recovery tests reopen); dense() of it is the on-media file.
     */
    PoolImage durableImage() const { return durable_; }

    /** Read @p n bytes at @p off of the durable image. */
    void readDurable(uint32_t off, void *dst, size_t n) const;

    /**
     * True iff the working image has a page allocated at @p off. An
     * absent page reads as zero: nothing wrote it since the pool was
     * created, and the image it was reopened or crashed from did not
     * hold it. A scan for crc-sealed metadata can skip it.
     */
    bool
    pageResident(uint32_t off) const
    {
        return residentPage(off) != nullptr;
    }

    /**
     * Read-only view of the working image's page holding @p off: its
     * kPageSize bytes from the page's start, or nullptr while the page
     * is absent (pageResident). Scans that read a page at a time use it
     * instead of a readRaw per field. A write through the pool shows in
     * the view at once; crash() replaces the image and ends the view.
     */
    const uint8_t *
    residentPage(uint32_t off) const
    {
        POAT_ASSERT(off < data_.size(), "residency query out of range");
        return data_.page(off);
    }

    /**
     * Install (or with nullptr, remove) the fault-injection hook on
     * this pool's durability path. Not owned; must outlive the pool or
     * be removed first.
     */
    void setDurabilityHook(DurabilityHook *hook) { hook_ = hook; }
    DurabilityHook *durabilityHook() const { return hook_; }

    void setDurabilityPolicy(DurabilityPolicy p) { policy_ = p; }
    DurabilityPolicy durabilityPolicy() const { return policy_; }

    /** Count of lines dirty in cache and not yet written back. */
    size_t dirtyLineCount() const { return dirty_.size(); }

    /**
     * Lines CLWB'd but not yet retired by a fence (Strict policy),
     * sorted ascending — the set a fence would drain right now. Always
     * empty under the Eager policy.
     */
    std::vector<uint32_t> stagedLines() const;
    /// @}

    /** Re-read the cached header copy from the working image. */
    void refreshHeader();

    /**
     * Seal @p h and write both superblock copies (primary then mirror)
     * into the working image; the caller persists them. Also updates
     * the cached header.
     */
    void storeHeader(PoolHeader h);

    /** Persist both superblock copies (after storeHeader). */
    void persistHeader();

    /**
     * Media-fault injection: overwrite @p n bytes at @p off of the
     * DURABLE image directly, bypassing the store/CLWB path — the model
     * of NVM losing or corrupting bits at rest. Call crash() afterwards
     * to expose the corruption to the working image, as a reboot would.
     */
    void corruptDurable(uint32_t off, const void *src, size_t n);

    /**
     * Persist the words of @p mask from the line image @p bytes into
     * line @p line of the DURABLE image: bit w carries bytes [8w, 8w+8)
     * (DurabilityHook's word-mask convention). kFullLineMask is a whole
     * write-back; any other mask tears the line, and the words it
     * leaves out keep their durable contents. Every write-back persists
     * through this, and the crash explorer rebuilds crashed images
     * from a recorded write-back stream with it.
     */
    void persistLineWords(uint32_t line, const uint8_t *bytes,
                          uint8_t mask);

    /**
     * Host-side checksum work accounting. Each pool defaults to a
     * private counter block; the registry points all of its pools at
     * one shared block so `pmem.checksum.*` aggregates per process.
     */
    ChecksumCounters &checksumCounters()
    {
        return counters_ ? *counters_ : ownCounters_;
    }

    /**
     * Point this pool at a shared counter block (nullptr reverts to the
     * private one). Work already counted privately — e.g. header seals
     * during construction, before the registry wires the shared block —
     * is folded into @p c so nothing is lost.
     */
    void
    setChecksumCounters(ChecksumCounters *c)
    {
        if (c && counters_ != c) {
            c->merge(ownCounters_);
            ownCounters_ = ChecksumCounters{};
        }
        counters_ = c;
    }

  private:
    void writeBackLine(uint32_t line, WriteBackCause cause);

    std::string name_;
    uint32_t id_;
    uint64_t vbase_ = 0;
    PoolImage data_;    ///< working image (memory + caches)
    PoolImage durable_; ///< NVM image
    std::unordered_set<uint32_t> dirty_;  ///< lines modified, not flushed
    std::unordered_set<uint32_t> staged_; ///< lines CLWB'd, fence pending
    DurabilityPolicy policy_ = DurabilityPolicy::Eager;
    DurabilityHook *hook_ = nullptr; ///< not owned; may be null
    PoolHeader cachedHeader_{};
    ChecksumCounters ownCounters_{};
    ChecksumCounters *counters_ = nullptr; ///< shared block, if any
};

} // namespace poat

#endif // POAT_PMEM_POOL_H
