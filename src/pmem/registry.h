/**
 * @file
 * Process-level pool registry: pool_create / pool_open / pool_close.
 *
 * The registry plays the role of the OS plus filesystem for pools: it
 * assigns system-wide pool ids at creation, keeps durable images of
 * closed pools (the "disk"), maps open pools at randomized virtual bases
 * through the AddressSpace, and attaches each open pool's allocator and
 * undo log. Reopening a pool runs the allocator's self-healing scan and
 * undo-log recovery, so a crash-then-open cycle lands on a consistent
 * image.
 *
 * Id-indexed table. Pool ids are dense and never reused: they count up
 * from 1, one per create() or importPool(). Open pools therefore live
 * in a vector indexed by id, whose slot is empty while the pool is
 * closed (or imported and not yet opened) and slot 0 stays empty for
 * OID_NULL. Resolving an ObjectID's pool — find()/get(), on every
 * persistent access — is an index and a null check, and walking the
 * table visits open pools in ascending id order.
 */
#ifndef POAT_PMEM_REGISTRY_H
#define POAT_PMEM_REGISTRY_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pmem/addrspace.h"
#include "pmem/alloc.h"
#include "pmem/pool.h"
#include "pmem/scrub.h"
#include "pmem/tx.h"

namespace poat {

/**
 * An open pool bundled with its runtime helpers.
 *
 * Concurrency: a pool created with log_slots > 1 gets one UndoLog per
 * slot — `log` is slot 0 (so all single-threaded code keeps its exact
 * shape) and extra_logs holds slots 1..n-1. Worker thread t drives
 * slot t, giving each concurrent transaction a private write-ahead log
 * carved from the shared region.
 */
struct OpenPool
{
    /** Create-fresh constructor. */
    OpenPool(std::string name, uint32_t id, uint64_t size,
             uint32_t log_size, uint32_t log_slots = 1)
        : pool(std::move(name), id, size, log_size, log_slots),
          alloc(pool), log(pool, alloc)
    {
        makeExtraLogs();
    }

    /**
     * Reopen-from-image constructor: scrubs the image for media faults
     * (repairing or throwing MediaError), then runs the allocator scan.
     */
    OpenPool(std::string name, uint32_t id, PoolImage image)
        : pool(std::move(name), id, std::move(image)),
          alloc(scrubbed(pool, open_scrub)), log(pool, alloc)
    {
        makeExtraLogs();
    }

    Pool pool;
    /** Results of the reopen-time scrub (zeros for a created pool). */
    ScrubStats open_scrub{};
    PoolAllocator alloc;
    UndoLog log; ///< slot 0; the only slot of a single-slot pool
    /** Undo-log slots 1..n-1 of a multi-slot pool (stable addresses). */
    std::vector<std::unique_ptr<UndoLog>> extra_logs;

    /** Undo-log slots this pool carries (>= 1). */
    uint32_t logSlotCount() const
    {
        return 1 + static_cast<uint32_t>(extra_logs.size());
    }

    /** The UndoLog bound to @p slot (0 = `log`). */
    UndoLog &
    logSlot(uint32_t slot)
    {
        POAT_ASSERT(slot < logSlotCount(), "log slot out of range");
        return slot == 0 ? log : *extra_logs[slot - 1];
    }

    /** Invoke @p fn on every slot's UndoLog, slot order. */
    template <typename Fn>
    void
    forEachLog(Fn &&fn)
    {
        fn(log);
        for (auto &l : extra_logs)
            fn(*l);
    }

    /** True if any slot has a live (uncommitted) transaction. */
    bool
    anyLogActive() const
    {
        if (log.active())
            return true;
        for (const auto &l : extra_logs)
            if (l->active())
                return true;
        return false;
    }

  private:
    void
    makeExtraLogs()
    {
        for (uint32_t s = 1; s < UndoLog::slotCount(pool.header()); ++s)
            extra_logs.push_back(std::make_unique<UndoLog>(pool, alloc, s));
    }

    /** Scrub before the allocator ever reads a (possibly corrupt) heap. */
    static Pool &
    scrubbed(Pool &p, ScrubStats &st)
    {
        st = scrubPool(p);
        return p;
    }
};

/** Registry of pools for one simulated process. */
class PoolRegistry
{
  public:
    explicit PoolRegistry(uint64_t aslr_seed = 1) : space_(aslr_seed) {}

    /**
     * Create a pool named @p name of @p size total bytes, map it, and
     * return it. Fails fatally if the name already exists.
     * @param log_slots Undo-log slots (one per worker thread; 1 = the
     *        classic single-log layout).
     */
    OpenPool &create(const std::string &name, uint64_t size,
                     uint32_t log_size = Pool::kDefaultLogSize,
                     uint32_t log_slots = 1);

    /**
     * Reopen a previously created (and closed) pool by name, running
     * recovery. Fails fatally if the name is unknown or already open.
     */
    OpenPool &open(const std::string &name);

    /** Close a pool: unmap it and keep its durable image on "disk". */
    void close(uint32_t pool_id);

    /** Look up an open pool by id; nullptr if not open. */
    OpenPool *
    find(uint32_t pool_id)
    {
        return pool_id < open_.size() ? open_[pool_id].get() : nullptr;
    }

    const OpenPool *
    find(uint32_t pool_id) const
    {
        return pool_id < open_.size() ? open_[pool_id].get() : nullptr;
    }

    /** Look up an open pool by id; fatal if not open. */
    OpenPool &
    get(uint32_t pool_id)
    {
        OpenPool *op = find(pool_id);
        if (!op)
            POAT_FATAL("access to a pool that is not open");
        return *op;
    }

    /**
     * Write a pool's durable image to @p path (the pool may be open or
     * closed). The format is the on-media pool layout itself, so the
     * file can be inspected offline (tools/pool_inspect) and imported
     * into another registry or process run.
     */
    void exportPool(const std::string &name, const std::string &path);

    /**
     * Load a pool image from @p path onto this registry's "disk" under
     * @p name; open it with open(name) afterwards (which runs
     * recovery). Fatal if the name already exists or the file cannot
     * be read.
     * @throws MediaError (Superblock) if the file is smaller than the
     *         pool header, has a bad magic, or a size other than the
     *         one its header records.
     */
    void importPool(const std::string &name, const std::string &path);

    /** Simulate a machine-wide power failure across all open pools. */
    void crashAll();

    /**
     * Run recovery on every open pool (after crashAll): scrub the
     * durable image for media faults (repair or throw MediaError),
     * rescan the allocator, then replay the undo log.
     */
    void recoverAll();

    /** Merged scrub results of the most recent recoverAll(). */
    const ScrubStats &lastScrubStats() const { return lastScrub_; }

    /** Process-wide checksum work counters (shared by all pools). */
    const ChecksumCounters &checksumCounters() const { return counters_; }

    /**
     * Install @p hook (may be nullptr to remove) on the durability path
     * of every open pool and of every pool created or opened later.
     * Not owned; the hook must outlive the registry or be removed.
     */
    void setDurabilityHook(DurabilityHook *hook);

    /**
     * Switch the durability policy (Eager CLWB write-back vs Strict
     * fence-retired staging) of every open pool and of every pool
     * created or opened later. The crash-point explorer uses Strict to
     * generate fence-drain batches; everything else defaults to Eager.
     */
    void setDurabilityPolicy(DurabilityPolicy policy);
    DurabilityPolicy durabilityPolicy() const { return policy_; }

    size_t openCount() const;
    AddressSpace &addressSpace() { return space_; }

    /** Ids of all currently open pools (ascending). */
    std::vector<uint32_t> openIds() const;

  private:
    /** Take the next pool id; its table slot starts empty. */
    uint32_t
    takeId()
    {
        open_.emplace_back();
        return static_cast<uint32_t>(open_.size() - 1);
    }

    /** Map a freshly constructed pool and wire it to the registry. */
    void attach(OpenPool &op);

    AddressSpace space_;
    ScrubStats lastScrub_{};      ///< merged over the last recoverAll
    ChecksumCounters counters_{}; ///< shared by every pool we open
    DurabilityHook *hook_ = nullptr; ///< installed on every pool
    DurabilityPolicy policy_ = DurabilityPolicy::Eager;
    /**
     * Open pools indexed by id (see file comment); null while closed.
     * Its size is the next id to assign; slot 0 (OID_NULL) stays null.
     */
    std::vector<std::unique_ptr<OpenPool>> open_ =
        std::vector<std::unique_ptr<OpenPool>>(1);
    std::unordered_map<std::string, uint32_t> idByName_;
    std::unordered_map<std::string, PoolImage> disk_;
};

} // namespace poat

#endif // POAT_PMEM_REGISTRY_H
