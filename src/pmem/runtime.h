/**
 * @file
 * PmemRuntime: the programmer-facing persistent memory API (paper
 * Table 1) in both evaluated flavors.
 *
 * TranslationMode::Software is the BASE system: every object dereference
 * calls the software oid_direct (SoftwareTranslator), and data accesses
 * are ordinary loads/stores at the pool's mapped address, which is what
 * oid_direct returns. TranslationMode::Hardware is the OPT system:
 * dereferences are free and data accesses are nvld/nvst events carrying
 * the ObjectID, translated by the simulated POLB/POT.
 *
 * The two differ in one place: four private emitters (emitTranslate,
 * emitLoad, emitStore, emitClwb) are the only code that reads the mode,
 * and every library and data access goes through them. Both systems so
 * emit the same logical stream: the CrossConfig suite and
 * Workloads.BaseAndOptStreamsMatchForLhtAndTpcc
 * (tests/workloads/workloads_test.cc) hold them to it.
 *
 * Durability emission can be disabled (the *_NTX configurations): library
 * paths then skip CLWB/fence events. Host-side semantics (the real undo
 * log, the real durable image) are unaffected by the mode — BASE and OPT
 * runs of the same workload produce byte-identical persistent state,
 * which the integration tests assert.
 */
#ifndef POAT_PMEM_RUNTIME_H
#define POAT_PMEM_RUNTIME_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "pmem/costs.h"
#include "pmem/registry.h"
#include "pmem/trace.h"
#include "pmem/translate.h"

namespace poat {

/** Which translation machinery dereferences pay for (paper Table 7). */
enum class TranslationMode : uint8_t
{
    Software, ///< BASE: oid_direct in software
    Hardware, ///< OPT: nvld/nvst with POLB/POT translation
};

/** Construction options for a runtime instance. */
struct RuntimeOptions
{
    TranslationMode mode = TranslationMode::Software;
    /** Emit CLWB/fence events in library paths (off for *_NTX). */
    bool durability = true;
    /** Seed for ASLR-style placement; fixed seed => replayable layout. */
    uint64_t aslr_seed = 1;
    /**
     * BASE-side ablation: disable oid_direct's most-recent-translation
     * predictor so every software translation pays the full lookup.
     */
    bool base_predictor = true;

    /**
     * Undo-log slots carved into every pool this runtime creates: one
     * per concurrent worker thread. 1 (the default) keeps the classic
     * single-log layout and a byte-identical pool image.
     */
    uint32_t log_slots = 1;
};

/**
 * A dereferenced object: what the paper's programmer juggles manually.
 *
 * It carries the ObjectID and two value tags for dependence tracking:
 * the tag of the translation's base-address load (Software mode; a
 * data access's address depends on it) and the tag of whatever load
 * produced the ObjectID (pointer chase). The address itself is the
 * pool's mapped base plus the offset, so it is not stored.
 */
struct ObjectRef
{
    ObjectID oid{};
    uint64_t dep_a = kNoDep; ///< translation result tag (Software)
    uint64_t dep_b = kNoDep; ///< tag of the load that produced the oid

    bool isNull() const { return oid.isNull(); }
};

/** The persistent-memory programming interface. */
class PmemRuntime
{
  public:
    explicit PmemRuntime(const RuntimeOptions &opts = {},
                         TraceSink *sink = nullptr);

    /// @name Pool management
    /// @{
    /** pool_create: create, map, and register a pool. @return pool id */
    uint32_t poolCreate(const std::string &name, uint64_t size,
                        uint32_t log_size = Pool::kDefaultLogSize);

    /** pool_open: reopen a closed pool (with recovery). @return id */
    uint32_t poolOpen(const std::string &name);

    /** pool_close: unmap and deregister. */
    void poolClose(uint32_t pool_id);

    /**
     * pool_root: ObjectID of the pool's root object, allocating it (and
     * zeroing it) with @p size bytes on first use.
     */
    ObjectID poolRoot(uint32_t pool_id, uint32_t size);
    /// @}

    /// @name Object management
    /// @{
    /** pmalloc: allocate @p size bytes in @p pool_id. Fatal if full. */
    ObjectID pmalloc(uint32_t pool_id, uint32_t size);

    /** pfree: release the object at @p oid. */
    void pfree(ObjectID oid);
    /// @}

    /// @name Translation and data access
    /// @{
    /**
     * Dereference an ObjectID: the BASE system's oid_direct call (with
     * its full instruction cost) or a free operation under OPT.
     * @param oid_tag value tag of the load that produced @p oid, when it
     *        was read out of another persistent object (pointer chase).
     */
    ObjectRef deref(ObjectID oid, uint64_t oid_tag = kNoDep);

    /** Read a scalar field at @p ref.oid + @p off. */
    template <typename T>
    T
    read(const ObjectRef &ref, uint32_t off = 0)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Pool &pool = poolOf(ref).pool;
        emitRead(pool, ref, off, sizeof(T));
        return pool.readAs<T>(ref.oid.offset() + off);
    }

    /** Write a scalar field at @p ref.oid + @p off. */
    template <typename T>
    void
    write(const ObjectRef &ref, uint32_t off, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Pool &pool = poolOf(ref).pool;
        emitWrite(pool, ref, off, sizeof(T));
        pool.writeAs<T>(ref.oid.offset() + off, v);
    }

    /** Bulk read of @p n bytes starting at @p ref.oid + @p off. */
    void readBytes(const ObjectRef &ref, uint32_t off, void *dst, size_t n);

    /** Bulk write of @p n bytes starting at @p ref.oid + @p off. */
    void writeBytes(const ObjectRef &ref, uint32_t off, const void *src,
                    size_t n);

    /** Value tag of the most recent data load (for chase chains). */
    uint64_t lastLoadTag() const { return cur().lastLoadTag; }
    /// @}

    /// @name Durability
    /// @{
    /** persist(oid, size): CLWB the range, then fence. */
    void persist(ObjectID oid, uint32_t size);
    /// @}

    /// @name Failure safety
    ///
    /// Each pool has its own undo log (as in NVML); a logical operation
    /// that spans pools opens one transaction per pool, and txEnd()
    /// commits them in pool-id order. Atomicity is per pool: this is
    /// the same contract NVML's single-pool transactions give a
    /// multi-pool data structure.
    /// @{
    void txBegin(uint32_t pool_id);
    void txAddRange(ObjectID oid, uint32_t size);
    ObjectID txPmalloc(uint32_t pool_id, uint32_t size);
    void txPfree(ObjectID oid);
    void txEnd();
    void txAbort();

    /**
     * Tag subsequent transactions with the logical workload operation
     * @p name ("insert", "new_order", ...). Interns the name to a small
     * id (announced to the sink once in an OpName note) and stamps it
     * into every TxBegin note until the next setOp. Purely
     * observational: emits no instructions.
     */
    void setOp(const char *name);
    bool txActive() const { return !cur().txPools.empty(); }
    bool txActiveOn(uint32_t pool_id) const
    {
        return cur().txPools.count(pool_id) != 0;
    }
    /// @}

    /// @name Concurrency (worker threads and group commit)
    ///
    /// Worker model: the deterministic scheduler serializes worker
    /// threads (one runs at a time), and setWorker() selects whose
    /// context — open transactions, load-tag chain, operation tag —
    /// subsequent calls run under. Worker t of a multi-slot pool
    /// drives undo-log slot t % slots, so concurrent transactions
    /// never share a write-ahead log. Single-threaded code never calls
    /// setWorker and runs entirely as worker 0, bit-identical to the
    /// pre-concurrency runtime.
    /// @{
    /** Switch the active worker context (grown on first use). */
    void setWorker(uint32_t worker);

    /** The active worker id. */
    uint32_t worker() const { return worker_; }

    /**
     * Group-commit fence batching. While on, the fences the commit
     * emission path (txEnd) would issue are withheld and counted; the
     * group-commit coordinator ends a window by calling
     * flushCommitFences(), which emits ONE fence covering every
     * withheld one. Emission-side only: the host-side undo logs
     * persist with real per-transaction fences regardless, so crash
     * consistency is unaffected — batching models the *timing* win of
     * amortizing SFENCE stalls across a commit window.
     */
    void setCommitFenceBatching(bool on) { fenceBatch_ = on; }

    /**
     * Close a group-commit window: emit one fence standing for every
     * withheld commit fence. @return fences elided (withheld - 1, or 0
     * if the window was empty) — the group-commit win.
     */
    uint64_t flushCommitFences();

    /**
     * Undo-log bytes copied back by txAbort() over the runtime's
     * lifetime (across all workers and pools). Counted host-side from
     * the log records, so live and replayed runs agree; feeds the
     * tx.abort.undo_bytes functional-profile counter.
     */
    uint64_t abortUndoBytes() const { return abortUndoBytes_; }
    /// @}

    /// @name Workload support
    /// @{
    /** Emit @p count generic ALU instructions (workload compute). */
    void
    compute(uint32_t count, uint64_t dep = kNoDep)
    {
        sink_->alu(count, dep);
    }

    /** Emit a conditional branch (workload control flow). */
    void
    branchEvent(bool taken, uint64_t pc, uint64_t dep = kNoDep)
    {
        sink_->branch(taken, pc, dep);
    }
    /// @}

    /// @name Substrate access (tests, experiments, recovery flows)
    /// @{
    PoolRegistry &registry() { return registry_; }
    const PoolRegistry &registry() const { return registry_; }
    SoftwareTranslator &translator() { return translator_; }
    const SoftwareTranslator &translator() const { return translator_; }
    TraceSink &sink() { return *sink_; }
    void setSink(TraceSink *sink) { sink_ = sink ? sink : &nullSink_; }

    /** Power-failure simulation: crash all pools, then recover them. */
    void crashAndRecover();
    /// @}

  private:
    /** Per-worker runtime context (see setWorker). */
    struct WorkerCtx
    {
        std::set<uint32_t> txPools; ///< pools with an open transaction
        uint64_t lastLoadTag = kNoDep;
        uint32_t currentOp = 0; ///< id stamped into txBegin (0 = none)
    };

    WorkerCtx &cur() { return workers_[worker_]; }
    const WorkerCtx &cur() const { return workers_[worker_]; }

    /** The undo-log slot the active worker drives in @p op. */
    UndoLog &
    logFor(OpenPool &op)
    {
        return op.logSlot(worker_ % op.logSlotCount());
    }

    OpenPool &poolOf(const ObjectRef &ref);
    OpenPool &poolOf(ObjectID oid);

    /// @name The BASE/OPT emitters
    ///
    /// The only code that reads the translation mode. Under BASE
    /// (Software) an access to @p pool at @p off is a plain load, store
    /// or CLWB at pool.vaddrOf(off), the address oid_direct returns;
    /// under OPT (Hardware) it is the nv form on the ObjectID
    /// (pool, off). Every library and data access goes through them.
    /// @{
    /** BASE: oid_direct on @p oid; @return its value tag. OPT: nothing. */
    uint64_t emitTranslate(ObjectID oid);
    /** A load of @p pool at @p off; @return its value tag. */
    uint64_t emitLoad(const Pool &pool, uint32_t off, uint64_t dep = kNoDep,
                      uint64_t dep2 = kNoDep);
    /** A store to @p pool at @p off (address produced by @p dep). */
    void emitStore(const Pool &pool, uint32_t off, uint64_t dep = kNoDep);
    /** A CLWB of the line holding @p pool at @p off. */
    void emitClwb(const Pool &pool, uint32_t off);
    /// @}

    /** Emit the instruction(s) for a data read of @p size bytes. */
    void emitRead(const Pool &pool, const ObjectRef &ref, uint32_t off,
                  size_t size);
    /** Emit the instruction(s) for a data write of @p size bytes. */
    void emitWrite(const Pool &pool, const ObjectRef &ref, uint32_t off,
                   size_t size);

    /** Emit the library's read-modify-writes of allocator headers. */
    void emitAllocatorTouches(OpenPool &op);

    /** Store and flush both copies of @p log's header (no fence). */
    void emitLogHeader(const Pool &pool, const UndoLog &log);

    /**
     * Copy @p size bytes from @p from to @p to within @p pool, a word
     * at a time: the snapshot into a log entry and the abort copy-back.
     */
    void emitCopy(const Pool &pool, uint32_t from, uint32_t to,
                  uint32_t size);

    /** Emit the store+flush pair publishing a log append. */
    void emitLogAppend(OpenPool &op, UndoLog &log);

    /** Commit one pool's transaction (host already committed). */
    void emitCommit(OpenPool &op, UndoLog &log,
                    const std::vector<UndoLog::Record> &records);

    /** A commit-path fence: withheld when a group window is open. */
    void commitFence();

    RuntimeOptions opts_;
    NullTraceSink nullSink_;
    TraceSink *sink_;
    PoolRegistry registry_;
    SoftwareTranslator translator_;
    std::vector<WorkerCtx> workers_{1}; ///< index = worker id
    uint32_t worker_ = 0;               ///< active worker context
    bool fenceBatch_ = false;    ///< group-commit window open
    uint64_t pendingFences_ = 0; ///< commit fences withheld so far
    uint64_t abortUndoBytes_ = 0; ///< undo bytes rolled back (all time)
    std::map<std::string, uint32_t> opIds_; ///< interned setOp names
};

} // namespace poat

#endif // POAT_PMEM_RUNTIME_H
