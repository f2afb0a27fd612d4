/**
 * @file
 * ConcurrentEngine: ties the cooperative scheduler, the lock manager,
 * the transaction table, and the group-commit coordinator into the
 * execution harness concurrent workloads run on.
 *
 * A workload calls run(body): the engine installs a switch handler
 * that, on every control transfer, selects the incoming worker's
 * runtime context (PmemRuntime::setWorker — undo-log slot, load-tag
 * chain, open-transaction set) and emits TraceSink::coreSwitch so the
 * simulated machine retires the worker's instructions on its own core.
 * Inside the body, txRun(fn) executes fn as one transaction under
 * strict two-phase locking with deadlock abort-retry: a DeadlockAbort
 * unwinds fn, the engine rolls back the undo transaction, releases the
 * worker's locks, notifies the retry hook (the driver counts retries
 * on the simulated core), backs off one yield, and re-executes.
 */
#ifndef POAT_PMEM_CONCURRENT_ENGINE_H
#define POAT_PMEM_CONCURRENT_ENGINE_H

#include <cstdint>
#include <functional>

#include "pmem/concurrent/groupcommit.h"
#include "pmem/concurrent/lockmgr.h"
#include "pmem/concurrent/sched.h"
#include "pmem/concurrent/txtable.h"
#include "pmem/runtime.h"

namespace poat {
namespace concurrent {

/** Knobs for one engine instance. */
struct EngineOptions
{
    uint32_t threads = 2;
    /** Commits per group-commit window (<= 1 disables batching). */
    uint32_t commit_window = 4;
    /** Abort-retry budget per transaction before declaring livelock. */
    uint32_t max_retries = 64;
};

/** Aggregated concurrency statistics of one engine run. */
struct EngineStats
{
    uint64_t commits = 0;
    uint64_t aborts = 0;  ///< deadlock aborts
    uint64_t retries = 0; ///< re-executions after aborts
    uint64_t lock_acquisitions = 0;
    uint64_t lock_waits = 0;
    uint64_t deadlocks = 0;
    uint64_t gc_windows = 0;
    uint64_t gc_members = 0;
    uint64_t fences_elided = 0;
    uint64_t switches = 0;
};

/** The concurrent-transaction execution harness. */
class ConcurrentEngine
{
  public:
    ConcurrentEngine(PmemRuntime &rt, DetScheduler &sched,
                     const EngineOptions &opts);

    /**
     * Run @p body(worker) on every worker under the scheduler. Not
     * reentrant. Restores worker 0 and emits a final coreSwitch(0)
     * before returning, so subsequent single-threaded emission lands
     * on core 0.
     */
    void run(const std::function<void(uint32_t)> &body);

    /**
     * Execute @p fn as one transaction with deadlock abort-retry.
     * @p fn opens undo transactions as usual (txBegin or TxScope) and
     * takes locks via lockShared/lockExclusive; the engine commits
     * through the group-commit window and releases all locks after.
     * Only call from inside a body passed to run().
     */
    void txRun(const std::function<void()> &fn);

    /** Acquire a Shared lock for the calling worker (waits). */
    void
    lockShared(uint64_t key)
    {
        locks_.acquire(sched_.self(), key, LockMode::Shared, sched_);
    }

    /** Acquire an Exclusive lock for the calling worker (waits). */
    void
    lockExclusive(uint64_t key)
    {
        locks_.acquire(sched_.self(), key, LockMode::Exclusive, sched_);
    }

    /** A cooperative yield point (workloads sprinkle these). */
    void yield() { sched_.yield(); }

    /** Worker id of the calling body. */
    uint32_t self() const { return sched_.self(); }

    /**
     * Hook invoked (with the worker id) on every abort-retry; the
     * driver charges the simulated core's retry penalty here. The
     * engine itself never touches the simulator.
     */
    void setRetryHook(std::function<void(uint32_t)> hook)
    {
        retryHook_ = std::move(hook);
    }

    PmemRuntime &runtime() { return rt_; }
    DetScheduler &scheduler() { return sched_; }
    LockManager &locks() { return locks_; }
    TxTable &table() { return table_; }
    GroupCommit &groupCommit() { return gc_; }
    const EngineOptions &options() const { return opts_; }

    /** Aggregate statistics (valid during and after run()). */
    EngineStats stats() const;

  private:
    PmemRuntime &rt_;
    DetScheduler &sched_;
    EngineOptions opts_;
    LockManager locks_;
    TxTable table_;
    GroupCommit gc_;
    std::function<void(uint32_t)> retryHook_;
};

} // namespace concurrent
} // namespace poat

#endif // POAT_PMEM_CONCURRENT_ENGINE_H
