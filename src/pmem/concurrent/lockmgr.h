/**
 * @file
 * Two-phase lock manager for concurrent persistent transactions.
 *
 * Locks are named by opaque 64-bit keys (workloads pack row/object/
 * stripe identities into them) and come in Shared and Exclusive modes.
 * Waiting is FIFO — a request joins the key's queue and is granted
 * only at the queue head, so writers cannot starve — and cooperative:
 * a blocked worker yields to the scheduler and re-checks on resume.
 *
 * Deadlock handling is detection, not avoidance: before every wait the
 * manager runs a depth-first search over the waits-for graph (worker
 * w waits for the holders of its key, plus the waiters ahead of it in
 * the FIFO). If the search finds a cycle through w, the REQUESTER is
 * the victim: its request is withdrawn and DeadlockAbort is thrown,
 * unwinding the transaction body so the engine can undo-abort and
 * retry. Victim selection is thereby deterministic — the worker that
 * closes the cycle dies — which keeps multi-core runs bit-identical.
 *
 * Everything runs under the cooperative scheduler (one worker at a
 * time), so the manager's state needs no internal mutex.
 */
#ifndef POAT_PMEM_CONCURRENT_LOCKMGR_H
#define POAT_PMEM_CONCURRENT_LOCKMGR_H

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "pmem/concurrent/sched.h"
#include "pmem/trace.h"

namespace poat {
namespace concurrent {

/** Lock compatibility: Shared/Shared coexists, anything else conflicts. */
enum class LockMode : uint8_t
{
    Shared,
    Exclusive,
};

/**
 * Thrown when granting a request would close a waits-for cycle. The
 * requester is the victim; the engine catches this, aborts the undo
 * transaction, releases the worker's locks, and retries the body.
 */
class DeadlockAbort
{
  public:
    DeadlockAbort(uint32_t worker, uint64_t key)
        : worker_(worker), key_(key)
    {
    }

    uint32_t worker() const { return worker_; }
    uint64_t key() const { return key_; }

  private:
    uint32_t worker_;
    uint64_t key_;
};

/** FIFO two-phase lock manager with deadlock detection. */
class LockManager
{
  public:
    /**
     * Acquire @p key in @p mode for worker @p w, cooperatively waiting
     * through @p sched on conflict. Re-acquiring a held lock is a
     * no-op (Shared under Exclusive included); Shared->Exclusive is an
     * upgrade, granted once @p w is the sole holder (upgrades bypass
     * the FIFO, else two upgraders would block behind each other).
     * @throws DeadlockAbort if waiting would close a cycle.
     */
    void acquire(uint32_t w, uint64_t key, LockMode mode,
                 DetScheduler &sched);

    /** Acquire without waiting: true if granted immediately. */
    bool tryAcquire(uint32_t w, uint64_t key, LockMode mode);

    /** Release one lock held by @p w (fatal if not held). */
    void release(uint32_t w, uint64_t key);

    /** Release every lock @p w holds (commit/abort unlock point). */
    void releaseAll(uint32_t w);

    bool holds(uint32_t w, uint64_t key) const;

    /** Locks @p w currently holds. */
    size_t heldCount(uint32_t w) const;

    /// @name Statistics
    /// @{
    uint64_t acquisitions() const { return acquisitions_; }
    uint64_t waits() const { return waits_; }
    uint64_t deadlocks() const { return deadlocks_; }
    /// @}

    /**
     * Sink receiving the lock notes (LockWait/LockAcquired/LockReleased/
     * LockDeadlock; see common/note.h). Null (the default) emits
     * nothing. The events are pure observers — granting order,
     * victim choice, and counters are identical with or without one.
     */
    void setSink(TraceSink *sink) { sink_ = sink; }

  private:
    struct Waiter
    {
        uint32_t worker;
        LockMode mode;
    };

    struct LockState
    {
        /** Current holders; mode applies to all (Shared) or one. */
        std::vector<uint32_t> holders;
        LockMode mode = LockMode::Shared;
        std::deque<Waiter> queue;
    };

    /** Can @p w's queued request on @p key be granted right now? */
    bool grantable(const LockState &ls, uint32_t w, LockMode mode) const;

    /** Record the grant of @p key to @p w in @p mode. */
    void grant(LockState &ls, uint32_t w, LockMode mode, uint64_t key);

    /**
     * Workers @p w is (or would be) waiting for: the holders of its
     * key, plus — for FIFO waits — every waiter ahead of it.
     */
    void waitTargets(uint32_t w, std::vector<uint32_t> *out) const;

    /** Waits-for edges @p w currently has (lockWait operand). */
    uint32_t waitEdges(uint32_t w) const;

    /** DFS over the waits-for graph: does a cycle pass through @p w? */
    bool wouldDeadlock(uint32_t w) const;

    void removeWaiter(uint64_t key, uint32_t w);

    // std::map keeps iteration deterministic (diagnostics, tests).
    std::map<uint64_t, LockState> locks_;
    std::map<uint32_t, std::set<uint64_t>> held_;
    std::map<uint32_t, uint64_t> waitKey_;    ///< FIFO waits
    std::map<uint32_t, uint64_t> upgradeKey_; ///< Shared->Exclusive waits

    uint64_t acquisitions_ = 0;
    uint64_t waits_ = 0;
    uint64_t deadlocks_ = 0;

    TraceSink *sink_ = nullptr; ///< observability only; never affects grants
};

} // namespace concurrent
} // namespace poat

#endif // POAT_PMEM_CONCURRENT_LOCKMGR_H
