/**
 * @file
 * Group-commit coordinator: batches the SFENCEs of transactions that
 * commit in the same window.
 *
 * While a window is open the runtime withholds every commit-path fence
 * (PmemRuntime::setCommitFenceBatching); when the window fills — or
 * the engine drains it at the end of a run — ONE fence is emitted on
 * the committing worker's core, standing for all of them. The win is
 * purely a timing effect in the simulated instruction stream: the
 * host-side undo logs persist with real per-transaction ordering
 * regardless, so crash consistency and recovery are identical with
 * batching on or off (the explorer exercises exactly this).
 */
#ifndef POAT_PMEM_CONCURRENT_GROUPCOMMIT_H
#define POAT_PMEM_CONCURRENT_GROUPCOMMIT_H

#include <algorithm>
#include <cstdint>

#include "pmem/runtime.h"

namespace poat {
namespace concurrent {

/** Windowed commit-fence batching over one PmemRuntime. */
class GroupCommit
{
  public:
    /**
     * @param window commits per window; <= 1 disables batching (every
     *        commit fences itself, the classic behavior).
     */
    GroupCommit(PmemRuntime &rt, uint32_t window)
        : rt_(rt), window_(window == 0 ? 1 : window)
    {
    }

    /**
     * Commit the active worker's open transactions as a member of the
     * current window; closes the window when it fills.
     */
    void
    commit()
    {
        if (rt_.txActive())
            rt_.txEnd();
        if (window_ <= 1)
            return;
        ++members_;
        ++inWindow_;
        if (inWindow_ >= window_)
            close();
    }

    /** Drain a partial window (end of run); safe when empty. */
    void
    close()
    {
        if (window_ <= 1)
            return;
        const uint64_t elided = rt_.flushCommitFences();
        fencesElided_ += elided;
        if (inWindow_ > 0) {
            rt_.sink().note({NoteKind::CommitBatch,
                             {inWindow_, static_cast<uint32_t>(elided)}});
            ++windows_;
            maxWindow_ = std::max(maxWindow_, inWindow_);
            inWindow_ = 0;
        }
    }

    uint32_t window() const { return window_; }

    /// @name Statistics
    /// @{
    uint64_t windows() const { return windows_; }     ///< windows closed
    uint64_t members() const { return members_; }     ///< commits batched
    uint64_t fencesElided() const { return fencesElided_; }
    uint32_t maxWindow() const { return maxWindow_; } ///< fullest window
    /// @}

  private:
    PmemRuntime &rt_;
    const uint32_t window_;
    uint32_t inWindow_ = 0;
    uint32_t maxWindow_ = 0;
    uint64_t windows_ = 0;
    uint64_t members_ = 0;
    uint64_t fencesElided_ = 0;
};

} // namespace concurrent
} // namespace poat

#endif // POAT_PMEM_CONCURRENT_GROUPCOMMIT_H
