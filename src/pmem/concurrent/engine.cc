#include "pmem/concurrent/engine.h"

#include "common/logging.h"

namespace poat {
namespace concurrent {

ConcurrentEngine::ConcurrentEngine(PmemRuntime &rt, DetScheduler &sched,
                                   const EngineOptions &opts)
    : rt_(rt), sched_(sched), opts_(opts),
      table_(opts.threads == 0 ? 1 : opts.threads),
      gc_(rt, opts.commit_window)
{
    POAT_ASSERT(opts_.threads >= 1, "engine needs at least one worker");
    // Observability only: the lock manager narrates waits/grants/
    // deadlocks into the runtime's sink. Grant order is unaffected.
    locks_.setSink(&rt_.sink());
}

void
ConcurrentEngine::run(const std::function<void(uint32_t)> &body)
{
    rt_.setCommitFenceBatching(opts_.commit_window > 1);
    sched_.setSwitchHandler([this](uint32_t t) {
        // Order matters: select the worker context first so anything
        // the sink's consumers read back from the runtime is already
        // the incoming worker's, then retarget the simulated core.
        rt_.setWorker(t);
        rt_.sink().coreSwitch(t);
    });

    sched_.run(opts_.threads, [this, &body](uint32_t t) {
        body(t);
        // Observer: lets profilers distinguish "done" from "blocked"
        // for the rest of the run. Carries no cycles.
        rt_.sink().note({NoteKind::WorkerDone, {t}});
    });

    gc_.close();
    rt_.setCommitFenceBatching(false);
    sched_.setSwitchHandler({});
    rt_.setWorker(0);
    if (opts_.threads > 1)
        rt_.sink().coreSwitch(0);
}

void
ConcurrentEngine::txRun(const std::function<void()> &fn)
{
    const uint32_t w = sched_.self();
    for (uint32_t attempt = 0;; ++attempt) {
        table_.noteBegin(w, attempt > 0);
        try {
            fn();
            if (opts_.commit_window > 1)
                rt_.sink().note({NoteKind::CommitJoin, {w}});
            gc_.commit();
            locks_.releaseAll(w);
            table_.noteCommit(w);
            return;
        } catch (const DeadlockAbort &) {
            // fn unwound; any TxScope inside already rolled its undo
            // transaction back, but a raw txBegin may still be open.
            if (rt_.txActive())
                rt_.txAbort();
            locks_.releaseAll(w);
            table_.noteAbort(w);
            POAT_ASSERT(attempt + 1 < opts_.max_retries,
                        "transaction retry budget exhausted (livelock?)");
            if (retryHook_)
                retryHook_(w);
        }
        // Back off one yield point so a conflicting transaction can
        // finish before the retry re-collides. Outside the handler:
        // workers share their host thread's caught-exception stack.
        sched_.yield();
    }
}

EngineStats
ConcurrentEngine::stats() const
{
    EngineStats s;
    s.commits = table_.totalCommits();
    s.aborts = table_.totalAborts();
    s.retries = table_.totalRetries();
    s.lock_acquisitions = locks_.acquisitions();
    s.lock_waits = locks_.waits();
    s.deadlocks = locks_.deadlocks();
    s.gc_windows = gc_.windows();
    s.gc_members = gc_.members();
    s.fences_elided = gc_.fencesElided();
    s.switches = sched_.switches();
    return s;
}

} // namespace concurrent
} // namespace poat
