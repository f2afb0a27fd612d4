/**
 * @file
 * Shared trial machinery for the crash-point and media-fault explorers
 * (internal to src/fault/): the recorded write-back stream, the two
 * ways a trial gets its crashed runtime (from a prefix of that stream,
 * or by re-executing the workload under a crash hook), the
 * recovered-state invariant checks, and seeded point selection. Both
 * explorers must agree on these bit-for-bit or a reproducer from one
 * would replay differently in the other.
 */
#ifndef POAT_FAULT_TRIAL_H
#define POAT_FAULT_TRIAL_H

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/explore.h"
#include "fault/injector.h"
#include "fault/reorder.h"
#include "pmem/runtime.h"
#include "workloads/crash_support.h"
#include "workloads/harness.h"

namespace poat {
namespace fault {
namespace detail {

/**
 * Completed-step counts the recovered state may legally show. A crash
 * that fired inside step s can recover to s (rolled back) or s + 1
 * (commit point was already durable); a crash during the eviction pass
 * after step i — or no crash at all — must recover to exactly the last
 * completed count, because eviction only writes back lines of data the
 * transactions already persisted.
 */
struct StepWindow
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool operator==(const StepWindow &) const = default;
};

inline uint64_t
evictSeed(const ExploreOptions &opts)
{
    return opts.seed ^ 0x9e3779b97f4a7c15ull;
}

/**
 * Runtime options for one trial: concurrent workloads need one undo-log
 * slot per engine worker, resolved as their drivers resolve it.
 */
inline RuntimeOptions
trialRuntimeOptions(const ExploreOptions &opts)
{
    RuntimeOptions ro;
    if (workloads::isConcurrentWorkload(opts.workload))
        ro.log_slots = workloads::engineWorkers(opts.threads);
    return ro;
}

inline void
maybeEvict(PmemRuntime &rt, Rng &rng, const ExploreOptions &opts)
{
    if (opts.evict_num == 0)
        return;
    for (uint32_t id : rt.registry().openIds()) {
        rt.registry().get(id).pool.evictRandomLines(rng, opts.evict_num,
                                                    opts.evict_den);
    }
}

/**
 * A fresh runtime with the workload set up, durability policy
 * included: where every recording and every trial starts. Crash hooks
 * are armed only after setup (setup is non-transactional).
 */
struct TrialRun
{
    explicit TrialRun(const ExploreOptions &opts)
        : rt(trialRuntimeOptions(opts)),
          driver(workloads::makeCrashDriver(opts.workload, opts.steps,
                                            opts.seed, opts.threads,
                                            opts.sched_seed))
    {
        if (opts.strict)
            rt.registry().setDurabilityPolicy(DurabilityPolicy::Strict);
        driver->setup(rt);
    }

    PmemRuntime rt;
    std::unique_ptr<workloads::CrashDriver> driver; ///< uses rt
};

/**
 * One durability event of a recorded run: the 64 bytes
 * Pool::writeBackLine persists for it (the volatile line when the hook
 * ran) and the phase it fired in — step `step`, or the eviction pass
 * after it.
 */
struct WriteBackEvent
{
    uint32_t pool_id = 0;
    uint32_t line = 0;
    uint64_t step = 0;
    bool evict_pass = false;
    WriteBackCause cause = WriteBackCause::Clwb;
    std::array<uint8_t, kLineSize> bytes{};

    bool operator==(const WriteBackEvent &) const = default;
};

/**
 * The durability-event stream of one uninjected run after setup. Freeze
 * semantics (injector.h) make every trial's execution identical to it,
 * so the durable image at crash point k is the setup image plus events
 * [0, k) — the crash-point space without re-running the workload.
 *
 * Checkpoints make that image cost the lines a prefix changes, not its
 * length. A prefix event persists its whole line, so events [0, 64j)
 * leave the same image as the last writer of each (pool, line) among
 * them does alone: checkpoint j lists those writers. A trial at k
 * persists checkpoint floor(k / 64), then events [64 floor(k / 64), k)
 * — at most D + 63 line writes for a run that writes D distinct lines.
 */
struct Recording
{
    /** Events between two checkpoints; a constant, not a knob. */
    static constexpr uint64_t kCheckpointEvery = 64;

    std::vector<WriteBackEvent> events;
    std::vector<DrainBatch> batches; ///< DrainProbe's grouping of events
    std::string diag;                ///< driver diagnostics() at run end

    /**
     * checkpoints[j - 1]: for each (pool, line) events [0, 64j) write
     * back, the index of its last writer, in (pool, line) order. Built
     * by addCheckpoints(); a recording without them (tests build some
     * by hand) replays every prefix from event 0.
     */
    std::vector<std::vector<uint32_t>> checkpoints;

    uint64_t
    count(WriteBackCause cause) const
    {
        uint64_t n = 0;
        for (const WriteBackEvent &e : events)
            n += e.cause == cause;
        return n;
    }
};

/**
 * Event contract: two recordings of one configuration must be
 * identical event for event (pool, line, bytes, cause, phase), or crash
 * point indices would mean different instants in different trials — a
 * nondeterministic workload must fail fast, not fuzz. Throws a
 * std::runtime_error naming both event counts.
 */
void checkEventContract(const Recording &first, const Recording &second);

/** Build @p rec's checkpoints (see Recording) from its events. */
void addCheckpoints(Recording &rec);

/**
 * Record the stream twice (two executions, fanned out over opts.jobs)
 * and return it, checkpointed, once the two pass checkEventContract.
 * Trial threads then only read it.
 */
Recording recordStream(const ExploreOptions &opts);

/** What step one of a trial hands to the post-crash checks. */
struct CrashPoint
{
    StepWindow window;   ///< phase of the first event not persisted whole
    bool fired = false;  ///< some write-back was suppressed or torn
    uint64_t events = 0; ///< durability events the execution emitted
    std::string diag;    ///< driver diagnostics() at the end of the run
};

/**
 * Step one of a trial: crash @p run at event @p k and revert it to the
 * durable image (crashAll). Events before k persist whole; with
 * @p drain, event k + i persists the words of (*drain)[i] and every
 * event past the masks nothing — CrashAtEvent(k) or CrashWithDrain(k,
 * *drain) semantics. The image is built from @p rec (a checkpoint plus
 * a tail, see Recording) when it is non-null, else by re-executing the
 * workload under the crash hook (the reference path: --repro and the
 * differential test).
 */
CrashPoint crashRun(TrialRun &run, const ExploreOptions &opts,
                    uint64_t k, const std::vector<uint8_t> *drain,
                    const Recording *rec);

/**
 * Post-recovery invariants: idle and legal undo logs, valid allocator
 * metadata, a recovered state the workload model accepts, and no
 * allocated-but-unreachable blocks. @p leaked accumulates leak counts
 * (only meaningful when the check fails with a leak).
 */
inline bool
checkRecovered(PmemRuntime &rt, workloads::CrashDriver &driver,
               const StepWindow &w, uint64_t *leaked, std::string *why)
{
    for (uint32_t id : rt.registry().openIds()) {
        OpenPool &op = rt.registry().get(id);
        // Every slot: a concurrent crash image can hold several
        // workers' undo logs in flight at once, and recovery must have
        // settled all of them.
        bool logs_idle = true;
        op.forEachLog([&logs_idle](UndoLog &log) {
            logs_idle = logs_idle && log.state() == LogHeader::kIdle;
        });
        if (!logs_idle) {
            *why = "undo log of pool '" + op.pool.name() +
                "' not idle after recovery";
            return false;
        }
        if (!op.alloc.validate()) {
            *why = "allocator metadata of pool '" + op.pool.name() +
                "' invalid after recovery";
            return false;
        }
    }
    if (!driver.verifyRecovered(rt, w.lo, w.hi, why))
        return false;
    std::map<uint32_t, std::set<uint32_t>> reach;
    if (driver.reachable(rt, &reach)) {
        uint64_t n = 0;
        for (uint32_t id : rt.registry().openIds()) {
            const std::set<uint32_t> &set = reach[id];
            for (uint32_t p :
                 rt.registry().get(id).alloc.allocatedPayloads()) {
                if (set.count(p) == 0)
                    ++n;
            }
        }
        if (n != 0) {
            *leaked += n;
            *why = std::to_string(n) +
                " allocated block(s) unreachable after recovery (leak)";
            return false;
        }
    }
    return true;
}

/** Event indices to crash at: all of [0, total) or a seeded sample. */
inline std::vector<uint64_t>
choosePoints(uint64_t total, uint64_t sample, uint64_t rng_seed)
{
    std::vector<uint64_t> ks;
    if (sample == 0 || sample >= total) {
        ks.resize(total);
        for (uint64_t i = 0; i < total; ++i)
            ks[i] = i;
        return ks;
    }
    std::set<uint64_t> chosen;
    Rng rng(rng_seed);
    while (chosen.size() < sample)
        chosen.insert(rng.below(total));
    ks.assign(chosen.begin(), chosen.end());
    return ks;
}

/** Counters one crash trial contributes; aggregated after the fan-out. */
struct TrialStats
{
    uint64_t crashes_injected = 0;
    uint64_t undo_entries_rolled_back = 0;
    uint64_t frees_redone = 0;
    uint64_t blocks_leaked = 0;
    uint64_t trials = 0;
    uint64_t recovery_trials = 0;
    uint64_t reorder_states = 0;
    uint64_t torn_states = 0;
    uint64_t max_depth = 0;
    std::vector<Failure> failures;
};

/**
 * One complete crash trial (explore.cc): crashRun at @p k (a drain
 * state when @p drain is non-null), then crash the recovery stack
 * level by level per @p stack, recover fully, and check every
 * invariant — including that recovering a second time changes nothing.
 * @return the durability events the final (completing) recovery
 *         emitted: the crash-point space one level below @p stack.
 */
uint64_t runTrial(const ExploreOptions &opts, uint64_t k,
                  const std::vector<uint64_t> &stack,
                  const std::vector<uint8_t> *drain, const Recording *rec,
                  TrialStats &ts);

/** Counters one media trial contributes; aggregated after the fan-out. */
struct MediaTrialStats
{
    uint64_t trials = 0;
    uint64_t injected = 0;
    uint64_t repaired = 0;
    uint64_t diagnosed = 0;
    uint64_t benign = 0;
    std::vector<Failure> failures;
};

/**
 * One media trial (media.cc): crashRun at @p k, inject the fault(s) in
 * @p spec into the frozen durable image, recover, and classify the
 * outcome (repaired / benign / diagnosed / Failure). See media.h.
 */
void runMediaTrial(const ExploreOptions &opts, uint64_t k,
                   const std::string &spec, const Recording *rec,
                   MediaTrialStats &ts);

} // namespace detail
} // namespace fault
} // namespace poat

#endif // POAT_FAULT_TRIAL_H
