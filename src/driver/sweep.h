/**
 * @file
 * Parallel experiment sweeps.
 *
 * Every bench binary replays dozens of independent (workload, pattern,
 * mode, machine) runs. Runs are hermetic by construction — each gets a
 * fresh PmemRuntime and a fresh sim::Machine, all randomness is seeded
 * per run, and a run's telemetry travels only in its result — so they
 * can execute concurrently as long as their per-run output files (a
 * Chrome trace, a timeline) have distinct paths. runTasks() is the one
 * fan-out: a fixed-size thread pool over task indices. runSweep() runs
 * each config as one task and preserves *serial semantics*:
 *
 *  - results come back in submission order, whatever the completion
 *    order was; the caller records or prints them from there;
 *  - with a trace cache, the first submission of each functional
 *    fingerprint captures the trace and the group's later submissions
 *    wait for that capture and replay it;
 *  - the first exception (by submission index) is rethrown on the
 *    calling thread after the pool has drained, exactly where a serial
 *    loop would have thrown it;
 *  - jobs = 1 runs inline on the calling thread with no pool at all,
 *    byte-identical to a hand-written runExperiment() loop.
 *
 * A parallel sweep produces bit-identical ExperimentResults to a serial
 * one — tests/driver/sweep_test.cc proves this property on randomized
 * batches.
 */
#ifndef POAT_DRIVER_SWEEP_H
#define POAT_DRIVER_SWEEP_H

#include <cstddef>
#include <functional>
#include <vector>

#include "driver/experiment.h"

namespace poat {
namespace driver {

/** How a sweep executes its configs. */
struct SweepOptions
{
    /**
     * Worker threads; 0 = std::thread::hardware_concurrency(). 1 runs
     * everything inline on the calling thread (serial semantics with no
     * pool). The pool never exceeds the number of configs or
     * kMaxSweepJobs (sweepWorkers).
     */
    unsigned jobs = 0;

    /**
     * Invoked once per finished run, failed runs included, as
     * (finished, total): finished counts 1, 2, ..., total. Calls are
     * serialized under the sweep's lock but come from whichever thread
     * finished the run, in completion order.
     */
    std::function<void(size_t, size_t)> progress;
};

/**
 * Run every config and return the results in submission order.
 *
 * Exception behavior matches a serial loop: if run i throws, the
 * exception of the *lowest* failing submission index is rethrown once
 * every started run has finished; no results are returned.
 */
std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &configs,
         const SweepOptions &opts = {});

/** The jobs count `jobs = 0` resolves to (>= 1). */
unsigned defaultSweepJobs();

/**
 * Ceiling on a sweep's worker threads: the bound every worker count in
 * poat already has (PoolHeader::kMaxLogSlots, one undo-log slot per
 * engine worker). A larger --jobs gains nothing on any real host and
 * must not ask the OS for one thread per task.
 */
inline constexpr unsigned kMaxSweepJobs = 256;

/**
 * Worker threads a fan-out of @p tasks runs on: @p jobs, with 0
 * resolved to defaultSweepJobs(), clamped to the task count (at least
 * 1) and to kMaxSweepJobs. Results are submission-ordered, so the
 * clamp never changes a sweep's output.
 */
unsigned sweepWorkers(unsigned jobs, size_t tasks);

/**
 * The sweep thread pool: invoke fn(i) for every i in [0, count), up to
 * @p jobs at a time (0 = hardware concurrency; 1 = inline on the
 * calling thread). Workers claim indices in increasing order, so a task
 * may wait for a lower-index task that never waits itself (runSweep's
 * replays wait for their capture). After the pool drains, the exception
 * from the lowest-index failing task is rethrown. runSweep and the
 * crash-point fault explorers fan out here. The pool has
 * sweepWorkers(jobs, count) threads.
 */
void runTasks(size_t count, unsigned jobs,
              const std::function<void(size_t)> &fn);

} // namespace driver
} // namespace poat

#endif // POAT_DRIVER_SWEEP_H
