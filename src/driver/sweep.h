/**
 * @file
 * Parallel experiment sweeps.
 *
 * Every bench binary replays dozens of independent (workload, pattern,
 * mode, machine) runs. Runs are hermetic by construction — each gets a
 * fresh PmemRuntime and a fresh sim::Machine, and all randomness is
 * seeded per run — so they can execute concurrently as long as the few
 * process-wide touch points (the experiment observer, and per-run
 * output files such as a Chrome trace or a timeline, which need
 * distinct paths) are kept per-run or serialized. runSweep() is that
 * fan-out: a fixed-size thread pool that preserves *serial semantics*:
 *
 *  - results come back in submission order, whatever the completion
 *    order was;
 *  - the process-wide experiment observer (setExperimentObserver) and
 *    the per-sweep progress callback fire on the calling thread, in
 *    submission order — never concurrently;
 *  - the first exception (by submission index) is rethrown on the
 *    calling thread after the pool has drained, exactly where a serial
 *    loop would have thrown it;
 *  - jobs = 1 runs inline on the calling thread with no pool at all,
 *    byte-identical to a hand-written runExperiment() loop.
 *
 * Because each run's telemetry is self-contained (the result carries
 * its own StatsRegistry, and each run owns its machine's observers),
 * a parallel sweep produces bit-identical ExperimentResults to a
 * serial one — tests/driver/sweep_test.cc proves this property on
 * randomized batches.
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
     * Invoked on the calling thread, in submission order, once per
     * finished run: (submission index, total, config, result). Fires
     * after the process-wide experiment observer saw the same run.
     */
    std::function<void(size_t, size_t, const ExperimentConfig &,
                       const ExperimentResult &)>
        progress;
};

/**
 * Run every config and return the results in submission order.
 *
 * Exception behavior matches a serial loop: if run i throws, runs
 * 0..i-1 are still observed (observer + progress) and the exception of
 * the *lowest* submission index is rethrown; later runs may have
 * executed but are never observed.
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
 * Generic fan-out over the sweep thread pool: invoke fn(i) for every
 * i in [0, count), up to @p jobs at a time (0 = hardware concurrency;
 * 1 = inline on the calling thread). Tasks must be hermetic, exactly
 * like sweep configs. Exception behavior matches runSweep: after the
 * pool drains, the exception from the lowest-index failing task is
 * rethrown. The crash-point fault explorer fans its trials out here.
 * The pool has sweepWorkers(jobs, count) threads.
 */
void runTasks(size_t count, unsigned jobs,
              const std::function<void(size_t)> &fn);

} // namespace driver
} // namespace poat

#endif // POAT_DRIVER_SWEEP_H
