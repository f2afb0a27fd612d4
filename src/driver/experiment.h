/**
 * @file
 * Experiment driver: runs one (workload, pattern, configuration,
 * machine) combination end to end and returns its metrics.
 *
 * This is the engine behind every bench binary. A run executes the
 * workload natively against a fresh PmemRuntime whose TraceSink is a
 * fresh sim::Machine, so BASE and OPT runs of the same seed perform
 * identical logical work and differ only in the translation machinery —
 * exactly the paper's Table 7 comparison.
 */
#ifndef POAT_DRIVER_EXPERIMENT_H
#define POAT_DRIVER_EXPERIMENT_H

#include <functional>
#include <string>

#include "common/stats.h"
#include "sim/machine.h"
#include "workloads/harness.h"
#include "workloads/tpcc/tpcc.h"

namespace poat {
namespace driver {

/** Everything one simulated run needs. */
struct ExperimentConfig
{
    /** "LL", "BST", "SPS", "RBT", "BT", "B+T", "TPCC", "LHT", "MTPCC". */
    std::string workload = "LL";

    /// @name Microbenchmark knobs
    /// @{
    workloads::PoolPattern pattern = workloads::PoolPattern::All;
    uint32_t scale_pct = 100; ///< 100 = the paper's op counts
    /// @}

    /// @name TPC-C knobs
    /// @{
    workloads::tpcc::Placement placement =
        workloads::tpcc::Placement::All;
    uint32_t tpcc_scale_pct = 10;  ///< table cardinality scale
    uint64_t tpcc_txns = 1000;     ///< paper: 1000 transactions
    uint32_t tpcc_warehouses = 1;  ///< pool-count scaling studies
    /// @}

    /// @name Concurrency knobs (LHT / MTPCC only)
    /// @{
    /**
     * Engine workers (= simulated cores; the machine config's core
     * count is raised to this if lower). 0 =
     * workloads::kDefaultEngineWorkers (2). Sequential workloads
     * ignore all three knobs.
     */
    uint32_t threads = 0;
    uint64_t sched_seed = 0;    ///< scheduler interleaving seed (tSEED)
    uint32_t commit_window = 4; ///< group-commit window (<= 1 disables)
    /// @}

    /** Failure-safety + durability on (BASE/OPT) or off (*_NTX). */
    bool transactions = true;

    /** BASE (Software) or OPT (Hardware). */
    TranslationMode mode = TranslationMode::Software;

    /** BASE ablation: disable the software last-value predictor. */
    bool base_predictor = true;

    sim::MachineConfig machine;
    uint64_t seed = 42;

    /**
     * false = run against a CountingTraceSink instead of a simulated
     * machine: the workload executes and the software-translation
     * profile (Table 2) is collected, but cycles/metrics stay zero.
     * ~100x faster; used by profiling-only experiments.
     */
    bool timing = true;

    /**
     * Label used for telemetry (JSON run records, trace markers).
     * Empty = derive one from the config via configLabel().
     */
    std::string label;

    /**
     * Directory of captured instruction traces (empty = no caching).
     *
     * When set (and timing is on), the run first looks for a cached
     * poat-itrace file whose functional fingerprint — workload,
     * pattern, scale, transactions, mode, base_predictor, seed, and
     * the TPC-C knobs — matches this config (traceFingerprint). A hit
     * replays the captured stream into a fresh machine, skipping
     * native workload execution entirely; a miss runs live and
     * captures the stream for the next run. Replayed results are
     * bit-identical to live ones (MachineMetrics and serialized stats
     * JSON alike; enforced by tests/trace_io/). runSweep() groups
     * submissions by fingerprint so a machine-config sweep pays for
     * functional execution once per group.
     */
    std::string trace_cache;

    /**
     * Interval telemetry (src/telemetry/): cycles per timeline sample;
     * 0 = no timeline. When nonzero (and timing is on), the run's
     * machine gets a TimelineSampler writing timeline_path, sampling
     * every counter/CPI delta plus the occupancy gauges. Timing-only:
     * deliberately excluded from traceFingerprint(), so cached traces
     * survive toggling it. Observer-only: sampling reads synced stats
     * and nothing else, so metrics, aggregate stats, and checksums are
     * bit-identical with the timeline on or off (equivalence tests
     * assert this).
     */
    uint64_t timeline_interval = 0;

    /** Output path of the poat-timeline v2 stream (see above). */
    std::string timeline_path;

    /**
     * Per-core timeline lanes: when the timeline is on and the run is
     * multi-core, additionally register one blocked-reason gauge per
     * core ("sched.core.<i>.blocked.<reason>.total") so viewers render
     * a lane per core. Timing- and reporting-only, like the timeline
     * itself: deliberately excluded from traceFingerprint(), and the
     * stats report stays bit-identical with it on or off.
     */
    bool timeline_cores = false;

    /**
     * Output path of the run's Chrome trace of translation events
     * (telemetry/chrome_trace.h); empty = no trace. The run owns its
     * exporter, so concurrent runs need only distinct paths. Timing-
     * and reporting-only like the timeline: deliberately excluded from
     * traceFingerprint(), and metrics and stats are bit-identical with
     * it on or off.
     */
    std::string trace_path;
};

/** Metrics of one finished run. */
struct ExperimentResult
{
    sim::MachineMetrics metrics;

    /**
     * The run's CPI stack: every cycle charged to a named component,
     * components summing exactly to metrics.cycles (both core models;
     * see common/cpi.h). Also in stats as "core.cpi".
     */
    CpiStack cpi;
    uint64_t workload_checksum = 0;
    uint64_t workload_operations = 0;

    /**
     * Concurrency statistics (LHT/MTPCC live runs; zero otherwise).
     * Also exported as "engine.*" counters in stats, which replayed
     * runs restore from the trace sidecar.
     */
    concurrent::EngineStats engine{};

    /** Software-translation profile (BASE runs; Table 2). */
    uint64_t translate_calls = 0;
    uint64_t translate_misses = 0;
    double translate_insns_per_call = 0.0;

    /**
     * The run's full hierarchical statistics: every machine counter,
     * histogram, and formula ("polb.*", "pot.*", "cache.*", ...) plus
     * the software-translation profile ("sw_translate.*") and the
     * workload outcome ("workload.*"). See docs/OBSERVABILITY.md.
     */
    StatsRegistry stats;
};

/** Execute one experiment. */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

/** Short human/machine label for a config: "LL.RANDOM.base.inorder". */
std::string configLabel(const ExperimentConfig &cfg);

/**
 * Canonical functional fingerprint of a config: every knob that shapes
 * the dynamic instruction stream (workload, pattern/placement, scale,
 * transaction counts, transactions on/off, translation mode, BASE
 * predictor, seed) and none that only shape timing (machine config).
 * Two configs with equal fingerprints submit identical event streams,
 * so one captured trace serves both; anything that changes the
 * fingerprint invalidates the cached trace. Stored verbatim in the
 * poat-itrace header and checked on every replay.
 */
std::string traceFingerprint(const ExperimentConfig &cfg);

/**
 * Path of the cached trace for @p cfg inside cfg.trace_cache:
 * "<label>-<fingerprint hash>.itrace".
 */
std::string traceCachePath(const ExperimentConfig &cfg);

/**
 * Observer invoked with every finished runExperiment() call; the bench
 * harness's --stats-json collector. Pass nullptr to uninstall.
 *
 * Threading: runSweep() (driver/sweep.h) invokes the observer on the
 * calling thread in submission order, so an observer installed around
 * a sweep never runs concurrently with itself. Code that calls
 * runExperiment() directly from several threads must install an
 * observer that does its own locking. Do not install/uninstall while
 * runs are in flight.
 */
using ExperimentObserver =
    std::function<void(const ExperimentConfig &, const ExperimentResult &)>;
void setExperimentObserver(ExperimentObserver obs);

namespace detail {

/**
 * runExperiment() minus the observer notification — the sweep executor
 * runs this on worker threads and replays the notifications serially,
 * in submission order, on its calling thread. Honors cfg.trace_cache:
 * a matching cached trace is replayed, otherwise the run executes live
 * and captures one (an unreadable cached file is recaptured with a
 * note on stderr, never an error).
 */
ExperimentResult runExperimentUnobserved(const ExperimentConfig &cfg);

/** The live path: native execution, no trace cache involvement. */
ExperimentResult runExperimentLive(const ExperimentConfig &cfg);

/**
 * Live run that also captures the instruction stream to @p path
 * (atomically; readers never see a partial file). Timing must be on.
 * @throws std::runtime_error on trace I/O failure.
 */
ExperimentResult runExperimentCaptured(const ExperimentConfig &cfg,
                                       const std::string &path);

/**
 * Replay the captured stream at @p path into a fresh machine instead
 * of executing the workload. Timing must be on.
 * @throws std::runtime_error if the file is missing, corrupt,
 *         truncated, or fingerprints a different functional config.
 */
ExperimentResult runExperimentReplayed(const ExperimentConfig &cfg,
                                       const std::string &path);

/** Invoke the installed observer (if any) for a finished run. */
void notifyExperimentObserver(const ExperimentConfig &cfg,
                              const ExperimentResult &res);

} // namespace detail

/** Speedup of OPT over BASE: cycles(base) / cycles(opt). */
inline double
speedup(const ExperimentResult &base, const ExperimentResult &opt)
{
    return opt.metrics.cycles == 0
               ? 0.0
               : static_cast<double>(base.metrics.cycles) /
                     static_cast<double>(opt.metrics.cycles);
}

/** Geometric mean of a vector of positive values. */
double geomean(const std::vector<double> &xs);

} // namespace driver
} // namespace poat

#endif // POAT_DRIVER_EXPERIMENT_H
