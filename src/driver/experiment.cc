#include "driver/experiment.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "pmem/runtime.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/timeline.h"
#include "trace_io/itrace.h"
#include "workloads/lhash.h"
#include "workloads/tpcc/mtpcc.h"

namespace poat {
namespace driver {

namespace {

ExperimentObserver g_observer;

using workloads::engineWorkers;
using workloads::isConcurrentWorkload;

/**
 * Machine config a run actually uses: concurrent workloads need one
 * simulated core per engine worker, so the core count is raised to the
 * thread count (replayed runs build the same machine, since thread
 * count is part of the trace fingerprint).
 */
sim::MachineConfig
machineConfigFor(const ExperimentConfig &cfg)
{
    sim::MachineConfig mc = cfg.machine;
    if (isConcurrentWorkload(cfg.workload))
        mc.cores = std::max(mc.cores, engineWorkers(cfg.threads));
    return mc;
}

} // namespace

void
setExperimentObserver(ExperimentObserver obs)
{
    g_observer = std::move(obs);
}

std::string
configLabel(const ExperimentConfig &cfg)
{
    if (!cfg.label.empty())
        return cfg.label;
    std::string s = cfg.workload;
    if (cfg.workload == "TPCC" || cfg.workload == "MTPCC") {
        switch (cfg.placement) {
        case workloads::tpcc::Placement::All:
            s += ".ALL";
            break;
        case workloads::tpcc::Placement::Each:
            s += ".EACH";
            break;
        case workloads::tpcc::Placement::PerWarehouse:
            s += ".PERW" + std::to_string(cfg.tpcc_warehouses);
            break;
        }
    } else if (cfg.workload != "LHT") { // LHT: one pool, no pattern
        s += ".";
        s += workloads::patternName(cfg.pattern);
    }
    if (isConcurrentWorkload(cfg.workload)) {
        s += ".t" + std::to_string(engineWorkers(cfg.threads));
        if (cfg.commit_window > 1)
            s += ".w" + std::to_string(cfg.commit_window);
    }
    if (cfg.mode == TranslationMode::Software) {
        s += ".base";
        if (!cfg.base_predictor)
            s += "_nopred";
    } else if (cfg.machine.ideal_translation) {
        s += ".opt_ideal";
    } else {
        s += cfg.machine.polb_design == sim::PolbDesign::Pipelined
            ? ".opt_pipelined"
            : ".opt_parallel";
    }
    if (cfg.timing) {
        s += cfg.machine.core == sim::CoreType::InOrder ? ".inorder"
                                                        : ".ooo";
    } else {
        s += ".profile";
    }
    if (!cfg.transactions)
        s += ".ntx";
    return s;
}

std::string
traceFingerprint(const ExperimentConfig &cfg)
{
    // v2: checksummed+mirrored pmem metadata changed every instruction
    // stream, invalidating all v1 cached traces.
    std::string s = "poat-fpr v2 workload=" + cfg.workload;
    if (cfg.workload == "TPCC" || cfg.workload == "MTPCC") {
        s += " placement=";
        switch (cfg.placement) {
        case workloads::tpcc::Placement::All:
            s += "ALL";
            break;
        case workloads::tpcc::Placement::Each:
            s += "EACH";
            break;
        case workloads::tpcc::Placement::PerWarehouse:
            s += "PERW";
            break;
        }
        s += " tpcc_scale=" + std::to_string(cfg.tpcc_scale_pct);
        s += " txns=" + std::to_string(cfg.tpcc_txns);
        s += " warehouses=" + std::to_string(cfg.tpcc_warehouses);
    } else if (cfg.workload == "LHT") {
        s += " scale=" + std::to_string(cfg.scale_pct);
    } else {
        s += " pattern=";
        s += workloads::patternName(cfg.pattern);
        s += " scale=" + std::to_string(cfg.scale_pct);
    }
    if (isConcurrentWorkload(cfg.workload)) {
        // The interleaving shapes the instruction stream, so every
        // concurrency knob is functional.
        s += " threads=" + std::to_string(engineWorkers(cfg.threads));
        s += " tseed=" + std::to_string(cfg.sched_seed);
        s += " window=" + std::to_string(cfg.commit_window);
    }
    s += cfg.transactions ? " tx=1" : " tx=0";
    s += cfg.mode == TranslationMode::Software ? " mode=sw" : " mode=hw";
    s += cfg.base_predictor ? " pred=1" : " pred=0";
    s += " seed=" + std::to_string(cfg.seed);
    return s;
}

std::string
traceCachePath(const ExperimentConfig &cfg)
{
    const std::string fpr = traceFingerprint(cfg);
    uint64_t h = 14695981039346656037ull;
    for (const char c : fpr) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));

    // Readable prefix: the functional half of the label, so a cache
    // directory listing reads like the sweep that filled it.
    std::string name = cfg.workload;
    if (cfg.workload != "TPCC" && cfg.workload != "MTPCC" &&
        cfg.workload != "LHT") {
        name += ".";
        name += workloads::patternName(cfg.pattern);
    }
    if (isConcurrentWorkload(cfg.workload))
        name += ".t" + std::to_string(engineWorkers(cfg.threads));
    name += cfg.mode == TranslationMode::Software ? ".base" : ".opt";
    if (!cfg.transactions)
        name += ".ntx";
    name += ".s" + std::to_string(cfg.seed);
    for (char &c : name)
        if (c == '/')
            c = '_';
    return cfg.trace_cache + "/" + name + "-" + hex + ".itrace";
}

namespace {

/** Run the workload against @p rt and record its outcome. */
void
executeWorkload(const ExperimentConfig &cfg, PmemRuntime &rt,
                ExperimentResult &res)
{
    if (cfg.workload == "TPCC") {
        workloads::tpcc::TpccWorkload w(cfg.placement,
                                        cfg.tpcc_scale_pct, cfg.seed,
                                        cfg.tpcc_txns, cfg.transactions,
                                        cfg.tpcc_warehouses);
        const auto r = w.run(rt);
        res.workload_checksum = r.checksum;
        res.workload_operations = r.transactions;
    } else if (cfg.workload == "MTPCC") {
        workloads::tpcc::MtpccWorkload w(
            cfg.placement, cfg.tpcc_scale_pct, cfg.seed, cfg.tpcc_txns,
            engineWorkers(cfg.threads), cfg.sched_seed, cfg.commit_window,
            cfg.transactions, cfg.tpcc_warehouses);
        const auto r = w.run(rt);
        res.workload_checksum = r.checksum;
        res.workload_operations = r.transactions;
        res.engine = w.engineStats();
    } else if (cfg.workload == "LHT") {
        workloads::WorkloadConfig wc;
        wc.pattern = cfg.pattern;
        wc.transactions = cfg.transactions;
        wc.seed = cfg.seed;
        wc.scale_pct = cfg.scale_pct;
        workloads::LhtWorkload w(wc, engineWorkers(cfg.threads),
                                 cfg.sched_seed, cfg.commit_window);
        const auto r = w.run(rt);
        res.workload_checksum = r.checksum;
        res.workload_operations = r.operations;
        res.engine = w.engineStats();
    } else {
        // A config (not internal-invariant) error: throw rather than
        // POAT_FATAL so a sweep can propagate it to its caller.
        const auto &names = workloads::microbenchNames();
        if (std::find(names.begin(), names.end(), cfg.workload) ==
            names.end())
            throw std::invalid_argument("unknown workload: " +
                                        cfg.workload);
        workloads::WorkloadConfig wc;
        wc.pattern = cfg.pattern;
        wc.transactions = cfg.transactions;
        wc.seed = cfg.seed;
        wc.scale_pct = cfg.scale_pct;
        const auto r = workloads::makeWorkload(cfg.workload, wc)->run(rt);
        res.workload_checksum = r.checksum;
        res.workload_operations = r.operations;
    }
}

RuntimeOptions
runtimeOptions(const ExperimentConfig &cfg)
{
    RuntimeOptions ro;
    ro.mode = cfg.mode;
    ro.durability = cfg.transactions;
    ro.aslr_seed = cfg.seed ^ 0x517cc1b727220a95ull;
    ro.base_predictor = cfg.base_predictor;
    if (isConcurrentWorkload(cfg.workload))
        ro.log_slots = engineWorkers(cfg.threads); // one undo log per worker
    return ro;
}

/**
 * Snapshot the functional (machine-independent) outcome of a run: the
 * translator profile and the workload result, as result fields plus a
 * standalone registry. This is everything a replayed run cannot
 * recompute — the trace capture serializes it as the file's profile
 * sidecar.
 */
void
fillFunctionalProfile(const ExperimentConfig &cfg, const PmemRuntime &rt,
                      ExperimentResult &res, StatsRegistry &prof)
{
    res.translate_calls = rt.translator().calls();
    res.translate_misses = rt.translator().predictorMisses();
    res.translate_insns_per_call =
        rt.translator().avgInstructionsPerCall();
    rt.translator().fillStats(prof);
    prof.counter("workload.operations") = res.workload_operations;
    prof.counter("workload.checksum") = res.workload_checksum;

    // Checksum-maintenance work (the functional mirror of the
    // costs::kCrc* cycles charged in the trace).
    const ChecksumCounters &cc = rt.registry().checksumCounters();
    prof.counter("pmem.checksum.superblock_updates") =
        cc.superblock_updates;
    prof.counter("pmem.checksum.block_header_updates") =
        cc.block_header_updates;
    prof.counter("pmem.checksum.log_header_updates") =
        cc.log_header_updates;
    prof.counter("pmem.checksum.log_entry_updates") = cc.log_entry_updates;
    prof.counter("pmem.checksum.bytes_summed") = cc.bytes_summed;
    prof.counter("pmem.checksum.verifies") = cc.verifies;

    // Concurrency outcome (deterministic, hence functional): exported
    // here so replayed runs restore it from the trace sidecar.
    if (isConcurrentWorkload(cfg.workload)) {
        const concurrent::EngineStats &e = res.engine;
        prof.counter("engine.commits") = e.commits;
        prof.counter("engine.aborts") = e.aborts;
        prof.counter("engine.retries") = e.retries;
        prof.counter("engine.lock.acquisitions") = e.lock_acquisitions;
        prof.counter("engine.lock.waits") = e.lock_waits;
        prof.counter("engine.lock.deadlocks") = e.deadlocks;
        prof.counter("engine.gc.windows") = e.gc_windows;
        prof.counter("engine.gc.members") = e.gc_members;
        prof.counter("engine.gc.fences_elided") = e.fences_elided;
        prof.counter("engine.switches") = e.switches;
        prof.counter("tx.abort.undo_bytes") = rt.abortUndoBytes();
    }
}

/** Copy every stat in @p from into @p into under the same names. */
void
mergeRegistry(const StatsRegistry &from, StatsRegistry &into)
{
    for (const auto &[name, v] : from.counters())
        into.counter(name) = v;
    for (const auto &[name, h] : from.histograms())
        into.histogram(name) = h;
    for (const auto &[name, c] : from.cpiStacks())
        into.cpiStack(name) = c;
    from.forEachFormula([&into](const std::string &name,
                                const std::string &num,
                                const std::string &den) {
        into.formula(name, num, den);
    });
}

/**
 * Serialize the functional profile as the trace file's sidecar blob.
 * Text lines; doubles travel as bit patterns so replayed results stay
 * bit-identical to live ones.
 */
std::string
serializeProfile(const ExperimentResult &res, const StatsRegistry &prof)
{
    std::ostringstream os;
    os << "poat-profile v2\n";
    os << "R checksum " << res.workload_checksum << "\n";
    os << "R operations " << res.workload_operations << "\n";
    os << "R translate_calls " << res.translate_calls << "\n";
    os << "R translate_misses " << res.translate_misses << "\n";
    os << "R translate_insns_bits "
       << std::bit_cast<uint64_t>(res.translate_insns_per_call) << "\n";
    for (const auto &[name, v] : prof.counters())
        os << "C " << name << " " << v << "\n";
    for (const auto &[name, h] : prof.histograms()) {
        os << "H " << name << " " << h.count() << " " << h.sum() << " "
           << h.sumsq() << " " << h.min() << " " << h.max();
        for (uint32_t b = 0; b < Histogram::kBuckets; ++b)
            if (h.bucketCount(b) != 0)
                os << " " << b << ":" << h.bucketCount(b);
        os << "\n";
    }
    prof.forEachFormula([&os](const std::string &name,
                              const std::string &num,
                              const std::string &den) {
        os << "F " << name << " " << num << " " << den << "\n";
    });
    return os.str();
}

/** Parse a profile sidecar back into @p res (fields and stats). */
void
applyProfile(const std::string &blob, const std::string &path,
             ExperimentResult &res)
{
    const auto corrupt = [&path](const std::string &why) {
        return std::runtime_error("poat-itrace: " + path +
                                  ": corrupt functional profile (" +
                                  why + ")");
    };
    std::istringstream is(blob);
    std::string line;
    if (!std::getline(is, line) || line != "poat-profile v2")
        throw corrupt("missing version line");

    StatsRegistry prof;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string kind, name;
        ls >> kind >> name;
        if (kind == "R") {
            uint64_t v;
            if (!(ls >> v))
                throw corrupt("bad result line");
            if (name == "checksum")
                res.workload_checksum = v;
            else if (name == "operations")
                res.workload_operations = v;
            else if (name == "translate_calls")
                res.translate_calls = v;
            else if (name == "translate_misses")
                res.translate_misses = v;
            else if (name == "translate_insns_bits")
                res.translate_insns_per_call = std::bit_cast<double>(v);
            else
                throw corrupt("unknown result field " + name);
        } else if (kind == "C") {
            uint64_t v;
            if (!(ls >> v))
                throw corrupt("bad counter line");
            prof.counter(name) = v;
        } else if (kind == "H") {
            uint64_t count, sum, sumsq, lo, hi;
            if (!(ls >> count >> sum >> sumsq >> lo >> hi))
                throw corrupt("bad histogram line");
            std::array<uint64_t, Histogram::kBuckets> buckets{};
            std::string pair;
            while (ls >> pair) {
                const size_t colon = pair.find(':');
                if (colon == std::string::npos)
                    throw corrupt("bad histogram bucket");
                unsigned long b;
                try {
                    b = std::stoul(pair.substr(0, colon));
                    buckets.at(b) = std::stoull(pair.substr(colon + 1));
                } catch (const std::exception &) {
                    throw corrupt("bad histogram bucket");
                }
            }
            prof.histogram(name).restore(count, sum, sumsq, lo, hi,
                                         buckets);
        } else if (kind == "F") {
            std::string num, den;
            if (!(ls >> num >> den))
                throw corrupt("bad formula line");
            prof.formula(name, num, den);
        } else {
            throw corrupt("unknown line kind " + kind);
        }
    }
    mergeRegistry(prof, res.stats);
}

/**
 * The configured interval sampler (if any), bound to @p machine's
 * stats with the machine-side gauges: total POLB occupancy and, with
 * cfg.timeline_cores on a multi-core machine, one cumulative
 * blocked-reason gauge per core and reason
 * ("sched.core.<i>.blocked.<reason>.total"; the suffix keeps the names
 * apart from the registry's per-interval deltas). When the run executes
 * natively (@p rt nonnull) the runtime-side gauges ride along; replayed
 * runs have no live runtime, so their timelines carry the machine
 * gauges only.
 */
std::unique_ptr<telemetry::TimelineSampler>
makeTimeline(const ExperimentConfig &cfg, sim::Machine &machine,
             PmemRuntime *rt)
{
    if (cfg.timeline_interval == 0 || cfg.timeline_path.empty())
        return nullptr;
    auto timeline = std::make_unique<telemetry::TimelineSampler>(
        cfg.timeline_interval, cfg.timeline_path);
    timeline->setStatsSource(
        [&machine]() -> const StatsRegistry & { return machine.stats(); });
    const uint32_t cores = machine.numCores();
    timeline->addGauge("polb.occupancy", [&machine, cores] {
        uint64_t occ = 0;
        for (uint32_t i = 0; i < cores; ++i)
            occ += static_cast<uint64_t>(machine.polb(i).occupancy());
        return occ;
    });
    timeline->setCores(cores);
    if (cfg.timeline_cores && cores > 1) {
        for (uint32_t i = 0; i < cores; ++i) {
            for (uint32_t r = 0; r < telemetry::kBlockReasons; ++r) {
                const auto reason = static_cast<telemetry::BlockReason>(r);
                timeline->addGauge(
                    "sched.core." + std::to_string(i) + ".blocked." +
                        telemetry::blockReasonName(reason) + ".total",
                    [&machine, i, reason] {
                        return machine.contention().blockedCycles(i,
                                                                  reason);
                    });
            }
        }
    }
    if (rt) {
        PoolRegistry *reg = &rt->registry();
        timeline->addGauge("pmem.undo_log_bytes", [reg] {
            uint64_t total = 0;
            for (const uint32_t id : reg->openIds())
                reg->find(id)->forEachLog([&total](UndoLog &log) {
                    total += log.usedBytes();
                });
            return total;
        });
        timeline->addGauge("pmem.alloc_live_bytes", [reg] {
            uint64_t total = 0;
            for (const uint32_t id : reg->openIds())
                total += reg->find(id)->alloc.usedBytes();
            return total;
        });
    }
    return timeline;
}

/**
 * A run's observers, owned for the run: the Chrome trace, attached
 * when the machine is built so it sees the whole run, and the interval
 * timeline, attached once the runtime whose gauges it reads exists.
 */
class RunObservers
{
  public:
    RunObservers(const ExperimentConfig &cfg, sim::Machine &machine)
        : cfg_(cfg), machine_(machine)
    {
        if (cfg.trace_path.empty())
            return;
        trace_ = std::make_unique<telemetry::ChromeTraceExporter>(
            cfg.trace_path);
        trace_->marker(machine.cycles(), "begin " + configLabel(cfg));
        machine.addObserver(trace_.get());
    }

    /** Attach the timeline, with @p rt's gauges when the run is live. */
    void
    addTimeline(PmemRuntime *rt)
    {
        timeline_ = makeTimeline(cfg_, machine_, rt);
        if (timeline_)
            machine_.addObserver(timeline_.get());
    }

    /** Close the timeline, mark the run's end and write the trace. */
    void
    finish()
    {
        const uint64_t end = machine_.cycles();
        if (timeline_)
            timeline_->finish(end);
        if (trace_) {
            trace_->marker(end, "end " + configLabel(cfg_));
            trace_->finish();
        }
    }

  private:
    const ExperimentConfig &cfg_;
    sim::Machine &machine_;
    std::unique_ptr<telemetry::ChromeTraceExporter> trace_;
    std::unique_ptr<telemetry::TimelineSampler> timeline_;
};

} // namespace

namespace detail {

ExperimentResult
runExperimentLive(const ExperimentConfig &cfg)
{
    ExperimentResult res;

    if (!cfg.timing) {
        // Profiling-only run: no machine, no cycles — just the library
        // executing natively with its instruction accounting on.
        CountingTraceSink sink;
        PmemRuntime rt(runtimeOptions(cfg), &sink);
        executeWorkload(cfg, rt, res);
        StatsRegistry prof;
        fillFunctionalProfile(cfg, rt, res, prof);
        mergeRegistry(prof, res.stats);
        return res;
    }

    sim::Machine machine(machineConfigFor(cfg));
    RunObservers observers(cfg, machine);
    PmemRuntime rt(runtimeOptions(cfg), &machine);
    observers.addTimeline(&rt);
    executeWorkload(cfg, rt, res);
    observers.finish();

    res.metrics = machine.metrics();
    res.cpi = machine.cpi();

    // The run's complete hierarchical telemetry: machine registry plus
    // the software-translation profile and the workload outcome.
    res.stats = machine.stats();
    StatsRegistry prof;
    fillFunctionalProfile(cfg, rt, res, prof);
    mergeRegistry(prof, res.stats);
    return res;
}

ExperimentResult
runExperimentCaptured(const ExperimentConfig &cfg,
                      const std::string &path)
{
    if (!cfg.timing)
        throw std::invalid_argument(
            "trace capture requires a timing run");

    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    // An unusable directory surfaces as the recorder's open error.

    ExperimentResult res;
    sim::Machine machine(machineConfigFor(cfg));
    RunObservers observers(cfg, machine);

    // The recorder forwards every event to the machine with the exact
    // dep tags a direct run would pass, so capture-run metrics equal
    // live-run metrics.
    trace_io::TraceRecorder rec(&machine, path, traceFingerprint(cfg));
    PmemRuntime rt(runtimeOptions(cfg), &rec);
    observers.addTimeline(&rt);
    executeWorkload(cfg, rt, res);
    observers.finish();

    res.metrics = machine.metrics();
    res.cpi = machine.cpi();
    res.stats = machine.stats();
    StatsRegistry prof;
    fillFunctionalProfile(cfg, rt, res, prof);
    mergeRegistry(prof, res.stats);

    rec.setProfile(serializeProfile(res, prof));
    rec.finish();
    return res;
}

ExperimentResult
runExperimentReplayed(const ExperimentConfig &cfg,
                      const std::string &path)
{
    if (!cfg.timing)
        throw std::invalid_argument(
            "trace replay requires a timing run");

    trace_io::TraceReplayer rep(path);
    const std::string want = traceFingerprint(cfg);
    if (rep.fingerprint() != want)
        throw std::runtime_error(
            "poat-itrace: " + path + ": fingerprint mismatch: file has "
            "\"" + rep.fingerprint() + "\", config needs \"" + want +
            "\"");

    ExperimentResult res;
    sim::Machine machine(machineConfigFor(cfg));
    RunObservers observers(cfg, machine);
    observers.addTimeline(nullptr);
    rep.replayInto(machine);
    observers.finish();

    res.metrics = machine.metrics();
    res.cpi = machine.cpi();
    res.stats = machine.stats();
    applyProfile(rep.profile(), path, res);
    return res;
}

ExperimentResult
runExperimentUnobserved(const ExperimentConfig &cfg)
{
    if (!cfg.timing || cfg.trace_cache.empty())
        return runExperimentLive(cfg);

    const std::string path = traceCachePath(cfg);
    if (trace_io::TraceReplayer::matches(path, traceFingerprint(cfg))) {
        try {
            return runExperimentReplayed(cfg, path);
        } catch (const std::runtime_error &e) {
            // A cached trace that fails full validation (corruption,
            // torn write from a crashed capture) is not an error —
            // recapture it.
            std::fprintf(stderr, "trace-cache: %s; recapturing\n",
                         e.what());
        }
    }
    return runExperimentCaptured(cfg, path);
}

void
notifyExperimentObserver(const ExperimentConfig &cfg,
                         const ExperimentResult &res)
{
    if (g_observer)
        g_observer(cfg, res);
}

} // namespace detail

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    ExperimentResult res = detail::runExperimentUnobserved(cfg);
    detail::notifyExperimentObserver(cfg, res);
    return res;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace driver
} // namespace poat
