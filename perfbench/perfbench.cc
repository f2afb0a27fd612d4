/**
 * @file
 * Host-time benchmark for poat: how fast the tool produces its
 * simulated results, end to end and layer by layer.
 *
 * One process runs one workload as a closed loop: set-up (repeated and
 * timed), one warm-up pass, then passes over a fixed job list until the
 * time budget is spent, each pass checked for correct outputs. The
 * library is driven only through its public headers; every layer is
 * timed from outside by timing the calls into it. All times are host
 * time. Simulated statistics are deterministic, so their digest and
 * counts double as exact correctness checks.
 *
 * The last stdout line is the result object (correct / attempted /
 * failed / metrics). README.md defines every workload and metric.
 */
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "fault/explore.h"
#include "pmem/runtime.h"
#include "pmem/trace.h"
#include "sim/machine.h"
#include "spans.h"
#include "trace_io/itrace.h"
#include "workloads/harness.h"

using namespace poat;
using perfbench::Clock;
using perfbench::Span;
using perfbench::SpanRecorder;
namespace fs = std::filesystem;

namespace {

/// @name Load shape (README.md, "Workloads")
/// @{
constexpr unsigned kJobs = 2;   ///< host threads; below nproc = 4
constexpr int kSetups = 3;      ///< set-ups per run; setup_s is their median
/// Run sizes of the CI and nightly runs (bench_util.h, --quick): op
/// counts at 20 % of the paper's, TPC-C at 2 % scale with 150 txns.
constexpr uint32_t kScale = 20;
constexpr uint32_t kTpccScale = 2;
constexpr uint64_t kTpccTxns = 150;
constexpr uint32_t kWorkers = 4; ///< LHT / MTPCC engine workers (replay)
const uint32_t kPolbEntries[] = {1, 32};
constexpr uint64_t kCrashSteps = 40; ///< as CI's crash_explore jobs
constexpr uint64_t kCrashSample = 64;
constexpr uint64_t kCrashInnerCap = 4;
constexpr uint64_t kDrainBound = 3;
/// @}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t
fnv1a(const void *data, size_t n, uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
fnv1a(const std::string &s, uint64_t h = kFnvOffset)
{
    return fnv1a(s.data(), s.size(), h);
}

uint64_t
mix(uint64_t h, uint64_t v)
{
    return fnv1a(&v, sizeof(v), h);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Quantile with linear interpolation between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

struct CpuTimes
{
    double user = 0, sys = 0;
};

CpuTimes
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6,
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6};
}

/**
 * Open a fresh peak-RSS window: return freed heap to the kernel, then
 * reset its resident high-water mark (VmHWM). Without the reset the
 * peak would be set-up's, whose size depends on which pool-heavy runs
 * happened to overlap. @return false if the kernel refuses the reset.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

/** Peak resident set (VmHWM) since the last reset, in MB. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    double kb = 0;
    while (f && std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    if (f)
        std::fclose(f);
    if (kb == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        kb = static_cast<double>(ru.ru_maxrss); // Linux reports KiB
    }
    return kb / 1024.0;
}

/** Serialized stats of one run: the report layer's output. */
std::string
statsJson(const StatsRegistry &stats)
{
    std::ostringstream os;
    stats.dumpJson(os);
    return os.str();
}

/** Outcome of one pass over a workload's job list. */
struct PassResult
{
    double wall_s = 0, busy_s = 0, user_s = 0, sys_s = 0;
    double rss_mb = 0; ///< peak resident set during the pass
    uint64_t digest = kFnvOffset; ///< over every run's serialized stats
    uint64_t attempted = 0, failed = 0;
    uint64_t instructions = 0, cycles = 0; ///< simulated, summed
    uint64_t trials = 0; ///< outer crash trials (ExploreReport::trials)
    uint64_t recovery_trials = 0, reorder_states = 0;
    uint64_t fault_events = 0;
};

/** Per-pass layer attribution from the traced run's probes. */
struct Layers
{
    double pool_setup_s = 0, native_s = 0, encode_s = 0, decode_s = 0;
    double machine_s = 0, dispatch_s = 0;
    uint64_t pools = 0, pool_bytes = 0, ops = 0, events = 0, bytes = 0;
    double ns_inorder = 0, ns_ooo = 0, ns_multicore = 0;
};

/** A traced pass: its span index range and wall time. */
struct TracedPass
{
    size_t from = 0, to = 0;
    double wall_s = 0;
};

/** Job id shared by a job's spans: pass number and job index. */
uint64_t
runId(uint64_t pass, size_t job)
{
    return (pass << 20) | (job + 1);
}

size_t
jobOf(uint64_t run)
{
    return (run & 0xFFFFF) - 1;
}

void
reportFailure(PassResult &r, const std::string &why)
{
    ++r.failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

/** One benchmark workload. */
class Bench
{
  public:
    virtual ~Bench() = default;

    /** Host threads a pass fans out over. */
    virtual unsigned threads() const { return kJobs; }

    /**
     * One (repeatable) set-up, number @p k; its runs and checks land in
     * @p r. By default a workload needs no preparation beyond warming
     * up, so its set-up is one pass.
     */
    virtual void
    setup(int k, SpanRecorder *rec, PassResult &r)
    {
        const PassResult p = pass(rec, 0);
        r.attempted += p.attempted;
        r.failed += p.failed;
        (void)k;
    }

    /** One checked pass over the job list. */
    virtual PassResult pass(SpanRecorder *rec, uint64_t pass_no) = 0;

    /**
     * Traced run only: time the layers the passes cannot split. Output
     * checks the probes make land in @p r.
     */
    virtual Layers probe(SpanRecorder &rec,
                         const std::vector<TracedPass> &traced,
                         PassResult &r) = 0;

    bool inject_mismatch = false; ///< self-check: corrupt one checksum
};

// ---------------------------------------------------------------------
// Simulation workloads (replay_sweep, live_patterns)
// ---------------------------------------------------------------------

struct SimJob
{
    driver::ExperimentConfig cfg;
    std::string group; ///< runs of one group must agree on the checksum
    int ref = -1;      ///< set-up live run this job must match exactly
    size_t trace = 0;  ///< replay_sweep: index of the trace it replays
};

struct RunOut
{
    driver::ExperimentResult res;
    uint64_t digest = 0; ///< FNV-1a of the run's serialized stats
    std::string error;   ///< non-empty if the run threw
};

/** Everything of a live run a replay of the same config must repeat. */
struct LiveRef
{
    uint64_t digest = 0, cycles = 0, instructions = 0, checksum = 0;
};

/**
 * Every core's CPI stack ("core.cpi", or "core.<i>.cpi" on multi-core
 * machines) sums exactly to that core's cycle counter.
 */
bool
cpiSumsHold(const StatsRegistry &stats)
{
    size_t stacks = 0;
    for (const auto &[name, cpi] : stats.cpiStacks()) {
        if (!name.ends_with(".cpi"))
            continue;
        ++stacks;
        const std::string core = name.substr(0, name.size() - 3);
        if (cpi.total() != stats.get(core + "cycles"))
            return false;
    }
    return stacks > 0;
}

/**
 * Runs that must agree on the workload checksum: every run of one
 * workload, whatever its translation mode, pool pattern or machine.
 */
std::string
groupOf(const driver::ExperimentConfig &c)
{
    return c.workload;
}

class SimBench : public Bench
{
  public:
    PassResult
    pass(SpanRecorder *rec, uint64_t pass_no) override
    {
        std::vector<RunOut> outs(jobs_.size());
        std::vector<double> secs(jobs_.size());
        PassResult r;
        const CpuTimes c0 = cpuNow();
        const auto t0 = Clock::now();
        driver::runTasks(jobs_.size(), kJobs, [&](size_t i) {
            const auto t = Clock::now();
            Span job(rec, "job", runId(pass_no, i));
            runOne(rec, callName_, jobs_[i].cfg, outs[i]);
            secs[i] = secondsSince(t);
        });
        r.wall_s = secondsSince(t0);
        const CpuTimes c1 = cpuNow();
        r.user_s = c1.user - c0.user;
        r.sys_s = c1.sys - c0.sys;
        for (const double s : secs)
            r.busy_s += s;
        if (inject_mismatch && !outs.empty())
            outs[0].res.workload_checksum ^= 1;
        check(outs, r);
        last_ = std::move(outs);
        return r;
    }

  protected:
    /** One run plus its report: the unit of work of every job. */
    static void
    runOne(SpanRecorder *rec, const char *call,
           const driver::ExperimentConfig &cfg, RunOut &out)
    {
        try {
            {
                Span s(rec, call);
                out.res = driver::runExperiment(cfg);
            }
            Span s(rec, "report.json");
            out.digest = fnv1a(statsJson(out.res.stats));
        } catch (const std::exception &e) {
            out.error = e.what();
        }
    }

    /** Per-run and cross-run output checks; fills @p r's counts. */
    void
    check(const std::vector<RunOut> &outs, PassResult &r) const
    {
        std::map<std::string, uint64_t> group_sum;
        r.attempted += outs.size();
        for (size_t i = 0; i < outs.size(); ++i) {
            const RunOut &o = outs[i];
            const std::string label = driver::configLabel(jobs_[i].cfg);
            r.digest = mix(r.digest, o.digest);
            if (!o.error.empty()) {
                reportFailure(r, label + " threw: " + o.error);
                continue;
            }
            const auto &m = o.res.metrics;
            r.instructions += m.instructions;
            r.cycles += m.cycles;
            if (!cpiSumsHold(o.res.stats)) {
                reportFailure(r, label + ": a CPI stack does not sum to "
                                 "its core's cycles");
                continue;
            }
            const auto [it, fresh] = group_sum.emplace(
                jobs_[i].group, o.res.workload_checksum);
            if (!fresh && it->second != o.res.workload_checksum) {
                reportFailure(r, label + ": workload checksum differs "
                                 "from its group (" + jobs_[i].group + ")");
                continue;
            }
            if (jobs_[i].ref >= 0) {
                const LiveRef &ref = refs_[jobs_[i].ref];
                if (ref.digest != o.digest || ref.cycles != m.cycles ||
                    ref.instructions != m.instructions ||
                    ref.checksum != o.res.workload_checksum)
                    reportFailure(r, label + ": replay differs from the "
                                     "live run of the same config");
            }
        }
    }

    std::vector<SimJob> jobs_; ///< one pass, in execution order
    std::vector<LiveRef> refs_;
    std::vector<RunOut> last_; ///< the latest pass's outputs
    const char *callName_ = "driver.run";
};

driver::ExperimentConfig
asVariant(driver::ExperimentConfig c, sim::CoreType core,
          sim::PolbDesign design, uint32_t polb_entries)
{
    c.machine.core = core;
    c.machine.polb_design = design;
    c.machine.polb_entries = polb_entries;
    return c;
}

/** Machine the set-up runs live for each trace (the replay reference). */
driver::ExperimentConfig
liveVariant(const driver::ExperimentConfig &f)
{
    return asVariant(f, sim::CoreType::InOrder, sim::PolbDesign::Pipelined,
                     32);
}

/** Core-model class a job's machine time is charged to. */
enum class CoreClass
{
    InOrder,
    OutOfOrder,
    MultiCore,
};

CoreClass
coreClass(const driver::ExperimentConfig &c)
{
    if (c.workload == "LHT" || c.workload == "MTPCC")
        return CoreClass::MultiCore;
    return c.machine.core == sim::CoreType::InOrder ? CoreClass::InOrder
                                                    : CoreClass::OutOfOrder;
}

/** Replay into a counting sink: the decode layer alone. */
struct DecodeProbe
{
    double seconds = 0;
    uint64_t events = 0, bytes = 0;
};

DecodeProbe
probeDecode(SpanRecorder &rec, const std::string &path)
{
    Span s(&rec, "probe.trace_io.decode");
    DecodeProbe d;
    const auto t = Clock::now();
    trace_io::TraceReplayer rep(path);
    CountingTraceSink sink;
    rep.replayInto(sink);
    d.seconds = secondsSince(t);
    d.events = rep.eventCount();
    d.bytes = fs::file_size(path);
    return d;
}

/** Median traced duration of span @p name per job index. */
std::map<size_t, double>
medianByJob(const SpanRecorder &rec, const char *name,
            const std::vector<TracedPass> &traced)
{
    std::map<size_t, std::vector<double>> all;
    for (const TracedPass &p : traced)
        for (const auto &[run, ds] : rec.durationsByRun(name, p.from, p.to))
            for (const double d : ds)
                all[jobOf(run)].push_back(d);
    std::map<size_t, double> out;
    for (const auto &[job, ds] : all)
        out[job] = median(ds);
    return out;
}

void
chargeMachine(Layers &l, const std::vector<SimJob> &jobs,
              const std::vector<RunOut> &outs,
              const std::map<size_t, double> &machine_s)
{
    double secs[3] = {0, 0, 0};
    double insns[3] = {0, 0, 0};
    for (const auto &[j, s] : machine_s) {
        const int c = static_cast<int>(coreClass(jobs[j].cfg));
        secs[c] += s;
        insns[c] += static_cast<double>(outs[j].res.metrics.instructions);
        l.machine_s += s;
    }
    const auto ns = [&](int c) {
        return insns[c] > 0 ? secs[c] / insns[c] * 1e9 : 0.0;
    };
    l.ns_inorder = ns(0);
    l.ns_ooo = ns(1);
    l.ns_multicore = ns(2);
}

/**
 * replay_sweep: capture once in set-up, then replay every captured
 * trace into fresh machines of several designs each pass.
 */
class ReplaySweep : public SimBench
{
  public:
    ReplaySweep(uint64_t seed, fs::path work) : work_(std::move(work))
    {
        callName_ = "driver.replay";
        using workloads::PoolPattern;
        for (const auto &wl : workloads::microbenchNames())
            for (const auto pat : {PoolPattern::Each, PoolPattern::Random})
                for (const auto mode :
                     {TranslationMode::Software, TranslationMode::Hardware}) {
                    driver::ExperimentConfig c;
                    c.workload = wl;
                    c.pattern = pat;
                    c.scale_pct = kScale;
                    c.mode = mode;
                    c.seed = seed;
                    functional_.push_back(c);
                }
        for (const char *wl : {"LHT", "MTPCC"})
            for (const auto mode :
                 {TranslationMode::Software, TranslationMode::Hardware}) {
                driver::ExperimentConfig c;
                c.workload = wl;
                c.scale_pct = kScale;
                c.tpcc_scale_pct = kTpccScale;
                c.tpcc_txns = kTpccTxns;
                c.threads = kWorkers;
                c.sched_seed = seed;
                c.mode = mode;
                c.seed = seed;
                functional_.push_back(c);
            }
        using sim::CoreType;
        using sim::PolbDesign;
        for (size_t f = 0; f < functional_.size(); ++f) {
            const auto &fc = functional_[f];
            // The first variant is the one set-up runs live; its replay
            // must match that run exactly.
            std::vector<driver::ExperimentConfig> variants = {
                liveVariant(fc),
                asVariant(fc, CoreType::OutOfOrder, PolbDesign::Pipelined,
                          32)};
            if (fc.mode == TranslationMode::Hardware)
                for (const uint32_t n : kPolbEntries)
                    for (const auto d :
                         {PolbDesign::Pipelined, PolbDesign::Parallel})
                        if (n != 32 || d != PolbDesign::Pipelined)
                            variants.push_back(
                                asVariant(fc, CoreType::InOrder, d, n));
            for (size_t v = 0; v < variants.size(); ++v)
                jobs_.push_back({variants[v], groupOf(variants[v]),
                                 v == 0 ? static_cast<int>(f) : -1, f});
        }
        refs_.resize(functional_.size());
    }

    void
    setup(int k, SpanRecorder *rec, PassResult &r) override
    {
        // Each set-up captures every trace afresh into its own cache.
        const fs::path dir = work_ / ("cache" + std::to_string(k));
        fs::remove_all(dir);
        fs::create_directories(dir);
        std::vector<RunOut> outs(functional_.size());
        std::vector<driver::ExperimentConfig> caps;
        for (const auto &f : functional_) {
            caps.push_back(liveVariant(f));
            caps.back().trace_cache = dir.string();
        }
        driver::runTasks(caps.size(), kJobs, [&](size_t i) {
            Span job(rec, "job", runId(0, i));
            runOne(rec, "driver.capture", caps[i], outs[i]);
        });
        r.attempted += outs.size();
        for (size_t i = 0; i < outs.size(); ++i) {
            const std::string label = driver::configLabel(caps[i]);
            if (!outs[i].error.empty()) {
                reportFailure(r, label + " capture threw: " + outs[i].error);
                continue;
            }
            if (!trace_io::TraceReplayer::matches(
                    driver::traceCachePath(caps[i]),
                    driver::traceFingerprint(caps[i]))) {
                reportFailure(r, label + ": no usable trace captured");
                continue;
            }
            const auto &res = outs[i].res;
            const LiveRef ref{outs[i].digest, res.metrics.cycles,
                              res.metrics.instructions,
                              res.workload_checksum};
            if (k > 0 && (ref.digest != refs_[i].digest ||
                          ref.cycles != refs_[i].cycles))
                reportFailure(r, label + ": live run differs between "
                                 "set-ups");
            refs_[i] = ref;
        }
        if (!cache_.empty())
            fs::remove_all(cache_);
        cache_ = dir;
        for (auto &j : jobs_)
            j.cfg.trace_cache = cache_.string();
        if (k == 0)
            orderLongestFirst(caps);
    }

    Layers
    probe(SpanRecorder &rec, const std::vector<TracedPass> &traced,
          PassResult &) override
    {
        Layers l;
        const size_t nf = functional_.size();
        std::vector<DecodeProbe> dec(nf);
        std::vector<double> live_s(nf), cap_s(nf);
        const fs::path pdir = work_ / "probe";
        fs::create_directories(pdir);
        driver::runTasks(nf, kJobs, [&](size_t f) {
            Span job(&rec, "probe", runId(0, f));
            auto cfg = liveVariant(functional_[f]);
            cfg.trace_cache = cache_.string();
            dec[f] = probeDecode(rec, driver::traceCachePath(cfg));
            cfg.trace_cache.clear();
            auto t = Clock::now();
            {
                Span s(&rec, "probe.driver.live");
                driver::detail::runExperimentLive(cfg);
            }
            live_s[f] = secondsSince(t);
            cfg.trace_cache = pdir.string();
            const std::string path = driver::traceCachePath(cfg);
            t = Clock::now();
            {
                Span s(&rec, "probe.driver.capture");
                driver::detail::runExperimentCaptured(cfg, path);
            }
            cap_s[f] = secondsSince(t);
            fs::remove(path);
        });
        for (size_t f = 0; f < nf; ++f)
            l.encode_s += cap_s[f] - live_s[f];
        // Each replay job decodes its trace once: charge the decode probe
        // per job; the rest of the replay call is the machine.
        const auto replay = medianByJob(rec, callName_, traced);
        std::map<size_t, double> machine;
        for (const auto &[j, s] : replay) {
            const DecodeProbe &d = dec[jobs_[j].trace];
            l.decode_s += d.seconds;
            l.events += d.events;
            l.bytes += d.bytes;
            machine[j] = s - d.seconds;
        }
        chargeMachine(l, jobs_, last_, machine);
        return l;
    }

  private:
    /**
     * Longest jobs first, so the two threads finish a pass together
     * instead of one idling behind a late long replay. Cost estimate:
     * trace bytes, doubled on the out-of-order core. Trace sizes are a
     * function of the seed, so the order is fixed per seed.
     */
    void
    orderLongestFirst(const std::vector<driver::ExperimentConfig> &caps)
    {
        const auto cost = [&](const SimJob &j) {
            const auto bytes = fs::file_size(
                driver::traceCachePath(caps[j.trace]));
            return j.cfg.machine.core == sim::CoreType::OutOfOrder ? 2 * bytes
                                                                  : bytes;
        };
        std::stable_sort(jobs_.begin(), jobs_.end(),
                         [&](const SimJob &a, const SimJob &b) {
                             return cost(a) > cost(b);
                         });
    }

    fs::path work_;
    fs::path cache_;
    std::vector<driver::ExperimentConfig> functional_;
};

/** TraceSink that counts instructions and the pools the run maps. */
struct PoolCountingSink : CountingTraceSink
{
    void
    poolMapped(uint32_t, uint64_t, uint64_t size) override
    {
        sizes.push_back(size);
    }
    std::vector<uint64_t> sizes;
};

/**
 * live_patterns: every micro x {ALL, EACH, RANDOM} x {BASE, OPT} run
 * live on the in-order core, no trace cache: the first-run path.
 */
class LivePatterns : public SimBench
{
  public:
    LivePatterns(uint64_t seed, fs::path work) : work_(std::move(work))
    {
        callName_ = "driver.live";
        using workloads::PoolPattern;
        // Heaviest pools first (RANDOM maps 32 x 8 MB), so the two
        // threads finish a pass together.
        for (const auto pat :
             {PoolPattern::Random, PoolPattern::All, PoolPattern::Each})
            for (const auto &wl : workloads::microbenchNames())
                for (const auto mode :
                     {TranslationMode::Software, TranslationMode::Hardware}) {
                    driver::ExperimentConfig c;
                    c.workload = wl;
                    c.pattern = pat;
                    c.scale_pct = kScale;
                    c.mode = mode;
                    c.seed = seed;
                    jobs_.push_back({c, groupOf(c), -1});
                }
    }

    Layers
    probe(SpanRecorder &rec, const std::vector<TracedPass> &traced,
          PassResult &r) override
    {
        struct Probe
        {
            double native_s = 0, pool_s = 0, decode_s = 0, replay_s = 0;
            uint64_t pools = 0, bytes = 0, ops = 0, checksum = 0;
        };
        std::vector<Probe> pr(jobs_.size());
        const fs::path pdir = work_ / "probe";
        fs::create_directories(pdir);
        driver::runTasks(jobs_.size(), kJobs, [&](size_t j) {
            Span job(&rec, "probe", runId(0, j));
            const driver::ExperimentConfig &cfg = jobs_[j].cfg;
            Probe &p = pr[j];
            RuntimeOptions ro;
            ro.mode = cfg.mode;
            ro.durability = cfg.transactions;
            ro.aslr_seed = cfg.seed;
            ro.base_predictor = cfg.base_predictor;
            workloads::WorkloadConfig wc;
            wc.pattern = cfg.pattern;
            wc.transactions = cfg.transactions;
            wc.seed = cfg.seed;
            wc.scale_pct = cfg.scale_pct;

            // Native execution against a counting sink (what the
            // driver's timing=false path runs), pool setup included.
            PoolCountingSink sink;
            auto t = Clock::now();
            {
                Span s(&rec, "probe.workloads.native");
                PmemRuntime rt(ro, &sink);
                const auto res =
                    workloads::makeWorkload(cfg.workload, wc)->run(rt);
                p.ops = res.operations;
                p.checksum = res.checksum;
            }
            p.native_s = secondsSince(t);
            p.pools = sink.sizes.size();
            for (const uint64_t b : sink.sizes)
                p.bytes += b;

            // The same pools, created and torn down with nothing else.
            // Workload runs never poolClose (which writes back and copies
            // every line); their pools go away with the runtime, as here.
            t = Clock::now();
            {
                Span s(&rec, "probe.pmem.pool_setup");
                PmemRuntime rt(ro);
                for (size_t i = 0; i < sink.sizes.size(); ++i)
                    rt.poolCreate("probe" + std::to_string(i), sink.sizes[i]);
            }
            p.pool_s = secondsSince(t);

            // Machine time of this config: replay minus decode.
            auto cap = cfg;
            cap.trace_cache = pdir.string();
            const std::string path = driver::traceCachePath(cap);
            {
                Span s(&rec, "probe.driver.capture");
                driver::detail::runExperimentCaptured(cfg, path);
            }
            p.decode_s = probeDecode(rec, path).seconds;
            t = Clock::now();
            {
                Span s(&rec, "probe.driver.replay");
                driver::detail::runExperimentReplayed(cfg, path);
            }
            p.replay_s = secondsSince(t);
            fs::remove(path);
        });

        Layers l;
        const auto live = medianByJob(rec, callName_, traced);
        std::map<size_t, double> machine;
        for (size_t j = 0; j < jobs_.size(); ++j) {
            const Probe &p = pr[j];
            l.pool_setup_s += p.pool_s;
            l.native_s += p.native_s - p.pool_s;
            l.pools += p.pools;
            l.pool_bytes += p.bytes;
            l.ops += p.ops;
            machine[j] = p.replay_s - p.decode_s;
            const auto it = live.find(j);
            if (it != live.end())
                l.dispatch_s += it->second - p.native_s - machine[j];
            ++r.attempted;
            if (j < last_.size() &&
                p.checksum != last_[j].res.workload_checksum)
                reportFailure(r, driver::configLabel(jobs_[j].cfg) +
                                     ": native probe checksum differs "
                                     "from its live run");
        }
        chargeMachine(l, jobs_, last_, machine);
        return l;
    }

  private:
    fs::path work_;
};

// ---------------------------------------------------------------------
// crash_explore
// ---------------------------------------------------------------------

/**
 * crash_explore: sampled fault::explore runs with no timing model —
 * write-backs, crash image copies, scrub + undo recovery, verifiers.
 */
class CrashExplore : public Bench
{
  public:
    explicit CrashExplore(uint64_t seed)
    {
        fault::ExploreOptions o;
        o.steps = kCrashSteps;
        o.seed = seed;
        o.sample = kCrashSample;
        o.jobs = kJobs;
        o.inner_cap = kCrashInnerCap;
        o.depth = 1;

        fault::ExploreOptions bt = o; // B+T, in-recovery depth 1
        bt.workload = "B+T";
        runs_.push_back(bt);

        fault::ExploreOptions lht = o; // LHT, 2 engine workers
        lht.workload = "LHT";
        lht.threads = 2;
        lht.sched_seed = seed;
        runs_.push_back(lht);

        fault::ExploreOptions ro = o; // B+T, strict + reorder
        ro.workload = "B+T";
        ro.in_recovery = false;
        ro.strict = true;
        ro.reorder = true;
        ro.drain_bound = kDrainBound;
        runs_.push_back(ro);
    }

    /** Explores run one after another; each fans out over kJobs. */
    unsigned threads() const override { return 1; }

    PassResult
    pass(SpanRecorder *rec, uint64_t pass_no) override
    {
        PassResult r;
        const CpuTimes c0 = cpuNow();
        const auto t0 = Clock::now();
        for (size_t i = 0; i < runs_.size(); ++i) {
            const fault::ExploreOptions &o = runs_[i];
            const auto t = Clock::now();
            Span job(rec, "job", runId(pass_no, i));
            try {
                fault::ExploreReport rep;
                {
                    Span s(rec, "fault.explore");
                    rep = fault::explore(o);
                }
                const uint64_t n =
                    rep.trials + rep.recovery_trials + rep.reorder_states;
                r.attempted += n;
                r.trials += rep.trials;
                r.recovery_trials += rep.recovery_trials;
                r.reorder_states += rep.reorder_states;
                r.fault_events += rep.total_events;
                if (inject_mismatch && i == 0)
                    rep.failures.push_back({});
                for (const auto &f : rep.failures)
                    reportFailure(r, o.workload + " crash trial " +
                                         f.repro() + ": " + f.why);
                StatsRegistry st;
                rep.publish(st);
                r.digest = mix(r.digest, fnv1a(statsJson(st)));
            } catch (const std::exception &e) {
                ++r.attempted;
                reportFailure(r, o.workload + " explore threw: " + e.what());
            }
            r.busy_s += secondsSince(t);
        }
        r.wall_s = secondsSince(t0);
        const CpuTimes c1 = cpuNow();
        r.user_s = c1.user - c0.user;
        r.sys_s = c1.sys - c0.sys;
        return r;
    }

    /** Nothing to split: the explorer is one call. */
    Layers
    probe(SpanRecorder &, const std::vector<TracedPass> &,
          PassResult &) override
    {
        return {};
    }

  private:
    std::vector<fault::ExploreOptions> runs_;
};

// ---------------------------------------------------------------------
// Command line, metrics, output
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool inject_mismatch = false;
    std::string work_dir = ".perfbench";
    std::string commit = "unknown";
    std::string source_hash = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload replay_sweep|live_patterns|"
                 "crash_explore --seed N --seconds S --trace 0|1\n"
                 "                 [--work-dir DIR] [--commit SHA] "
                 "[--source-hash HEX] [--inject-mismatch]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a whole number, got '" + v + "'");
    try {
        return std::stoull(v);
    } catch (const std::exception &) {
        usage(flag + " out of range: '" + v + "'");
    }
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inject-mismatch") {
            a.inject_mismatch = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUint(flag, v);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseUint(flag, v));
        else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--work-dir")
            a.work_dir = v;
        else if (flag == "--commit")
            a.commit = v;
        else if (flag == "--source-hash")
            a.source_hash = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

std::unique_ptr<Bench>
makeBench(const Args &a, const fs::path &work)
{
    if (a.workload == "replay_sweep")
        return std::make_unique<ReplaySweep>(a.seed, work);
    if (a.workload == "live_patterns")
        return std::make_unique<LivePatterns>(a.seed, work);
    if (a.workload == "crash_explore")
        return std::make_unique<CrashExplore>(a.seed);
    usage("unknown workload '" + a.workload + "'");
}

/** Name, unit, value: one printed metric. */
struct Metric
{
    std::string name, unit;
    double value;
    bool integral = false;
};

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

std::string
provenanceJson(const Args &a, unsigned threads, bool fit)
{
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\"commit\": \"%s\", \"source_sha256\": \"%s\", "
        "\"build_type\": \"%s\", \"compiler\": \"%s\", "
        "\"cxx_flags\": \"%s\", \"poat_tracing\": %s, "
        "\"sanitize\": \"%s\", \"nproc\": %ld, \"jobs\": %u, "
        "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"traced\": %s, \"fit_for_comparison\": %s}",
        jsonEscape(a.commit).c_str(), jsonEscape(a.source_hash).c_str(),
        PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
        jsonEscape(PERFBENCH_CXX_FLAGS).c_str(),
        PERFBENCH_TRACING ? "true" : "false", PERFBENCH_SANITIZE,
        sysconf(_SC_NPROCESSORS_ONLN), threads,
        jsonEscape(a.workload).c_str(),
        static_cast<unsigned long long>(a.seed), a.seconds,
        a.trace ? "true" : "false", fit ? "true" : "false");
    return buf;
}

void
printLayerTable(const std::map<std::string, double> &self, double capacity,
                double idle, double other)
{
    std::printf("\nlayer self time per traced pass (capacity %.4f "
                "thread-s):\n",
                capacity);
    std::printf("  %-26s %10s %7s\n", "span", "self_s", "share");
    for (const auto &[name, s] : self)
        if (name != "job")
            std::printf("  %-26s %10.4f %6.1f%%\n", name.c_str(), s,
                        100 * s / capacity);
    std::printf("  %-26s %10.4f %6.1f%%\n", "driver.idle", idle,
                100 * idle / capacity);
    std::printf("  %-26s %10.4f %6.1f%%\n", "other", other,
                100 * other / capacity);
}

int
run(const Args &args, const fs::path &work)
{
    auto bench = makeBench(args, work);
    bench->inject_mismatch = args.inject_mismatch;
    SpanRecorder recorder;
    SpanRecorder *rec = args.trace ? &recorder : nullptr;

    // Set-up, repeated; then one warm-up pass.
    PassResult tally;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        const auto t = Clock::now();
        Span s(rec, "setup");
        bench->setup(k, rec, tally);
        setups.push_back(secondsSince(t));
    }
    const PassResult warm = bench->pass(nullptr, 0);
    tally.attempted += warm.attempted;
    tally.failed += warm.failed;

    // Timed passes (traced runs alternate untraced and traced passes).
    std::vector<PassResult> plain;
    std::vector<TracedPass> traced;
    const auto t0 = Clock::now();
    for (uint64_t n = 1; secondsSince(t0) < args.seconds || plain.empty() ||
         (args.trace && traced.empty());
         ++n) {
        const bool tr = args.trace && plain.size() > traced.size();
        const size_t from = recorder.size();
        if (!resetPeakRss() && n == 1)
            std::printf("note: cannot reset the peak-RSS mark; "
                        "host.max_rss_mb is the process's lifetime peak\n");
        PassResult p = bench->pass(tr ? rec : nullptr, n);
        p.rss_mb = peakRssMb();
        tally.attempted += p.attempted;
        tally.failed += p.failed;
        if (p.digest != warm.digest)
            reportFailure(tally, "pass " + std::to_string(n) +
                                     ": stats digest differs from the "
                                     "warm-up pass");
        if (tr)
            traced.push_back({from, recorder.size(), p.wall_s});
        else
            plain.push_back(p);
    }

    std::vector<double> wall, cpu, user, sys, busy, rss;
    for (const PassResult &p : plain) {
        wall.push_back(p.wall_s);
        rss.push_back(p.rss_mb);
        cpu.push_back(p.user_s + p.sys_s);
        user.push_back(p.user_s);
        sys.push_back(p.sys_s);
        busy.push_back(p.busy_s / (bench->threads() * p.wall_s));
    }
    const double wall_s = median(wall);
    const PassResult &ref = plain.front();
    const unsigned threads = bench->threads();
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const bool fit = std::strlen(PERFBENCH_SANITIZE) == 0 &&
        (build_type == "Release" || build_type == "RelWithDebInfo");

    std::printf("perfbench %s seed=%llu: %zu passes in %.1f s; setup %zu x; "
                "wall median %.4f s, p90 %.4f s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                secondsSince(t0), setups.size(), wall_s,
                quantile(wall, 0.9));
    std::printf("pass walls (s):");
    for (const double w : wall)
        std::printf(" %.4f", w);
    std::printf("\npass peak RSS (MB):");
    for (const double r : rss)
        std::printf(" %.1f", r);
    std::printf("\nsetup times (s):");
    for (const double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", "s", median(setups)},
            {"wall_s", "s", wall_s},
            {"cpu_s", "s", median(cpu)},
        };
    } else {
        const Layers l = bench->probe(recorder, traced, tally);
        // Span self time per traced pass, against the pass's thread
        // capacity (threads x wall).
        std::map<std::string, double> self;
        double capacity = 0, jobs_total = 0;
        for (const TracedPass &p : traced) {
            for (const auto &[name, s] : recorder.selfSeconds(p.from, p.to))
                self[name] += s / traced.size();
            capacity += threads * p.wall_s / traced.size();
        }
        for (const TracedPass &p : traced)
            for (const auto &[run, ds] :
                 recorder.durationsByRun("job", p.from, p.to))
                for (const double d : ds)
                    jobs_total += d / traced.size();
        double layered = 0;
        for (const auto &[name, s] : self)
            if (name != "job")
                layered += s;
        const double idle = std::max(0.0, capacity - jobs_total);
        const double other = capacity - layered - idle;
        printLayerTable(self, capacity, idle, other);
        std::vector<double> traced_wall;
        for (const TracedPass &p : traced)
            traced_wall.push_back(p.wall_s);

        const auto digest48 =
            static_cast<double>(ref.digest & ((1ull << 48) - 1));
        // Every crash trial: outer, in-recovery, and reorder states.
        const uint64_t trials =
            ref.trials + ref.recovery_trials + ref.reorder_states;
        metrics = {
            {"sim_mips", "Minsn/s", ref.instructions / wall_s / 1e6},
            {"trials_per_s", "1/s", trials / wall_s},
            {"failed_frac", "ratio",
             static_cast<double>(tally.failed) / tally.attempted},
            {"wall_p90_s", "s", quantile(wall, 0.9)},
            {"passes", "count", static_cast<double>(plain.size()), true},
            {"pmem.pool_setup_s", "s", l.pool_setup_s},
            {"pmem.pools_created", "count", static_cast<double>(l.pools),
             true},
            {"pmem.pool_bytes", "bytes", static_cast<double>(l.pool_bytes),
             true},
            {"workloads.native_s", "s", l.native_s},
            {"workloads.ops", "count", static_cast<double>(l.ops), true},
            {"trace_io.encode_s", "s", l.encode_s},
            {"trace_io.decode_s", "s", l.decode_s},
            {"trace_io.events", "count", static_cast<double>(l.events),
             true},
            {"trace_io.bytes", "bytes", static_cast<double>(l.bytes), true},
            {"sim.machine_s", "s", l.machine_s},
            {"sim.instructions", "count",
             static_cast<double>(ref.instructions), true},
            {"sim.cycles", "count", static_cast<double>(ref.cycles), true},
            {"sim.inorder.ns_per_insn", "ns", l.ns_inorder},
            {"sim.ooo.ns_per_insn", "ns", l.ns_ooo},
            {"sim.multicore.ns_per_insn", "ns", l.ns_multicore},
            {"sim.dispatch_s", "s", l.dispatch_s},
            {"sim.stats_digest", "hash", digest48, true},
            {"report.json_s", "s",
             self.count("report.json") ? self["report.json"] : 0.0},
            {"driver.sweep_busy_frac", "ratio", median(busy)},
            {"fault.ms_per_trial", "ms",
             trials ? wall_s * 1e3 / trials : 0.0},
            {"fault.trials", "count", static_cast<double>(ref.trials), true},
            {"fault.recovery_trials", "count",
             static_cast<double>(ref.recovery_trials), true},
            {"fault.reorder_states", "count",
             static_cast<double>(ref.reorder_states), true},
            {"fault.events", "count", static_cast<double>(ref.fault_events),
             true},
            {"host.user_s", "s", median(user)},
            {"host.sys_s", "s", median(sys)},
            {"host.max_rss_mb", "MB", median(rss)},
            {"layers.coverage", "ratio", layered / capacity},
            {"trace.overhead_frac", "ratio",
             median(traced_wall) / wall_s - 1.0},
        };
        const fs::path spans = fs::absolute(args.work_dir) /
            ("spans-" + args.workload + "-s" + std::to_string(args.seed) +
             ".json");
        if (recorder.writeChrome(spans.string(),
                                 provenanceJson(args, threads, fit)))
            std::printf("spans: %s (%zu spans)\n", spans.c_str(),
                        recorder.size());
        else
            reportFailure(tally, "cannot write " + spans.string());
    }

    std::printf("\n  %-26s %20s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::printf("  %-26s %20.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("provenance: %s\n", provenanceJson(args, threads, fit).c_str());
    if (!fit)
        std::printf("WARNING: sanitizer or non-optimized build: results "
                    "are unfit for comparison\n");

    std::string out = "{\"correct\": ";
    out += tally.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        if (metrics[i].integral)
            std::snprintf(num, sizeof(num), "%.0f", metrics[i].value);
        else
            std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + num + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
    }
    out += "}}";
    bench.reset();
    fs::remove_all(work);
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const fs::path work = fs::absolute(args.work_dir) /
        (args.workload + "-" + std::to_string(getpid()));
    try {
        fs::create_directories(work);
        return run(args, work);
    } catch (const std::exception &e) {
        // No result line: the run as a whole did not complete.
        std::error_code ec;
        fs::remove_all(work, ec);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
