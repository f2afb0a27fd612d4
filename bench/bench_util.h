/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: one flag
 * table (--quick / --scale=N / --txns=N / --jobs=N / --stats-json=F /
 * --trace=D / --timeline=N; parsed by common/cli.h), configuration
 * builders, the parallel sweep entry point every binary funnels its
 * runs through (runAll, which also records each run into the JSON
 * report), fixed-width table printing that mirrors the paper's rows,
 * and the machine-readable JSON report every binary can emit
 * (docs/OBSERVABILITY.md documents the schema).
 */
#ifndef POAT_BENCH_BENCH_UTIL_H
#define POAT_BENCH_BENCH_UTIL_H

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/cpi.h"
#include "common/json.h"
#include "common/logging.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "report/contention.h"

namespace poat {
namespace bench {

/** Run sizing and output options shared by all bench binaries. */
struct BenchArgs
{
    uint32_t scale_pct = 100;     ///< microbenchmark op-count scale
    uint32_t tpcc_scale_pct = 10; ///< TPC-C cardinality scale
    uint64_t tpcc_txns = 1000;
    bool include_tpcc = true;
    bool quick = false;
    uint32_t jobs = 0;      ///< sweep threads; 0 = all cores, 1 = serial
    uint64_t seed = 42;     ///< workload RNG seed
    std::vector<uint64_t> seeds; ///< extra seeds for error bars (incl. seed)
    bool cpi_stack = false; ///< print per-run CPI component stacks
    std::string stats_json; ///< write a JSON report here (empty = off)
    std::string trace;      ///< Chrome trace output dir (empty = off)
    std::string trace_cache; ///< instruction-trace cache dir (empty = off)
    uint64_t timeline = 0;  ///< cycles per timeline sample (0 = off)
    std::string timeline_dir = "timelines"; ///< --timeline output dir
    bool timeline_cores = false; ///< per-core timeline lanes
    bool contention = false;     ///< print per-run contention reports

    /**
     * The shared flag table; a usage error exits 2 and --help exits 0
     * (the strict contract of common/cli.h).
     */
    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs a;
        const std::string prog = argv[0];
        const cli::Parser parser(
            prog.substr(prog.find_last_of('/') + 1),
            {
                cli::Flag{"--quick", "", "CI-sized runs (~10x faster)",
                          [&a](const std::string &) {
                              // Same shapes, ~10x faster; later
                              // sizing flags still override.
                              a.quick = true;
                              a.scale_pct = 20;
                              a.tpcc_scale_pct = 2;
                              a.tpcc_txns = 150;
                          }},
                cli::number("--scale", a.scale_pct,
                            "microbenchmark op-count %"),
                cli::number("--tpcc-scale", a.tpcc_scale_pct,
                            "TPC-C cardinality %"),
                cli::number("--txns", a.tpcc_txns,
                            "TPC-C transaction count"),
                cli::toggle("--no-tpcc", a.include_tpcc, false,
                            "skip TPC-C rows"),
                cli::number("--seed", a.seed,
                            "workload RNG seed (default 42)"),
                cli::Flag{"--seeds", "A,B,...",
                          "run every config once per seed and report\n"
                          "mean +/- stddev error bars (tables use the\n"
                          "first seed)",
                          [&a](const std::string &v) {
                              a.seeds = cli::toNumberList("--seeds", v);
                              a.seed = a.seeds[0];
                          }},
                cli::toggle("--cpi-stack", a.cpi_stack,
                            "print each run's CPI stack -- cycles\n"
                            "charged per component"),
                cli::number("--jobs", a.jobs,
                            "concurrent runs (default: all cores;\n"
                            "1 = serial; results are identical at any N)"),
                cli::text("--stats-json", "FILE", a.stats_json,
                          "write a JSON stats report"),
                cli::text("--trace", "DIR", a.trace,
                          "write each run's translation events as\n"
                          "Chrome trace JSON, one <label>.json per\n"
                          "run; observer-only, results identical"),
                cli::text("--trace-cache", "DIR", a.trace_cache,
                          "capture/replay instruction traces\n"
                          "(poat-itrace): runs sharing a functional\n"
                          "config execute the workload once and replay\n"
                          "it for every machine variant; results\n"
                          "identical"),
                cli::Flag{"--timeline", "N",
                          "sample an interval stats timeline every N\n"
                          "cycles into one poat-timeline v2 file per\n"
                          "run (convert: tools/timeline_dump);\n"
                          "observer-only, results identical",
                          [&a](const std::string &v) {
                              a.timeline = cli::toNumber("--timeline", v);
                              if (a.timeline == 0)
                                  throw std::invalid_argument(
                                      "--timeline needs a nonzero "
                                      "cycle interval");
                          }},
                cli::text("--timeline-dir", "D", a.timeline_dir,
                          "timeline output directory (default:\n"
                          "timelines)"),
                cli::toggle("--timeline-cores", a.timeline_cores,
                            "add per-core blocked-reason gauges to\n"
                            "multi-core runs' timelines (one Chrome lane\n"
                            "per core); observer-only"),
                cli::toggle("--contention", a.contention,
                            "print each multi-core run's contention\n"
                            "report: top locks, aborts, blocked cycles,\n"
                            "and the critical path (same data:\n"
                            "tools/contention_report); reporting-only"),
            });
        parser.parse(argc, argv);
        return a;
    }
};

/**
 * Machine-readable results for one bench binary.
 *
 * runAll() hands record() every finished run, in submission order:
 * label, config summary, headline numbers, and the run's full
 * hierarchical stats. Runs are kept only when --stats-json is given.
 * write() emits the report; benches add their headline metrics
 * (speedup geomeans etc.) via metric() first. The report also names
 * the per-run output files (runFileStem).
 */
class JsonReport
{
  public:
    JsonReport(std::string bench_name, const BenchArgs &args)
        : name_(std::move(bench_name)), args_(args)
    {}

    ~JsonReport() { write(); }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    /** The bench's name, as the report and its diagnostics print it. */
    const std::string &name() const { return name_; }

    /** Append one finished run to the report's run list. */
    void
    record(const driver::ExperimentConfig &cfg,
           const driver::ExperimentResult &res)
    {
        if (args_.stats_json.empty())
            return;
        std::ostringstream os;
        os << "    {\n";
        os << "      \"label\": \"" << jsonEscape(driver::configLabel(cfg))
           << "\",\n";
        os << "      \"config\": " << configJson(cfg) << ",\n";
        os << "      \"cycles\": " << res.metrics.cycles << ",\n";
        os << "      \"instructions\": " << res.metrics.instructions
           << ",\n";
        char ipc[32];
        std::snprintf(ipc, sizeof(ipc), "%.6g", res.metrics.ipc());
        os << "      \"ipc\": " << ipc << ",\n";
        os << "      \"stats\": ";
        res.stats.dumpJson(os, 6);
        os << "\n    }";
        runs_.push_back(os.str());
    }

    /** Add one named headline metric to the report's summary block. */
    void
    metric(const std::string &name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /** Per-config multi-seed spread, emitted under "error_bars". */
    struct ErrorBar
    {
        std::string label;
        size_t samples;
        double cycles_mean, cycles_stddev;
        double instructions_mean, instructions_stddev;
        double ipc_mean, ipc_stddev;
    };

    /** Record one config's multi-seed error bar (--seeds). */
    void errorBar(ErrorBar bar) { bars_.push_back(std::move(bar)); }

    /**
     * File stem of the next primary-seed run labelled @p label: the
     * label itself the first time, then "<label>-2", "<label>-3", ...
     * (skipping any stem already taken). Labels omit some machine
     * knobs (POLB size, walk latency), so sweeps repeat them; calling
     * this in submission order gives every run its own timeline and
     * trace file, the same names at any --jobs.
     */
    std::string
    runFileStem(const std::string &label)
    {
        std::string stem = label;
        for (unsigned k = 2; !stems_.insert(stem).second; ++k)
            stem = label + "-" + std::to_string(k);
        return stem;
    }

    /** Emit the JSON report (once; idempotent). */
    void
    write()
    {
        if (written_)
            return;
        written_ = true;
        if (!args_.stats_json.empty())
            writeStats();
    }

  private:
    static std::string
    configJson(const driver::ExperimentConfig &cfg)
    {
        std::string s = "{";
        s += "\"workload\": \"" + jsonEscape(cfg.workload) + "\"";
        s += ", \"mode\": \"";
        s += cfg.mode == TranslationMode::Software ? "software"
                                                   : "hardware";
        s += "\", \"core\": \"";
        s += cfg.machine.core == sim::CoreType::InOrder ? "inorder"
                                                        : "ooo";
        s += "\", \"polb_design\": \"";
        s += cfg.machine.polb_design == sim::PolbDesign::Pipelined
            ? "pipelined"
            : "parallel";
        s += "\", \"polb_entries\": " +
            std::to_string(cfg.machine.polb_entries);
        s += ", \"ideal_translation\": ";
        s += cfg.machine.ideal_translation ? "true" : "false";
        s += ", \"transactions\": ";
        s += cfg.transactions ? "true" : "false";
        s += ", \"timing\": ";
        s += cfg.timing ? "true" : "false";
        s += ", \"scale_pct\": " + std::to_string(cfg.scale_pct);
        s += ", \"seed\": " + std::to_string(cfg.seed);
        s += "}";
        return s;
    }

    void
    writeStats()
    {
        std::ofstream os(args_.stats_json);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         args_.stats_json.c_str());
            POAT_FATAL("cannot open --stats-json output file");
        }
        os << "{\n  \"bench\": \"" << jsonEscape(name_) << "\",\n";
        os << "  \"quick\": " << (args_.quick ? "true" : "false")
           << ",\n";
        os << "  \"scale_pct\": " << args_.scale_pct << ",\n";
        os << "  \"tpcc_scale_pct\": " << args_.tpcc_scale_pct << ",\n";
        os << "  \"tpcc_txns\": " << args_.tpcc_txns << ",\n";
        os << "  \"runs\": [";
        for (size_t i = 0; i < runs_.size(); ++i)
            os << (i ? ",\n" : "\n") << runs_[i];
        os << "\n  ],\n";
        if (!bars_.empty()) {
            os << "  \"error_bars\": [";
            for (size_t i = 0; i < bars_.size(); ++i) {
                const ErrorBar &b = bars_[i];
                os << (i ? ",\n" : "\n") << "    {\"label\": \""
                   << jsonEscape(b.label) << "\", \"samples\": "
                   << b.samples;
                auto pair = [&os](const char *name, double mean,
                                  double sd) {
                    char m[32], s[32];
                    std::snprintf(m, sizeof(m), "%.6g", mean);
                    std::snprintf(s, sizeof(s), "%.6g", sd);
                    os << ", \"" << name << "\": {\"mean\": " << m
                       << ", \"stddev\": " << s << "}";
                };
                pair("cycles", b.cycles_mean, b.cycles_stddev);
                pair("instructions", b.instructions_mean,
                     b.instructions_stddev);
                pair("ipc", b.ipc_mean, b.ipc_stddev);
                os << "}";
            }
            os << "\n  ],\n";
        }
        os << "  \"summary\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            char v[32];
            std::snprintf(v, sizeof(v), "%.6g", metrics_[i].second);
            os << (i ? ",\n" : "\n") << "    \""
               << jsonEscape(metrics_[i].first) << "\": " << v;
        }
        os << (metrics_.empty() ? "" : "\n  ") << "}\n}\n";
        std::printf("stats-json: wrote %zu runs to %s\n", runs_.size(),
                    args_.stats_json.c_str());
    }

    std::string name_;
    BenchArgs args_;
    std::vector<std::string> runs_; ///< rendered JSON run objects
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<ErrorBar> bars_;
    std::set<std::string> stems_; ///< runFileStem names handed out
    bool written_ = false;
};

inline void hr(int width = 78);

/** Print one run's CPI stack: cycles charged per component, with the
 *  share of total cycles (--cpi-stack). */
inline void
printCpiStack(const std::string &label, const CpiStack &cpi)
{
    const uint64_t total = cpi.total();
    std::printf("CPI stack: %s\n", label.c_str());
    for (size_t i = 0; i < kCpiComponents; ++i) {
        const auto comp = static_cast<CpiComponent>(i);
        if (!cpi[comp])
            continue;
        std::printf("  %-13s %14llu  %5.1f%%\n", cpiComponentName(comp),
                    static_cast<unsigned long long>(cpi[comp]),
                    total ? 100.0 * static_cast<double>(cpi[comp]) /
                            static_cast<double>(total)
                          : 0.0);
    }
    std::printf("  %-13s %14llu\n", "total",
                static_cast<unsigned long long>(total));
}

/** Create the output directory @p dir of @p flag if it is missing. */
inline void
makeOutputDir(const std::string &dir, const char *flag)
{
    if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "cannot create %s for %s\n", dir.c_str(),
                     flag);
        POAT_FATAL("cannot create an output directory");
    }
}

/**
 * Execute a batch of experiment configs through driver::runSweep with
 * the --jobs setting, returning results in submission order (identical
 * to a serial runExperiment loop at any job count) and recording them,
 * then any --seeds runs, into @p report in that order. --timeline and
 * --trace give every primary-seed run its own output file, named by
 * JsonReport::runFileStem. A live "sweep k/n" progress line goes to
 * stderr so long regenerations still show a heartbeat while the result
 * tables print all at once. A run that fails (an output path it cannot
 * write, say) prints "<bench>: <why>" on stderr and exits 1.
 */
inline std::vector<driver::ExperimentResult>
runAll(const BenchArgs &args, JsonReport &report,
       std::vector<driver::ExperimentConfig> configs)
{
    if (!args.trace_cache.empty())
        for (auto &c : configs)
            c.trace_cache = args.trace_cache;
    if (args.timeline)
        makeOutputDir(args.timeline_dir, "--timeline-dir");
    if (!args.trace.empty())
        makeOutputDir(args.trace, "--trace");
    if (args.timeline || !args.trace.empty()) {
        // One poat-timeline v2 stream and one Chrome trace per
        // primary-seed run. Extra --seeds runs get neither (see below).
        for (auto &c : configs) {
            const std::string stem =
                report.runFileStem(driver::configLabel(c));
            if (args.timeline) {
                c.timeline_interval = args.timeline;
                c.timeline_path =
                    args.timeline_dir + "/" + stem + ".poattl";
                c.timeline_cores = args.timeline_cores;
            }
            if (!args.trace.empty())
                c.trace_path = args.trace + "/" + stem + ".json";
        }
    }
    driver::SweepOptions so;
    so.jobs = args.jobs;
    if (isatty(fileno(stderr))) {
        so.progress = [](size_t done, size_t n) {
            std::fprintf(stderr, "\rsweep %zu/%zu", done, n);
            if (done == n)
                std::fprintf(stderr, "\r          \r");
            std::fflush(stderr);
        };
    }
    auto sweep = [&](const std::vector<driver::ExperimentConfig> &batch) {
        std::vector<driver::ExperimentResult> res;
        try {
            res = driver::runSweep(batch, so);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: %s\n", report.name().c_str(),
                         e.what());
            std::exit(1);
        }
        for (size_t i = 0; i < batch.size(); ++i)
            report.record(batch[i], res[i]);
        return res;
    };
    std::vector<driver::ExperimentResult> results = sweep(configs);

    if (args.cpi_stack) {
        hr();
        for (size_t i = 0; i < configs.size(); ++i)
            printCpiStack(driver::configLabel(configs[i]),
                          results[i].cpi);
    }

    if (args.contention) {
        // Per-run contention reports, through the same flatten +
        // extract path tools/contention_report uses on a saved
        // --stats-json, so the printed numbers match the tool's.
        hr();
        size_t shown = 0;
        for (size_t i = 0; i < configs.size(); ++i) {
            std::ostringstream stats;
            results[i].stats.dumpJson(stats);
            report::ContentionRun run = report::extractContention(
                report::flattenJson("{\"stats\": " + stats.str() + "}"),
                "");
            if (!run.present)
                continue; // sequential run: nothing to report
            run.label = driver::configLabel(configs[i]);
            report::renderContentionText(run, std::cout);
            ++shown;
        }
        if (shown == 0)
            std::printf("--contention: no multi-core runs in this "
                        "bench\n");
    }

    if (args.seeds.size() > 1) {
        // Re-run every config under each extra seed (the primary seed's
        // results above stay the tables' source of truth) and report
        // the per-config spread. Extra runs share the trace cache --
        // the fingerprint includes the seed, so each seed gets its own
        // cache entry -- but no trace or timeline file.
        std::vector<driver::ExperimentConfig> extra;
        for (size_t s = 1; s < args.seeds.size(); ++s)
            for (driver::ExperimentConfig c : configs) {
                c.seed = args.seeds[s];
                c.trace_path.clear();
                c.timeline_interval = 0;
                c.timeline_path.clear();
                extra.push_back(std::move(c));
            }
        const auto extra_res = sweep(extra);

        hr();
        std::printf("error bars over %zu seeds (mean +/- stddev):\n",
                    args.seeds.size());
        std::printf("  %-44s %16s %12s %10s %8s\n", "config", "cycles",
                    "+/-", "ipc", "+/-");
        const size_t n = configs.size();
        for (size_t i = 0; i < n; ++i) {
            auto stat = [&](auto get) {
                double sum = 0, sumsq = 0;
                const double first =
                    static_cast<double>(get(results[i]));
                sum += first;
                sumsq += first * first;
                for (size_t s = 1; s < args.seeds.size(); ++s) {
                    const double v = static_cast<double>(
                        get(extra_res[(s - 1) * n + i]));
                    sum += v;
                    sumsq += v * v;
                }
                const double cnt =
                    static_cast<double>(args.seeds.size());
                const double mean = sum / cnt;
                const double var =
                    std::max(0.0, sumsq / cnt - mean * mean);
                return std::make_pair(mean, std::sqrt(var));
            };
            const auto cyc = stat([](const driver::ExperimentResult &r) {
                return r.metrics.cycles;
            });
            const auto ins = stat([](const driver::ExperimentResult &r) {
                return r.metrics.instructions;
            });
            const auto ipc = stat([](const driver::ExperimentResult &r) {
                return r.metrics.ipc();
            });
            std::printf("  %-44s %16.0f %12.0f %10.3f %8.3f\n",
                        driver::configLabel(configs[i]).c_str(),
                        cyc.first, cyc.second, ipc.first, ipc.second);
            report.errorBar({driver::configLabel(configs[i]),
                             args.seeds.size(), cyc.first, cyc.second,
                             ins.first, ins.second, ipc.first,
                             ipc.second});
        }
    }
    return results;
}

/** Baseline (BASE) experiment for a microbenchmark. */
inline driver::ExperimentConfig
microBase(const BenchArgs &a, const std::string &wl,
          workloads::PoolPattern pattern,
          sim::CoreType core = sim::CoreType::InOrder,
          bool transactions = true)
{
    driver::ExperimentConfig c;
    c.workload = wl;
    c.pattern = pattern;
    c.scale_pct = a.scale_pct;
    c.transactions = transactions;
    c.mode = TranslationMode::Software;
    c.machine.core = core;
    c.seed = a.seed;
    return c;
}

/** Baseline (BASE) experiment for TPC-C. */
inline driver::ExperimentConfig
tpccBase(const BenchArgs &a, workloads::tpcc::Placement placement,
         sim::CoreType core = sim::CoreType::InOrder)
{
    driver::ExperimentConfig c;
    c.workload = "TPCC";
    c.placement = placement;
    c.tpcc_scale_pct = a.tpcc_scale_pct;
    c.tpcc_txns = a.tpcc_txns;
    c.mode = TranslationMode::Software;
    c.machine.core = core;
    c.seed = a.seed;
    return c;
}

/** The OPT twin of a BASE config. */
inline driver::ExperimentConfig
asOpt(driver::ExperimentConfig c,
      sim::PolbDesign design = sim::PolbDesign::Pipelined,
      bool ideal = false)
{
    c.mode = TranslationMode::Hardware;
    c.machine.polb_design = design;
    c.machine.ideal_translation = ideal;
    return c;
}

/** All pattern values with their paper names. */
inline const std::vector<std::pair<workloads::PoolPattern, const char *>> &
patterns()
{
    static const std::vector<std::pair<workloads::PoolPattern, const char *>>
        p = {
            {workloads::PoolPattern::All, "ALL"},
            {workloads::PoolPattern::Each, "EACH"},
            {workloads::PoolPattern::Random, "RANDOM"},
        };
    return p;
}

inline void
hr(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace bench
} // namespace poat

#endif // POAT_BENCH_BENCH_UTIL_H
