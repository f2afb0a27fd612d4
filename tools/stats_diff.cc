/**
 * @file
 * Perf-regression gate over two --stats-json bench reports.
 *
 *   stats_diff [options] BASELINE.json CANDIDATE.json
 *
 * Every numeric leaf present in both reports is compared under a
 * symmetric relative deviation |a-b| / max(|a|,|b|); strings must match
 * exactly (--help lists the tolerance options). Exit status: 0 all
 * metrics within band, 1 any regression or structural mismatch, 2 bad
 * usage (the command-line contract of common/cli.h, README) or
 * unreadable input. CI runs this against the committed golden
 * (bench/golden/) and between nightly BENCH_<date>.json snapshots; see
 * docs/OBSERVABILITY.md.
 */
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "report/stats_diff.h"

using namespace poat;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    report::DiffOptions opt;
    size_t max_report = 20;
    std::string baseline, candidate;

    const cli::Parser parser(
        "stats_diff",
        {
            cli::real("--tolerance", opt.tolerance,
                      "default relative band (default 0.05 = 5%)"),
            cli::Flag{"--tol", "PREFIX=T",
                      "band for metric paths starting with PREFIX\n"
                      "(longest matching prefix wins; repeatable)",
                      [&opt](const std::string &spec) {
                          const size_t eq = spec.rfind('=');
                          if (eq == std::string::npos || eq == 0)
                              throw std::invalid_argument(
                                  "--tol needs PREFIX=T, got '" + spec +
                                  "'");
                          opt.overrides.emplace_back(
                              spec.substr(0, eq),
                              cli::toReal("--tol",
                                          spec.substr(eq + 1)));
                      }},
            cli::toggle("--ignore-missing", opt.ignore_missing,
                        "tolerate metrics present on only one side"),
            cli::number("--max-report", max_report,
                        "print at most N offending metrics (default 20)"),
        },
        {{"BASELINE.json", baseline}, {"CANDIDATE.json", candidate}});
    parser.parse(argc, argv);

    report::FlatJson a, b;
    try {
        a = report::flattenJson(slurp(baseline));
        b = report::flattenJson(slurp(candidate));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stats_diff: %s\n", e.what());
        return 2;
    }

    const report::DiffResult res = report::diffStats(a, b, opt);

    size_t printed = 0;
    auto room = [&] { return printed++ < max_report; };
    for (const auto &d : res.regressions)
        if (room())
            std::printf("REGRESSION  %-60s  %.6g -> %.6g  (%.2f%% > "
                        "%.2f%% band)\n",
                        d.path.c_str(), d.baseline, d.candidate,
                        100 * d.deviation, 100 * d.tolerance);
    for (const auto &p : res.mismatched_strings)
        if (room())
            std::printf("MISMATCH    %s (string differs)\n", p.c_str());
    if (!opt.ignore_missing) {
        for (const auto &p : res.only_baseline)
            if (room())
                std::printf("MISSING     %s (baseline only)\n",
                            p.c_str());
        for (const auto &p : res.only_candidate)
            if (room())
                std::printf("MISSING     %s (candidate only)\n",
                            p.c_str());
    }
    if (printed > max_report)
        std::printf("... and %zu more\n", printed - max_report);

    const bool ok = res.ok(opt.ignore_missing);
    std::printf("stats_diff: %zu metrics compared, %zu regressions%s\n",
                res.compared, res.regressions.size(),
                ok ? " -- OK" : " -- FAIL");
    return ok ? 0 : 1;
}
