/**
 * @file
 * Render the concurrency-observability stats of a --stats-json report.
 *
 *   contention_report [--json] [--run=LABEL] [-o FILE] REPORT.json
 *
 * Reads any bench --stats-json output (or a bare stats document) and
 * prints, per multi-core run: the top contended locks with wait/hold
 * cycles, the abort/retry summary (wasted cycles, undo bytes rolled
 * back, group-commit fence elision), the machine-wide blocked-cycle
 * breakdown, and the critical path (length, %% of makespan, top
 * contributors by op and by lock). Sequential runs export no
 * contention stats and are skipped. --json emits the same data as a
 * machine-readable array. Exit status: 0 on success (even when no run
 * has contention stats — it reports that), 1 on unreadable input,
 * 2 on bad usage (the command-line contract of common/cli.h, README).
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "report/contention.h"

using namespace poat;

int
main(int argc, char **argv)
{
    bool json = false;
    std::string file, out, only;
    const cli::Parser parser(
        "contention_report",
        {
            cli::toggle("--json", json,
                        "machine-readable output (JSON array)"),
            cli::text("--run", "LABEL", only, "only the run with this label"),
            cli::text("-o", "FILE", out, "write there instead of stdout"),
        },
        {{"REPORT.json", file}});
    parser.parse(argc, argv);

    std::vector<report::ContentionRun> runs;
    try {
        std::ifstream f(file, std::ios::binary);
        if (!f)
            throw std::runtime_error("cannot open " + file);
        std::ostringstream ss;
        ss << f.rdbuf();
        runs = report::extractAllContention(
            report::flattenJson(ss.str()));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "contention_report: %s\n", e.what());
        return 1;
    }
    if (!only.empty()) {
        std::vector<report::ContentionRun> kept;
        for (auto &r : runs)
            if (r.label == only)
                kept.push_back(std::move(r));
        runs = std::move(kept);
    }

    std::ofstream of;
    if (!out.empty()) {
        of.open(out);
        if (!of) {
            std::fprintf(stderr, "contention_report: cannot open %s\n",
                         out.c_str());
            return 1;
        }
    }
    std::ostream &os = out.empty() ? std::cout : of;
    if (json) {
        report::renderContentionJson(runs, os);
    } else if (runs.empty()) {
        os << "no runs with contention stats (multi-core runs only)\n";
    } else {
        for (const auto &r : runs)
            report::renderContentionText(r, os);
    }
    os.flush();
    if (!os) {
        std::fprintf(stderr, "contention_report: write failed\n");
        return 1;
    }
    return 0;
}
