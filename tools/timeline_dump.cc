/**
 * @file
 * Convert a captured poat-timeline interval stats stream.
 *
 *   timeline_dump [--csv|--json|--chrome] [-o FILE] FILE.poattl
 *
 * Default (no format flag) prints a human summary: header fields, the
 * series schema, and the first/last sample cycles. --csv emits one row
 * per sample (end_cycle plus every counter delta and gauge value),
 * --json the full document, and --chrome a Chrome-trace counter-event
 * array ("ph":"C") loadable in chrome://tracing or Perfetto — CPI-stack
 * components merge into one stacked track per stack. Exit status: 0 on
 * success, 1 on unreadable input or a failed write, 2 on bad usage (the
 * command-line contract of common/cli.h, README).
 */
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "telemetry/timeline.h"

using namespace poat;

namespace {

void
summarize(const telemetry::TimelineReader &tl, const std::string &file)
{
    std::printf("file:      %s\n", file.c_str());
    std::printf("format:    poat-timeline v%" PRIu32 "\n",
                telemetry::kTimelineVersion);
    std::printf("interval:  %" PRIu64 " cycles\n", tl.interval());
    std::printf("cores:     %" PRIu32 "\n", tl.cores());
    std::printf("samples:   %zu\n", tl.samples().size());
    std::printf("counters:  %zu\n", tl.counterNames().size());
    std::printf("gauges:    %zu\n", tl.gaugeNames().size());
    if (!tl.samples().empty())
        std::printf("cycles:    %" PRIu64 " .. %" PRIu64 "\n",
                    tl.samples().front().end_cycle,
                    tl.samples().back().end_cycle);
    std::printf("\nseries:\n");
    for (const std::string &n : tl.counterNames())
        std::printf("  counter  %s\n", n.c_str());
    for (const std::string &n : tl.gaugeNames())
        std::printf("  gauge    %s\n", n.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    enum class Format { Summary, Csv, Json, Chrome };
    Format fmt = Format::Summary;
    std::string file, out;
    const cli::Parser parser(
        "timeline_dump",
        {
            cli::toggle("--csv", fmt, Format::Csv,
                        "one row per sample: end_cycle, counter deltas,\n"
                        "gauge values (no format flag: a summary)"),
            cli::toggle("--json", fmt, Format::Json,
                        "the full document (schema + samples)"),
            cli::toggle("--chrome", fmt, Format::Chrome,
                        "Chrome-trace counter events (\"ph\":\"C\")"),
            cli::text("-o", "FILE", out, "write there instead of stdout"),
        },
        {{"FILE.poattl", file}});
    parser.parse(argc, argv);

    try {
        const telemetry::TimelineReader tl(file);
        if (fmt == Format::Summary) {
            summarize(tl, file);
            return 0;
        }
        std::ofstream of;
        if (!out.empty()) {
            of.open(out);
            if (!of) {
                std::fprintf(stderr, "timeline_dump: cannot open %s\n",
                             out.c_str());
                return 1;
            }
        }
        std::ostream &os = out.empty() ? std::cout : of;
        if (fmt == Format::Csv)
            telemetry::dumpCsv(tl, os);
        else if (fmt == Format::Json)
            telemetry::dumpJson(tl, os);
        else
            telemetry::dumpChrome(tl, os);
        os.flush();
        if (!os) {
            std::fprintf(stderr, "timeline_dump: write failed\n");
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "timeline_dump: %s\n", e.what());
        return 1;
    }
}
