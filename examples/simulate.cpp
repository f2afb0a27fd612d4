/**
 * @file
 * Driving the cycle-level simulator directly: run one workload under
 * BASE (software oid_direct) and OPT (hardware POLB/POT translation)
 * on the paper's Nehalem-class machine and print what the hardware
 * support buys — the experiment behind every bar of Figure 9, in
 * miniature. Bad usage exits 2 (the command-line contract of
 * common/cli.h, README).
 */
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/cli.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "pmem/runtime.h"
#include "workloads/harness.h"

using namespace poat;
using namespace poat::driver;

namespace {

void
report(const char *label, const ExperimentResult &r)
{
    std::printf("%-22s %12lu cycles %12lu insns  IPC %.2f  "
                "POLB miss %.2f%%  TLB miss %lu\n",
                label, static_cast<unsigned long>(r.metrics.cycles),
                static_cast<unsigned long>(r.metrics.instructions),
                r.metrics.ipc(), 100.0 * r.metrics.polbMissRate(),
                static_cast<unsigned long>(r.metrics.tlb_misses));
    const auto &c = r.cpi;
    const double t = static_cast<double>(c.total());
    if (t > 0) {
        // The CPI stack, folded to the headline groups of Figure 12.
        const double mem = static_cast<double>(
            c[CpiComponent::L1D] + c[CpiComponent::L2] +
            c[CpiComponent::L3] + c[CpiComponent::Mem]);
        const double xlat = static_cast<double>(
            c[CpiComponent::SwTranslate] + c[CpiComponent::Polb] +
            c[CpiComponent::PotWalk] + c[CpiComponent::Tlb]);
        std::printf("  cycles: base %.0f%%  mem %.0f%%  translate "
                    "%.0f%%  flush %.0f%%  fence %.0f%%  branch "
                    "%.0f%%\n",
                    100 * c[CpiComponent::Base] / t, 100 * mem / t,
                    100 * xlat / t, 100 * c[CpiComponent::Flush] / t,
                    100 * c[CpiComponent::Fence] / t,
                    100 * c[CpiComponent::Branch] / t);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    enum class Mode { Compare, Stats, StatsJson };
    Mode mode = Mode::Compare;
    std::string workload = "B+T";
    const cli::Parser parser(
        "simulate",
        {
            cli::toggle("--compare", mode, Mode::Compare,
                        "BASE vs OPT designs (the default)"),
            cli::toggle("--stats", mode, Mode::Stats,
                        "counter dump of one OPT run"),
            cli::toggle("--stats-json", mode, Mode::StatsJson,
                        "the same, as hierarchical JSON"),
        },
        {{"WORKLOAD", workload, false,
          "one of LL BST SPS RBT BT B+T (default B+T)"}});
    parser.parse(argc, argv);
    const auto &names = workloads::microbenchNames();
    if (std::find(names.begin(), names.end(), workload) == names.end())
        parser.usageError("unknown workload: " + workload);

    if (mode != Mode::Compare) {
        // Full Sniper-style counter dump of one OPT run — flat text, or
        // the hierarchical JSON form described in docs/OBSERVABILITY.md.
        sim::MachineConfig mc;
        mc.core = sim::CoreType::InOrder;
        sim::Machine machine(mc);
        RuntimeOptions ro;
        ro.mode = TranslationMode::Hardware;
        PmemRuntime rt(ro, &machine);
        workloads::WorkloadConfig wc;
        wc.pattern = workloads::PoolPattern::Random;
        wc.scale_pct = 50;
        workloads::makeWorkload(workload, wc)->run(rt);
        if (mode == Mode::StatsJson) {
            machine.dumpStatsJson(std::cout);
            std::cout << "\n";
        } else {
            machine.dumpStats(std::cout);
        }
        return 0;
    }

    ExperimentConfig base;
    base.workload = workload;
    base.pattern = workloads::PoolPattern::Random;
    base.scale_pct = 50;
    base.machine.core = sim::CoreType::InOrder;

    ExperimentConfig opt = base;
    opt.mode = TranslationMode::Hardware;
    ExperimentConfig par = opt;
    par.machine.polb_design = sim::PolbDesign::Parallel;
    ExperimentConfig ideal = opt;
    ideal.machine.ideal_translation = true;

    std::printf("workload %s, RANDOM pattern (32 pools), in-order "
                "core\n\n",
                workload.c_str());

    // All four configurations fan out across the machine's cores; the
    // results come back in submission order, bit-identical to running
    // them one at a time (see driver/sweep.h).
    const auto res = runSweep({base, opt, par, ideal});
    const auto &b = res[0];
    const auto &o = res[1];
    const auto &p = res[2];
    const auto &i = res[3];

    report("BASE (oid_direct)", b);
    std::printf("  oid_direct called %lu times, %.1f insns/call, "
                "predictor missed %.1f%%\n",
                static_cast<unsigned long>(b.translate_calls),
                b.translate_insns_per_call,
                b.translate_calls
                    ? 100.0 * static_cast<double>(b.translate_misses) /
                          static_cast<double>(b.translate_calls)
                    : 0.0);

    report("OPT (POLB, Pipelined)", o);
    report("OPT (POLB, Parallel)", p);
    report("OPT (ideal translation)", i);

    std::printf("\nspeedup over BASE: Pipelined %.2fx, Parallel %.2fx, "
                "ideal %.2fx\n",
                speedup(b, o), speedup(b, p), speedup(b, i));
    std::printf("dynamic instructions removed by hardware translation: "
                "%.1f%%\n",
                100.0 * (1.0 - static_cast<double>(o.metrics.instructions) /
                                   static_cast<double>(
                                       b.metrics.instructions)));

    std::printf("\nfull telemetry of the Pipelined OPT run "
                "(machine-readable; see docs/OBSERVABILITY.md):\n");
    o.stats.dumpJson(std::cout);
    std::cout << "\n";
    return 0;
}
