/**
 * @file
 * Crash-point and media-fault exploration driver (see src/fault/).
 *
 * Default mode records a workload's durability events, then crashes it
 * at every event index (or a seeded sample) by rebuilding the durable
 * image from that recording, recovering, and checking all recovery
 * invariants — including crashes injected into the recovery itself.
 * --media mode instead corrupts checksummed on-media structures of
 * crashed images (bit flips and torn lines,
 * optionally two at a time with --doubles) and requires recovery to
 * repair, stay benign, or fail stop with a MediaError diagnostic.
 * Either mode prints coverage plus a deterministic reproducer for every
 * failure; reproducers replay with --repro=... within one build by
 * re-executing the workload (media reproducers carry an ":mF" token
 * and route automatically).
 *
 * Exit status: 0 all trials passed, 1 invariant violations found,
 * 2 usage error (the command-line contract of common/cli.h, README).
 */
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "fault/explore.h"
#include "fault/media.h"
#include "workloads/crash_support.h"

namespace {

using poat::fault::ExploreOptions;
using poat::fault::MediaOptions;

/** "superblock,log-header,..." -> structure kinds; throws otherwise. */
std::vector<poat::MediaStructure>
parseMediaKinds(const std::string &csv)
{
    std::vector<poat::MediaStructure> kinds;
    for (const std::string &kind : poat::cli::split(csv, ',')) {
        if (kind == "superblock")
            kinds.push_back(poat::MediaStructure::Superblock);
        else if (kind == "log-header")
            kinds.push_back(poat::MediaStructure::LogHeader);
        else if (kind == "log-entry")
            kinds.push_back(poat::MediaStructure::LogEntry);
        else if (kind == "block-header")
            kinds.push_back(poat::MediaStructure::BlockHeader);
        else
            throw std::invalid_argument(
                "bad value for --media-kinds: '" + kind +
                "' (expected superblock, log-header, log-entry, or "
                "block-header)");
    }
    return kinds;
}

/** Media-fault explore one workload; returns the number of failures. */
size_t
exploreMediaOne(const MediaOptions &opts, poat::StatsRegistry &stats)
{
    const poat::fault::MediaReport rep = poat::fault::exploreMedia(opts);
    rep.publish(stats);

    std::printf("%-5s steps=%llu seed=%llu events=%llu points=%llu "
                "sites=%llu\n",
                opts.base.workload.c_str(),
                static_cast<unsigned long long>(opts.base.steps),
                static_cast<unsigned long long>(opts.base.seed),
                static_cast<unsigned long long>(rep.total_events),
                static_cast<unsigned long long>(rep.points),
                static_cast<unsigned long long>(rep.sites));
    std::printf("      trials=%llu%s injected=%llu repaired=%llu "
                "diagnosed=%llu benign=%llu\n",
                static_cast<unsigned long long>(rep.trials),
                opts.sample == 0 ? " (exhaustive)" : " (sampled)",
                static_cast<unsigned long long>(rep.injected),
                static_cast<unsigned long long>(rep.repaired),
                static_cast<unsigned long long>(rep.diagnosed),
                static_cast<unsigned long long>(rep.benign));
    for (const poat::fault::Failure &f : rep.failures) {
        std::printf("      FAIL %s  %s\n", f.repro().c_str(),
                    f.why.c_str());
        if (!f.diag.empty())
            std::printf("           diag: %s\n", f.diag.c_str());
    }
    std::printf("      %s\n", rep.ok() ? "PASS" : "FAIL");
    return rep.failures.size();
}

/** Explore one workload; returns the number of failures. */
size_t
exploreOne(const ExploreOptions &opts, poat::StatsRegistry &stats)
{
    const poat::fault::ExploreReport rep = poat::fault::explore(opts);
    rep.publish(stats);

    std::printf("%-5s steps=%llu seed=%llu events=%llu "
                "(clwb=%llu fence=%llu evict=%llu)\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.steps),
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(rep.total_events),
                static_cast<unsigned long long>(rep.clwb_events),
                static_cast<unsigned long long>(rep.fence_events),
                static_cast<unsigned long long>(rep.evict_events));
    std::printf("      coverage: %llu/%llu crash points%s, "
                "%llu in-recovery trials%s\n",
                static_cast<unsigned long long>(rep.trials),
                static_cast<unsigned long long>(rep.total_events),
                opts.sample == 0 ? " (exhaustive)" : " (sampled)",
                static_cast<unsigned long long>(rep.recovery_trials),
                opts.in_recovery ? "" : " (disabled)");
    if (opts.reorder) {
        std::printf("      reorder: %llu drain states (%llu torn), "
                    "bound=%llu sample=%llu%s\n",
                    static_cast<unsigned long long>(rep.reorder_states),
                    static_cast<unsigned long long>(rep.torn_states),
                    static_cast<unsigned long long>(opts.drain_bound),
                    static_cast<unsigned long long>(opts.drain_sample),
                    opts.strict ? " (strict)" : "");
    }
    std::printf("      injected=%llu undo_rolled_back=%llu "
                "frees_redone=%llu leaked=%llu max_depth=%llu\n",
                static_cast<unsigned long long>(rep.crashes_injected),
                static_cast<unsigned long long>(
                    rep.undo_entries_rolled_back),
                static_cast<unsigned long long>(rep.frees_redone),
                static_cast<unsigned long long>(rep.blocks_leaked),
                static_cast<unsigned long long>(rep.max_depth));
    for (const poat::fault::Failure &f : rep.failures) {
        std::printf("      FAIL %s  %s\n", f.repro().c_str(),
                    f.why.c_str());
        if (!f.diag.empty())
            std::printf("           diag: %s\n", f.diag.c_str());
    }
    std::printf("      %s\n", rep.ok() ? "PASS" : "FAIL");
    return rep.failures.size();
}

} // namespace

int
main(int argc, char **argv)
{
    namespace cli = poat::cli;
    MediaOptions m;
    ExploreOptions &o = m.base;
    std::string repro;
    bool media = false;
    bool dump_stats = false;
    const cli::Parser parser(
        "crash_explore",
        {
            cli::text("--workload", "NAME", o.workload,
                      "LL, BST, SPS, RBT, BT, B+T, TPCC, LHT, MTPCC,\n"
                      "or 'all' (default B+T)"),
            cli::number("--steps", o.steps,
                        "transactions per trial (default 50)"),
            cli::number("--seed", o.seed,
                        "workload + sampling seed (default 1)"),
            cli::number("--sample", o.sample,
                        "crash points to try; 0 = every durability\n"
                        "event, exhaustively (default 0)"),
            cli::number("--jobs", o.jobs,
                        "parallel trials (default: all cores)"),
            cli::toggle("--no-in-recovery", o.in_recovery, false,
                        "skip crash points inside recovery"),
            cli::number("--inner-cap", o.inner_cap,
                        "in-recovery points per outer point; 0 = all\n"
                        "(default 0)"),
            cli::number("--depth", o.depth,
                        "recovery levels that may themselves crash\n"
                        "(recursive stack; default 2)"),
            cli::toggle("--reorder", o.reorder,
                        "also explore fence-drain subset and torn-line\n"
                        "crash states (fault/reorder.h)"),
            cli::number("--drain-bound", o.drain_bound,
                        "exhaustive subsets for batches up to N events\n"
                        "(default 6)"),
            cli::number("--drain-sample", o.drain_sample,
                        "sampled subsets per larger batch (default 32)"),
            cli::toggle("--strict", o.strict,
                        "run under the Strict durability policy\n"
                        "(CLWBs stage, fences drain in batches)"),
            cli::Flag{"--evict", "NUM/DEN",
                      "per-line eviction probability applied to all\n"
                      "pools after every step (default off)",
                      [&o](const std::string &v) {
                          poat::fault::parseEvictRatio(v, o);
                      }},
            cli::number("--threads", o.threads,
                        "engine workers per step for the concurrent\n"
                        "workloads (LHT, MTPCC); 0 = their default"),
            cli::number("--tseed", o.sched_seed,
                        "scheduler interleaving seed for the concurrent\n"
                        "workloads (default 0)"),
            cli::text("--repro", "R", repro,
                      "replay one trial from a failure's reproducer\n"
                      "string workload:steps:seed:k[:j | :dJ1,J2,..]\n"
                      "[:rMASKS][:S][:tS][:nT][:mF][:eN/D]\n"
                      "(self-contained, but build-local)"),
            cli::toggle("--stats", dump_stats,
                        "dump fault.* counters after exploring"),
            cli::toggle("--media", media,
                        "media-fault mode (src/fault/media.h): corrupt\n"
                        "checksummed structures of crashed images\n"
                        "instead of exploring crash points"),
            cli::numberList("--media-points", m.points,
                            "crash points to corrupt at (default: a\n"
                            "five-point spread over the event count)"),
            cli::number("--media-sample", m.sample,
                        "faults to inject per crash point; 0 = every\n"
                        "site, flip and tear (default 0)"),
            cli::number("--doubles", m.doubles,
                        "seeded double-fault trials per crash point\n"
                        "(default 0)"),
            cli::Flag{"--media-kinds", "K1,K2,...",
                      "restrict to structure kinds: superblock,\n"
                      "log-header, log-entry, block-header",
                      [&m](const std::string &v) {
                          m.kinds = parseMediaKinds(v);
                      }},
            cli::Flag{"--media-blocks", "F",
                      "block-header filter: any, allocated, free",
                      [&m](const std::string &v) {
                          if (v == "any")
                              m.block_filter = 0;
                          else if (v == "allocated")
                              m.block_filter = 1;
                          else if (v == "free")
                              m.block_filter = 2;
                          else
                              throw std::invalid_argument(
                                  "bad value for --media-blocks: '" +
                                  v +
                                  "' (expected any, allocated, or "
                                  "free)");
                      }},
        });
    parser.parse(argc, argv);
    if (media && (o.reorder || o.strict))
        parser.usageError("--media cannot combine with --reorder or "
                          "--strict (media trials run under the Eager "
                          "policy)");

    try {
        if (!repro.empty()) {
            const std::vector<poat::fault::Failure> fails =
                poat::fault::replayRepro(repro, o);
            if (fails.empty()) {
                std::printf("repro %s: PASS (does not reproduce)\n",
                            repro.c_str());
                return 0;
            }
            for (const poat::fault::Failure &f : fails) {
                std::printf("repro %s: FAIL  %s\n", f.repro().c_str(),
                            f.why.c_str());
                if (!f.diag.empty())
                    std::printf("  diag: %s\n", f.diag.c_str());
            }
            return 1;
        }

        std::vector<std::string> workloads;
        if (o.workload == "all")
            workloads = poat::workloads::crashWorkloadNames();
        else
            workloads.push_back(o.workload);

        poat::StatsRegistry stats;
        size_t failures = 0;
        for (const std::string &w : workloads) {
            o.workload = w;
            failures += media ? exploreMediaOne(m, stats)
                              : exploreOne(o, stats);
        }
        if (dump_stats) {
            std::printf("---- stats ----\n");
            stats.dump(std::cout);
        }
        return failures == 0 ? 0 : 1;
    } catch (const std::invalid_argument &e) {
        // Unknown workload name or malformed reproducer.
        parser.usageError(e.what());
    }
}
