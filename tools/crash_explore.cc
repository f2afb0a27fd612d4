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
 * 2 usage error.
 */
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "fault/explore.h"
#include "fault/media.h"
#include "workloads/crash_support.h"

namespace {

using poat::fault::ExploreOptions;
using poat::fault::MediaOptions;

struct Args
{
    std::string workload = "B+T"; ///< abbreviation or "all"
    uint64_t steps = 50;
    uint64_t seed = 1;
    uint64_t sample = 0; ///< 0 = exhaustive
    unsigned jobs = 0;
    bool in_recovery = true;
    uint64_t inner_cap = 0;
    uint64_t depth = 2;        ///< recovery levels that may crash
    bool reorder = false;      ///< drain-subset + torn-line states
    uint64_t drain_bound = 6;  ///< exhaustive-subset batch size cap
    uint64_t drain_sample = 32; ///< sampled subsets per bigger batch
    bool strict = false;       ///< run under the Strict policy
    uint64_t evict_num = 0;
    uint64_t evict_den = 8;
    uint32_t threads = 0;   ///< engine workers (LHT/MTPCC); 0 = default
    uint64_t sched_seed = 0; ///< scheduler interleaving seed (tSEED)
    std::string repro; ///< replay one trial instead of exploring
    bool dump_stats = false;

    bool media = false; ///< media-fault mode (fault/media.h)
    std::vector<uint64_t> media_points; ///< empty = default spread
    uint64_t media_sample = 0;          ///< 0 = exhaustive
    uint64_t doubles = 0;               ///< double-fault trials per point
    std::string media_kinds;            ///< empty = all structure kinds
    int block_filter = 0;               ///< 0 any, 1 alloc'd, 2 free
};

void
usage()
{
    std::printf(
        "usage: crash_explore [options]\n"
        "  --workload=NAME   LL, BST, SPS, RBT, BT, B+T, TPCC, LHT,\n"
        "                    MTPCC, or 'all' (default B+T)\n"
        "  --steps=N         transactions per trial (default 50)\n"
        "  --seed=N          workload + sampling seed (default 1)\n"
        "  --sample=N        crash points to try; 0 = every durability\n"
        "                    event, exhaustively (default 0)\n"
        "  --jobs=N          parallel trials (default: all cores)\n"
        "  --no-in-recovery  skip crash points inside recovery\n"
        "  --inner-cap=N     in-recovery points per outer point;\n"
        "                    0 = all (default 0)\n"
        "  --depth=N         recovery levels that may themselves crash\n"
        "                    (recursive stack; default 2)\n"
        "  --reorder         also explore fence-drain subset and\n"
        "                    torn-line crash states (fault/reorder.h)\n"
        "  --drain-bound=N   exhaustive subsets for batches up to N\n"
        "                    events (default 6)\n"
        "  --drain-sample=N  sampled subsets per larger batch\n"
        "                    (default 32)\n"
        "  --strict          run under the Strict durability policy\n"
        "                    (CLWBs stage, fences drain in batches)\n"
        "  --evict=NUM/DEN   per-line eviction probability applied to\n"
        "                    all pools after every step (default off)\n"
        "  --threads=N       engine workers per step for the concurrent\n"
        "                    workloads (LHT, MTPCC); 0 = their default\n"
        "  --tseed=N         scheduler interleaving seed for the\n"
        "                    concurrent workloads (default 0)\n"
        "  --repro=R         replay one trial from a failure's\n"
        "                    reproducer string\n"
        "                    workload:steps:seed:k[:j | :dJ1,J2,..]\n"
        "                    [:rMASKS][:S][:tS][:nT][:mF][:eN/D]\n"
        "                    (self-contained, but build-local)\n"
        "  --stats           dump fault.* counters after exploring\n"
        "media-fault mode (see src/fault/media.h):\n"
        "  --media           corrupt checksummed structures of crashed\n"
        "                    images instead of exploring crash points\n"
        "  --media-points=K1,K2,...\n"
        "                    crash points to corrupt at (default: a\n"
        "                    five-point spread over the event count)\n"
        "  --media-sample=N  faults to inject per crash point;\n"
        "                    0 = every site, flip and tear (default 0)\n"
        "  --doubles=N       seeded double-fault trials per crash\n"
        "                    point (default 0)\n"
        "  --media-kinds=CSV restrict to structure kinds: superblock,\n"
        "                    log-header, log-entry, block-header\n"
        "  --media-blocks=F  block-header filter: any, allocated, free\n"
        "  --help            this text\n");
}

uint64_t
parseU64(const std::string &arg, const std::string &value)
{
    size_t pos = 0;
    uint64_t v = 0;
    try {
        v = std::stoull(value, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos != value.size() || value.empty())
        throw std::invalid_argument("bad value for " + arg + ": '" +
                                    value + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string s = argv[i];
        auto value = [&](size_t prefix) { return s.substr(prefix); };
        if (s.rfind("--workload=", 0) == 0) {
            a.workload = value(11);
        } else if (s.rfind("--steps=", 0) == 0) {
            a.steps = parseU64("--steps", value(8));
        } else if (s.rfind("--seed=", 0) == 0) {
            a.seed = parseU64("--seed", value(7));
        } else if (s.rfind("--sample=", 0) == 0) {
            a.sample = parseU64("--sample", value(9));
        } else if (s.rfind("--jobs=", 0) == 0) {
            a.jobs = static_cast<unsigned>(parseU64("--jobs", value(7)));
        } else if (s == "--no-in-recovery") {
            a.in_recovery = false;
        } else if (s.rfind("--inner-cap=", 0) == 0) {
            a.inner_cap = parseU64("--inner-cap", value(12));
        } else if (s.rfind("--depth=", 0) == 0) {
            a.depth = parseU64("--depth", value(8));
        } else if (s == "--reorder") {
            a.reorder = true;
        } else if (s.rfind("--drain-bound=", 0) == 0) {
            a.drain_bound = parseU64("--drain-bound", value(14));
        } else if (s.rfind("--drain-sample=", 0) == 0) {
            a.drain_sample = parseU64("--drain-sample", value(15));
        } else if (s == "--strict") {
            a.strict = true;
        } else if (s.rfind("--evict=", 0) == 0) {
            const std::string v = value(8);
            const size_t slash = v.find('/');
            if (slash == std::string::npos)
                throw std::invalid_argument(
                    "bad value for --evict: '" + v +
                    "' (expected NUM/DEN)");
            a.evict_num = parseU64("--evict", v.substr(0, slash));
            a.evict_den = parseU64("--evict", v.substr(slash + 1));
            if (a.evict_den == 0 || a.evict_num > a.evict_den)
                throw std::invalid_argument(
                    "bad value for --evict: '" + v +
                    "' (need 0 <= NUM <= DEN, DEN > 0)");
        } else if (s.rfind("--threads=", 0) == 0) {
            const uint64_t n = parseU64("--threads", value(10));
            if (n > UINT32_MAX)
                throw std::invalid_argument("bad value for --threads: '" +
                                            value(10) + "' (out of range)");
            a.threads = static_cast<uint32_t>(n);
        } else if (s.rfind("--tseed=", 0) == 0) {
            a.sched_seed = parseU64("--tseed", value(8));
        } else if (s.rfind("--repro=", 0) == 0) {
            a.repro = value(8);
        } else if (s == "--media") {
            a.media = true;
        } else if (s.rfind("--media-points=", 0) == 0) {
            std::string cur;
            for (char c : value(15) + ",") {
                if (c == ',') {
                    if (!cur.empty())
                        a.media_points.push_back(
                            parseU64("--media-points", cur));
                    cur.clear();
                } else {
                    cur += c;
                }
            }
        } else if (s.rfind("--media-sample=", 0) == 0) {
            a.media_sample = parseU64("--media-sample", value(15));
        } else if (s.rfind("--doubles=", 0) == 0) {
            a.doubles = parseU64("--doubles", value(10));
        } else if (s.rfind("--media-kinds=", 0) == 0) {
            a.media_kinds = value(14);
        } else if (s.rfind("--media-blocks=", 0) == 0) {
            const std::string v = value(15);
            if (v == "any")
                a.block_filter = 0;
            else if (v == "allocated")
                a.block_filter = 1;
            else if (v == "free")
                a.block_filter = 2;
            else
                throw std::invalid_argument(
                    "bad value for --media-blocks: '" + v +
                    "' (expected any, allocated, or free)");
        } else if (s == "--stats") {
            a.dump_stats = true;
        } else if (s == "--help") {
            usage();
            std::exit(0);
        } else {
            throw std::invalid_argument("unknown argument: " + s);
        }
    }
    if (a.media && (a.reorder || a.strict))
        throw std::invalid_argument(
            "--media cannot combine with --reorder or --strict "
            "(media trials run under the Eager policy)");
    return a;
}

ExploreOptions
toOptions(const Args &a, const std::string &workload)
{
    ExploreOptions opts;
    opts.workload = workload;
    opts.steps = a.steps;
    opts.seed = a.seed;
    opts.sample = a.sample;
    opts.jobs = a.jobs;
    opts.in_recovery = a.in_recovery;
    opts.inner_cap = a.inner_cap;
    opts.depth = a.depth;
    opts.reorder = a.reorder;
    opts.drain_bound = a.drain_bound;
    opts.drain_sample = a.drain_sample;
    opts.strict = a.strict;
    opts.evict_num = a.evict_num;
    opts.evict_den = a.evict_den;
    opts.threads = a.threads;
    opts.sched_seed = a.sched_seed;
    return opts;
}

MediaOptions
toMediaOptions(const Args &a, const std::string &workload)
{
    MediaOptions m;
    m.base = toOptions(a, workload);
    m.points = a.media_points;
    m.sample = a.media_sample;
    m.doubles = a.doubles;
    m.block_filter = a.block_filter;
    std::string cur;
    for (char c : a.media_kinds + ",") {
        if (c != ',') {
            cur += c;
            continue;
        }
        if (cur.empty())
            continue;
        if (cur == "superblock")
            m.kinds.push_back(poat::MediaStructure::Superblock);
        else if (cur == "log-header")
            m.kinds.push_back(poat::MediaStructure::LogHeader);
        else if (cur == "log-entry")
            m.kinds.push_back(poat::MediaStructure::LogEntry);
        else if (cur == "block-header")
            m.kinds.push_back(poat::MediaStructure::BlockHeader);
        else
            throw std::invalid_argument(
                "bad value for --media-kinds: '" + cur +
                "' (expected superblock, log-header, log-entry, or "
                "block-header)");
        cur.clear();
    }
    return m;
}

/** Media-fault explore one workload; returns the number of failures. */
size_t
exploreMediaOne(const Args &a, const std::string &workload,
                poat::StatsRegistry &stats)
{
    const MediaOptions opts = toMediaOptions(a, workload);
    const poat::fault::MediaReport rep = poat::fault::exploreMedia(opts);
    rep.publish(stats);

    std::printf("%-5s steps=%llu seed=%llu events=%llu points=%llu "
                "sites=%llu\n",
                workload.c_str(),
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
exploreOne(const Args &a, const std::string &workload,
           poat::StatsRegistry &stats)
{
    const ExploreOptions opts = toOptions(a, workload);
    const poat::fault::ExploreReport rep = poat::fault::explore(opts);
    rep.publish(stats);

    std::printf("%-5s steps=%llu seed=%llu events=%llu "
                "(clwb=%llu fence=%llu evict=%llu)\n",
                workload.c_str(),
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
    Args a;
    try {
        a = parseArgs(argc, argv);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "crash_explore: %s\n", e.what());
        usage();
        return 2;
    }

    try {
        if (!a.repro.empty()) {
            const std::vector<poat::fault::Failure> fails =
                poat::fault::replayRepro(a.repro,
                                         toOptions(a, a.workload));
            if (fails.empty()) {
                std::printf("repro %s: PASS (does not reproduce)\n",
                            a.repro.c_str());
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
        if (a.workload == "all")
            workloads = poat::workloads::crashWorkloadNames();
        else
            workloads.push_back(a.workload);

        poat::StatsRegistry stats;
        size_t failures = 0;
        for (const std::string &w : workloads) {
            failures += a.media ? exploreMediaOne(a, w, stats)
                                : exploreOne(a, w, stats);
        }
        if (a.dump_stats) {
            std::printf("---- stats ----\n");
            stats.dump(std::cout);
        }
        return failures == 0 ? 0 : 1;
    } catch (const std::invalid_argument &e) {
        // Unknown workload name or malformed reproducer.
        std::fprintf(stderr, "crash_explore: %s\n", e.what());
        usage();
        return 2;
    }
}
