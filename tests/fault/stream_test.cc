/**
 * @file
 * Differential tests of the two crashed-image sources. The explorers
 * build every trial's crashed image from a prefix of one recorded
 * write-back stream; re-executing the workload under a crash hook (the
 * --repro path) is the reference. For a seeded sample of trials in
 * every mode — prefix and in-recovery stacks, Strict drain subsets and
 * torn lines, eviction pressure, media faults, the concurrent
 * workloads, one and four host jobs — both sources must produce
 * byte-identical durable images, the same step window, crash flag,
 * event count and diagnostics, and identical trial counters and
 * failure records.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "driver/sweep.h"
#include "fault/explore.h"
#include "fault/media.h"
#include "fault/reorder.h"
#include "fault/trial.h"
#include "pmem/runtime.h"

namespace poat {
namespace {

using fault::ExploreOptions;
using fault::Failure;
using fault::detail::CrashPoint;
using fault::detail::MediaTrialStats;
using fault::detail::Recording;
using fault::detail::TrialRun;
using fault::detail::TrialStats;

/** One crash trial: outer point, recovery-crash stack, drain masks. */
struct Spec
{
    uint64_t k = 0;
    std::vector<uint64_t> stack;
    std::vector<uint8_t> drain; ///< empty = prefix freeze

    std::string
    describe() const
    {
        std::string s = "k=" + std::to_string(k);
        for (uint64_t j : stack)
            s += " j=" + std::to_string(j);
        if (!drain.empty())
            s += " r" + fault::encodeDrainMasks(drain);
        return s;
    }
};

/** Every open pool's durable image, dense, by pool id. */
std::map<uint32_t, std::vector<uint8_t>>
durableImages(PmemRuntime &rt)
{
    std::map<uint32_t, std::vector<uint8_t>> out;
    for (uint32_t id : rt.registry().openIds())
        out[id] = rt.registry().get(id).pool.durableImage().dense();
    return out;
}

std::string
describe(const std::vector<Failure> &fs)
{
    std::string s;
    for (const Failure &f : fs)
        s += "[" + f.repro() + " | " + f.why + " | " + f.diag + "]";
    return s;
}

/** Differences between two crash points, "" when they agree. */
std::string
compareCrash(const CrashPoint &a, const CrashPoint &b)
{
    std::string p;
    if (!(a.window == b.window)) {
        p += " window [" + std::to_string(a.window.lo) + "," +
            std::to_string(a.window.hi) + "] vs [" +
            std::to_string(b.window.lo) + "," +
            std::to_string(b.window.hi) + "]";
    }
    if (a.fired != b.fired)
        p += " fired differs";
    if (a.events != b.events) {
        p += " events " + std::to_string(a.events) + " vs " +
            std::to_string(b.events);
    }
    if (a.diag != b.diag)
        p += " diag '" + a.diag + "' vs '" + b.diag + "'";
    return p;
}

/**
 * Step one both ways: the crashed runtime from @p rec and by
 * re-execution. Returns "" when they agree on everything.
 */
std::string
compareCrashedRuns(const ExploreOptions &opts, const Recording &rec,
                   uint64_t k, const std::vector<uint8_t> *drain)
{
    TrialRun streamed(opts);
    TrialRun rerun(opts);
    const CrashPoint a =
        fault::detail::crashRun(streamed, opts, k, drain, &rec);
    const CrashPoint b =
        fault::detail::crashRun(rerun, opts, k, drain, nullptr);
    std::string p = compareCrash(a, b);
    if (durableImages(streamed.rt) != durableImages(rerun.rt))
        p += " durable images differ";
    return p;
}

/** Whole trials both ways; "" when counters and failures agree. */
std::string
compareTrials(const ExploreOptions &opts, const Recording &rec,
              const Spec &s)
{
    const std::vector<uint8_t> *drain =
        s.drain.empty() ? nullptr : &s.drain;
    std::string p = compareCrashedRuns(opts, rec, s.k, drain);
    TrialStats a, b;
    const uint64_t ma =
        fault::detail::runTrial(opts, s.k, s.stack, drain, &rec, a);
    const uint64_t mb =
        fault::detail::runTrial(opts, s.k, s.stack, drain, nullptr, b);
    auto field = [&p](const char *name, uint64_t x, uint64_t y) {
        if (x != y) {
            p += std::string(" ") + name + " " + std::to_string(x) +
                " vs " + std::to_string(y);
        }
    };
    field("recovery_events", ma, mb);
    field("crashes_injected", a.crashes_injected, b.crashes_injected);
    field("undo_entries_rolled_back", a.undo_entries_rolled_back,
          b.undo_entries_rolled_back);
    field("frees_redone", a.frees_redone, b.frees_redone);
    field("blocks_leaked", a.blocks_leaked, b.blocks_leaked);
    field("trials", a.trials, b.trials);
    field("recovery_trials", a.recovery_trials, b.recovery_trials);
    field("reorder_states", a.reorder_states, b.reorder_states);
    field("torn_states", a.torn_states, b.torn_states);
    field("max_depth", a.max_depth, b.max_depth);
    if (describe(a.failures) != describe(b.failures)) {
        p += " failures " + describe(a.failures) + " vs " +
            describe(b.failures);
    }
    return p;
}

/** Run compareTrials over @p specs fanned out on @p jobs host threads. */
void
expectSameTrials(const ExploreOptions &opts, const Recording &rec,
                 const std::vector<Spec> &specs, unsigned jobs)
{
    ASSERT_FALSE(specs.empty());
    std::vector<std::string> problems(specs.size());
    driver::runTasks(specs.size(), jobs, [&](size_t i) {
        problems[i] = compareTrials(opts, rec, specs[i]);
    });
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(problems[i], "")
            << opts.workload << " " << specs[i].describe();
    }
}

/**
 * A seeded sample of @p n outer points, each with a one- and a
 * two-level in-recovery stack drawn from the recovery event counts the
 * stream-built trials report.
 */
std::vector<Spec>
prefixSpecs(const ExploreOptions &opts, const Recording &rec, uint64_t n,
            uint64_t seed)
{
    std::vector<Spec> specs;
    Rng rng(seed);
    for (uint64_t k : fault::detail::choosePoints(rec.events.size(), n,
                                                  seed)) {
        specs.push_back({k, {}, {}});
        std::vector<uint64_t> stack;
        for (int level = 0; level < 2; ++level) {
            TrialStats ts;
            const uint64_t m = fault::detail::runTrial(opts, k, stack,
                                                       nullptr, &rec, ts);
            if (m == 0)
                break;
            stack.push_back(rng.below(m));
            specs.push_back({k, stack, {}});
        }
    }
    return specs;
}

/** A seeded sample of planned drain states, torn lines included. */
std::vector<Spec>
drainSpecs(const ExploreOptions &opts, const Recording &rec, uint64_t n,
           uint64_t seed)
{
    std::vector<Spec> specs;
    Rng rng(seed);
    for (uint64_t bi : fault::detail::choosePoints(rec.batches.size(), n,
                                                   seed)) {
        const fault::DrainBatch &b = rec.batches[bi];
        const std::vector<fault::DrainPlan> plans =
            fault::planDrainStates(b, opts.drain_bound, opts.drain_sample,
                                   seed ^ b.start);
        for (int pick = 0; pick < 2; ++pick) {
            const fault::DrainPlan &p = plans[rng.below(plans.size())];
            specs.push_back({p.start, {}, p.masks});
        }
    }
    return specs;
}

ExploreOptions
config(const std::string &workload, uint64_t steps, uint64_t seed)
{
    ExploreOptions o;
    o.workload = workload;
    o.steps = steps;
    o.seed = seed;
    o.jobs = 2;
    return o;
}

TEST(StreamTrials, PrefixAndInRecoveryMatchReexecution)
{
    for (const char *wl : {"LL", "BST", "SPS", "RBT", "BT", "B+T"}) {
        const ExploreOptions o = config(wl, 12, 5);
        const Recording rec = fault::detail::recordStream(o);
        expectSameTrials(o, rec, prefixSpecs(o, rec, 3, 11), 1);
    }
}

TEST(StreamTrials, StrictDrainAndTornStatesMatchReexecution)
{
    for (const char *wl : {"LL", "RBT", "B+T"}) {
        ExploreOptions o = config(wl, 12, 2);
        o.strict = true;
        const Recording rec = fault::detail::recordStream(o);
        expectSameTrials(o, rec, drainSpecs(o, rec, 4, 7), 4);
    }
}

TEST(StreamTrials, KnownFailureReportsIdenticallyFromBothSources)
{
    // A drain state whose torn block header scrub cannot prove live
    // (see ROADMAP): both sources must report the same failure, with
    // the same reason and reproducer.
    ExploreOptions o = config("BST", 30, 1);
    o.strict = true;
    const Recording rec = fault::detail::recordStream(o);
    const Spec known{322, {}, fault::decodeDrainMasks("fe")};
    EXPECT_EQ(compareTrials(o, rec, known), "");
    TrialStats ts;
    fault::detail::runTrial(o, known.k, {}, &known.drain, &rec, ts);
    ASSERT_EQ(ts.failures.size(), 1u);
    EXPECT_EQ(ts.failures[0].repro(), "BST:30:1:322:rfe:S");
}

TEST(StreamTrials, EvictionPressureMatchesReexecution)
{
    ExploreOptions o = config("RBT", 12, 3);
    o.evict_num = 1;
    o.evict_den = 4;
    const Recording rec = fault::detail::recordStream(o);
    expectSameTrials(o, rec, prefixSpecs(o, rec, 3, 13), 4);
}

TEST(StreamTrials, ConcurrentWorkloadsMatchReexecution)
{
    ExploreOptions lht = config("LHT", 8, 1);
    lht.threads = 3;
    lht.sched_seed = 1;
    const Recording lrec = fault::detail::recordStream(lht);
    EXPECT_FALSE(lrec.diag.empty()) << "concurrent runs carry diagnostics";
    expectSameTrials(lht, lrec, prefixSpecs(lht, lrec, 3, 17), 4);

    ExploreOptions mt = config("MTPCC", 3, 1);
    mt.sched_seed = 2;
    const Recording mrec = fault::detail::recordStream(mt);
    std::vector<Spec> specs;
    for (uint64_t k : fault::detail::choosePoints(mrec.events.size(), 3,
                                                  19))
        specs.push_back({k, {}, {}});
    expectSameTrials(mt, mrec, specs, 1);
}

TEST(StreamTrials, MediaTrialsMatchReexecution)
{
    for (const char *wl : {"B+T", "LHT"}) {
        ExploreOptions o = config(wl, 10, 4);
        const Recording rec = fault::detail::recordStream(o);
        const uint64_t T = rec.events.size();
        std::vector<std::pair<uint64_t, std::string>> trials;
        for (uint64_t k : {uint64_t(0), T / 2, T}) {
            EXPECT_EQ(compareCrashedRuns(o, rec, k, nullptr), "")
                << wl << " k=" << k;
            TrialRun run(o);
            fault::detail::crashRun(run, o, k, nullptr, &rec);
            const uint64_t faults =
                2 * fault::enumerateMediaSites(run.rt.registry()).size();
            Rng rng(k + 1);
            for (int pick = 0; pick < 4; ++pick)
                trials.emplace_back(k, std::to_string(rng.below(faults)));
            trials.emplace_back(k, std::to_string(rng.below(faults)) + "+" +
                                       std::to_string(rng.below(faults)));
        }
        std::vector<std::string> problems(trials.size());
        driver::runTasks(trials.size(), 4, [&](size_t i) {
            MediaTrialStats a, b;
            fault::detail::runMediaTrial(o, trials[i].first,
                                         trials[i].second, &rec, a);
            fault::detail::runMediaTrial(o, trials[i].first,
                                         trials[i].second, nullptr, b);
            if (a.trials != b.trials || a.injected != b.injected ||
                a.repaired != b.repaired || a.diagnosed != b.diagnosed ||
                a.benign != b.benign ||
                describe(a.failures) != describe(b.failures))
                problems[i] = "media trial outcome differs";
        });
        for (size_t i = 0; i < trials.size(); ++i) {
            EXPECT_EQ(problems[i], "") << wl << " k=" << trials[i].first
                                       << " m" << trials[i].second;
        }
    }
}

TEST(StreamTrials, EvictionPassEventsAttributeToTheFollowingStep)
{
    // No workload leaves a dirty line behind a commit (see
    // Explore.ExhaustiveBtreeWithEvictionPressurePasses), so eviction
    // passes emit no events; pin the window rule on a stream whose
    // event is relabelled as one. An event in step i may recover to i
    // or i + 1; one in the eviction pass after step i only to i + 1.
    const ExploreOptions o = config("LL", 6, 3);
    Recording rec = fault::detail::recordStream(o);
    ASSERT_GT(rec.events.size(), 10u);
    const uint64_t k = rec.events.size() / 2;
    const uint64_t step = rec.events[k].step;

    TrialRun in_step(o);
    const CrashPoint a = fault::detail::crashRun(in_step, o, k, nullptr, &rec);
    EXPECT_TRUE(a.fired);
    EXPECT_EQ(a.window.lo, step);
    EXPECT_EQ(a.window.hi, step + 1);

    rec.events[k].evict_pass = true;
    TrialRun in_evict(o);
    const CrashPoint b =
        fault::detail::crashRun(in_evict, o, k, nullptr, &rec);
    EXPECT_EQ(b.window.lo, step + 1);
    EXPECT_EQ(b.window.hi, step + 1);

    // Past the stream nothing fires: the completed run's window.
    TrialRun done(o);
    const CrashPoint c = fault::detail::crashRun(
        done, o, rec.events.size(), nullptr, &rec);
    EXPECT_FALSE(c.fired);
    EXPECT_EQ(c.window.lo, o.steps);
    EXPECT_EQ(c.window.hi, o.steps);
}

} // namespace
} // namespace poat
