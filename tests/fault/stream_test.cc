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
 * failure records. The StreamCheckpoints tests check the recording's
 * checkpoints against persisting every prefix whole.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <stdexcept>
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

// ---- Checkpoints: the prefix image without persisting the whole prefix.

using LineKey = std::pair<uint32_t, uint32_t>; // (pool, line)
using LineBytes = std::array<uint8_t, kLineSize>;

/** Durable bytes of every (pool, line) @p rec writes back. */
std::map<LineKey, LineBytes>
recordedLines(PmemRuntime &rt, const Recording &rec)
{
    std::map<LineKey, LineBytes> out;
    for (const fault::detail::WriteBackEvent &e : rec.events) {
        LineBytes &bytes = out[{e.pool_id, e.line}];
        rt.registry().get(e.pool_id).pool.readDurable(
            e.line * static_cast<uint32_t>(kLineSize), bytes.data(),
            kLineSize);
    }
    return out;
}

/**
 * Put @p lines (a recordedLines() snapshot taken after setup) back into
 * the durable images, so one set-up runtime serves many trials: every
 * durable byte a trial writes lies on a recorded line.
 */
void
restoreLines(PmemRuntime &rt, const std::map<LineKey, LineBytes> &lines)
{
    for (const auto &[key, bytes] : lines) {
        rt.registry().get(key.first).pool.persistLineWords(
            key.second, bytes.data(), DurabilityHook::kFullLineMask);
    }
}

/** The reference: persist recorded events [from, to) whole, one by one. */
void
persistWhole(PmemRuntime &rt, const Recording &rec, uint64_t from,
             uint64_t to)
{
    for (uint64_t i = from; i < std::min<uint64_t>(to, rec.events.size());
         ++i) {
        const fault::detail::WriteBackEvent &e = rec.events[i];
        rt.registry().get(e.pool_id).pool.persistLineWords(
            e.line, e.bytes.data(), DurabilityHook::kFullLineMask);
    }
}

/** Then persist the words of @p masks from event @p k on. */
void
persistMasks(PmemRuntime &rt, const Recording &rec, uint64_t k,
             const std::vector<uint8_t> &masks)
{
    for (uint64_t r = 0; r < masks.size() && k + r < rec.events.size();
         ++r) {
        const fault::detail::WriteBackEvent &e = rec.events[k + r];
        if (masks[r] != 0) {
            rt.registry().get(e.pool_id).pool.persistLineWords(
                e.line, e.bytes.data(), masks[r]);
        }
    }
}

/**
 * Checkpoint-built images against whole prefixes for every k in
 * [0, total], two points past it, and drain masks starting at 64j - 1,
 * 64j and 64j + 1. Recorded lines are compared at every k, whole
 * durable images at every checkpoint boundary and at the end. The k
 * range is split over four host threads that share @p rec.
 */
void
expectCheckpointedImagesMatch(const ExploreOptions &o, const Recording &rec)
{
    const uint64_t total = rec.events.size();
    const uint64_t every = Recording::kCheckpointEvery;
    ASSERT_GE(rec.checkpoints.size(), 2u) << o.workload;
    ASSERT_EQ(rec.checkpoints.size(), total / every) << o.workload;
    std::vector<uint64_t> ks;
    for (uint64_t k = 0; k <= total; ++k)
        ks.push_back(k);
    ks.push_back(total + 1);
    ks.push_back(total + every);

    constexpr size_t kChunks = 4;
    std::vector<std::string> problems(kChunks);
    driver::runTasks(kChunks, kChunks, [&](size_t c) {
        TrialRun run(o);
        TrialRun ref(o);
        const std::map<LineKey, LineBytes> setup =
            recordedLines(run.rt, rec);
        std::string &p = problems[c];
        auto check = [&](const std::string &what, uint64_t k) {
            if (recordedLines(run.rt, rec) != recordedLines(ref.rt, rec)) {
                p += " " + what + std::to_string(k) + ": lines differ";
            } else if ((k % every == 0 || k >= total) &&
                       durableImages(run.rt) != durableImages(ref.rt)) {
                p += " " + what + std::to_string(k) + ": images differ";
            }
        };
        const size_t lo = ks.size() * c / kChunks;
        const size_t hi = ks.size() * (c + 1) / kChunks;
        persistWhole(ref.rt, rec, 0, ks[lo]);
        uint64_t done = ks[lo];
        for (size_t i = lo; i < hi; ++i) {
            const uint64_t k = ks[i];
            restoreLines(run.rt, setup);
            fault::detail::crashRun(run, o, k, nullptr, &rec);
            persistWhole(ref.rt, rec, done, k);
            done = std::max(done, k);
            check("k=", k);
        }
        // Drain states around the boundaries this chunk's threads own.
        const std::vector<uint8_t> masks = {0xff, 0x0f, 0x00, 0xf0, 0xff};
        for (uint64_t j = 1 + c; j <= total / every; j += kChunks) {
            for (uint64_t start : {j * every - 1, j * every, j * every + 1}) {
                restoreLines(run.rt, setup);
                restoreLines(ref.rt, setup);
                fault::detail::crashRun(run, o, start, &masks, &rec);
                persistWhole(ref.rt, rec, 0, start);
                persistMasks(ref.rt, rec, start, masks);
                check("drain at ", start);
            }
        }
    });
    for (size_t c = 0; c < kChunks; ++c)
        EXPECT_EQ(problems[c], "") << o.workload << " chunk " << c;
}

TEST(StreamCheckpoints, ImagesMatchWholePrefixes)
{
    std::vector<ExploreOptions> configs = {config("B+T", 12, 3),
                                           config("LL", 12, 5)};
    ExploreOptions rbt = config("RBT", 10, 3);
    rbt.evict_num = 1;
    rbt.evict_den = 4;
    configs.push_back(rbt);
    ExploreOptions lht = config("LHT", 6, 1);
    lht.threads = 2;
    lht.sched_seed = 1;
    configs.push_back(lht);
    configs.push_back(config("TPCC", 2, 1));
    for (const ExploreOptions &o : configs)
        expectCheckpointedImagesMatch(o, fault::detail::recordStream(o));
}

TEST(StreamCheckpoints, KeyOnPoolAndLineAndWorkWithoutCheckpoints)
{
    // No explorer workload spreads over two pools, so build a stream by
    // hand: both pools write the same line numbers, each line several
    // times, across three checkpoints.
    const ExploreOptions o = config("LL", 2, 1);
    auto twoPools = [&o]() {
        auto run = std::make_unique<TrialRun>(o);
        run->rt.registry().create("second", 1 << 20);
        return run;
    };
    std::unique_ptr<TrialRun> probe = twoPools();
    const std::vector<uint32_t> ids = probe->rt.registry().openIds();
    ASSERT_EQ(ids.size(), 2u);
    Recording rec;
    Rng rng(9);
    for (uint32_t i = 0; i < 3 * Recording::kCheckpointEvery + 17; ++i) {
        fault::detail::WriteBackEvent &e = rec.events.emplace_back();
        e.pool_id = ids[rng.below(2)];
        e.line = 100 + static_cast<uint32_t>(rng.below(6));
        e.step = i / 40;
        for (uint8_t &b : e.bytes)
            b = static_cast<uint8_t>(rng.next());
    }
    Recording plain = rec; // no checkpoints: every prefix from event 0
    fault::detail::addCheckpoints(rec);
    ASSERT_EQ(rec.checkpoints.size(), 3u);
    for (uint64_t k = 0; k <= rec.events.size() + 1; ++k) {
        for (const Recording *source : {&rec, &plain}) {
            std::unique_ptr<TrialRun> run = twoPools();
            std::unique_ptr<TrialRun> ref = twoPools();
            fault::detail::crashRun(*run, o, k, nullptr, source);
            persistWhole(ref->rt, *source, 0, k);
            EXPECT_TRUE(durableImages(run->rt) == durableImages(ref->rt))
                << "k=" << k << (source == &rec ? "" : " (no checkpoints)");
        }
    }

    // A stream naming a pool the setup did not create fails loudly,
    // naming the event, whether it is replayed from a checkpoint or
    // from the tail.
    for (uint64_t bad : {uint64_t(10), uint64_t(200)}) {
        Recording wrong = rec;
        wrong.events[bad].pool_id = 99;
        fault::detail::addCheckpoints(wrong);
        std::unique_ptr<TrialRun> run = twoPools();
        try {
            fault::detail::crashRun(*run, o, wrong.events.size(), nullptr,
                                    &wrong);
            ADD_FAILURE() << "a missing pool must throw";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("contract violated"), std::string::npos);
            EXPECT_NE(what.find("event " + std::to_string(bad) + " "),
                      std::string::npos)
                << what;
        }
    }
}

} // namespace
} // namespace poat
