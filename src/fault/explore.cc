#include "fault/explore.h"

#include <algorithm>
#include <stdexcept>

#include "driver/sweep.h"
#include "fault/media.h"
#include "fault/reorder.h"
#include "fault/trial.h"

namespace poat {
namespace fault {

using detail::checkEventContract;
using detail::checkRecovered;
using detail::choosePoints;
using detail::kNoExpectedEvents;
using detail::runSteps;
using detail::StepWindow;

namespace {

/** Counters one trial contributes; aggregated after the fan-out. */
struct TrialStats
{
    uint64_t crashes_injected = 0;
    uint64_t undo_entries_rolled_back = 0;
    uint64_t frees_redone = 0;
    uint64_t blocks_leaked = 0;
    uint64_t recovery_events = 0; ///< M_k (outer trials only)
    uint64_t trials = 0;
    uint64_t recovery_trials = 0;
    uint64_t reorder_states = 0;
    uint64_t torn_states = 0;
    uint64_t max_depth = 0;
    std::vector<Failure> failures;
};

/**
 * In-recovery crash-point sampling seed for the level after @p stack.
 * The empty stack reproduces the historic one-level constant so old
 * reproducers and determinism tests keep their exact trial sets; deeper
 * levels fold the stack values in.
 */
uint64_t
innerSeed(const ExploreOptions &opts, uint64_t k,
          const std::vector<uint64_t> &stack)
{
    uint64_t s = opts.seed ^ (k * 0x9e3779b97f4a7c15ull + 1);
    for (uint64_t j : stack)
        s = (s ^ j) * 0xd1b54a32d192ed03ull + 1;
    return s;
}

/**
 * One complete crash trial: run the workload and freeze the durable
 * image at event k — either the plain prefix freeze or, when @p drain
 * is non-null, a CrashWithDrain over the batch starting at k (subset /
 * torn-line reorder state). Then crash, recover, crash the recovery
 * stack level by level per @p stack, recover fully, and check every
 * invariant — including that recovering a second time changes nothing.
 *
 * @param expected_events Profile-pass event total; every trial must
 *        observe exactly this many durability events (see
 *        checkEventContract) or the whole exploration aborts. Pass
 *        kNoExpectedEvents on the replay path, which has no profile.
 * @return the number of durability events the final (fully completing)
 *         recovery emitted — the crash-point space one level below
 *         @p stack.
 */
uint64_t
runTrial(const ExploreOptions &opts, uint64_t k,
         const std::vector<uint64_t> &stack,
         const std::vector<uint8_t> *drain, uint64_t expected_events,
         TrialStats &ts)
{
    PmemRuntime rt(detail::trialRuntimeOptions(opts));
    if (opts.strict)
        rt.registry().setDurabilityPolicy(DurabilityPolicy::Strict);
    std::unique_ptr<workloads::CrashDriver> driver =
        workloads::makeCrashDriver(opts.workload, opts.steps, opts.seed,
                                   opts.threads, opts.sched_seed);
    driver->setup(rt);

    if (drain != nullptr) {
        ++ts.reorder_states;
        const bool torn =
            std::any_of(drain->begin(), drain->end(), [](uint8_t m) {
                return m != 0 && m != DurabilityHook::kFullLineMask;
            });
        if (torn)
            ++ts.torn_states;
    } else if (stack.empty()) {
        ++ts.trials;
    } else {
        ++ts.recovery_trials;
    }
    ts.max_depth = std::max<uint64_t>(ts.max_depth, stack.size());

    auto fail = [&](const std::string &why) {
        Failure f;
        f.workload = opts.workload;
        f.steps = opts.steps;
        f.seed = opts.seed;
        f.k = k;
        f.stack = stack;
        if (drain != nullptr)
            f.drain = encodeDrainMasks(*drain);
        f.strict = opts.strict;
        f.evict_num = opts.evict_num;
        f.evict_den = opts.evict_den;
        f.sched_seed = opts.sched_seed;
        f.threads = opts.threads;
        f.why = why;
        f.diag = driver->diagnostics();
        ts.failures.push_back(std::move(f));
    };

    CrashAtEvent prefix_hook(k);
    CrashWithDrain drain_hook(k, drain != nullptr
                                     ? *drain
                                     : std::vector<uint8_t>{});
    CrashHook &crash_hook =
        drain != nullptr ? static_cast<CrashHook &>(drain_hook)
                         : static_cast<CrashHook &>(prefix_hook);
    rt.registry().setDurabilityHook(&crash_hook);
    const StepWindow w = runSteps(rt, *driver, opts, crash_hook);
    rt.registry().setDurabilityHook(nullptr);
    checkEventContract(crash_hook.observed(), expected_events);
    if (crash_hook.fired())
        ++ts.crashes_injected;

    rt.registry().crashAll();

    // Recovery's own first step is the scrub pass (see recoverAll), so
    // the legality walk below must inspect the image recovery will
    // actually see: a torn-line drain state legitimately leaves a
    // checksummed header line invalid, and the mirror-copy repair is
    // exactly the mechanism that makes such a state recoverable. A
    // crash state the scrub cannot make structurally legal IS the
    // invariant violation.
    try {
        for (uint32_t id : rt.registry().openIds())
            scrubPool(rt.registry().get(id).pool);
    } catch (const std::runtime_error &e) {
        fail(std::string("scrub of crashed image failed: ") + e.what());
        return 0;
    }

    // Pre-recovery log inspection: the work recovery is about to do.
    // An illegal on-media log here is itself an invariant violation —
    // the commit protocol must never publish one at any reachable
    // crash state, torn lines included.
    try {
        for (uint32_t id : rt.registry().openIds()) {
            OpenPool &op = rt.registry().get(id);
            // Every slot: a concurrent crash can leave several workers'
            // logs in flight, and each must be on-media legal.
            op.forEachLog([&op, &ts](UndoLog &log) {
                log.validateLog();
                const uint32_t st = log.state();
                if (st == LogHeader::kActive) {
                    ts.undo_entries_rolled_back += log.records().size();
                } else if (st == LogHeader::kCommitting) {
                    for (const UndoLog::Record &r : log.records()) {
                        if (r.type == LogEntryHeader::kFree &&
                            op.alloc.isAllocated(r.target_off))
                            ++ts.frees_redone;
                    }
                }
            });
        }
    } catch (const std::runtime_error &e) {
        fail(std::string("crashed image has an illegal undo log: ") +
             e.what());
        return 0;
    }

    // Power fails again at stack[l] during recovery level l + 1: freeze
    // that recovery's durable progress and recover from *that* image.
    for (size_t l = 0; l < stack.size(); ++l) {
        CrashAtEvent inner_hook(stack[l]);
        rt.registry().setDurabilityHook(&inner_hook);
        try {
            rt.registry().recoverAll();
        } catch (const std::runtime_error &e) {
            rt.registry().setDurabilityHook(nullptr);
            fail("recovery (level " + std::to_string(l + 1) +
                 ") threw: " + e.what());
            return 0;
        }
        rt.registry().setDurabilityHook(nullptr);
        if (inner_hook.fired())
            ++ts.crashes_injected;
        rt.registry().crashAll();
    }

    // The final recovery completes; its event count is the crash-point
    // space for a stack one level deeper.
    EventCounter recovery_counter;
    rt.registry().setDurabilityHook(&recovery_counter);
    try {
        rt.registry().recoverAll();
    } catch (const std::runtime_error &e) {
        rt.registry().setDurabilityHook(nullptr);
        fail(std::string("final recovery threw: ") + e.what());
        return 0;
    }
    rt.registry().setDurabilityHook(nullptr);

    std::string why;
    if (!checkRecovered(rt, *driver, w, &ts.blocks_leaked, &why)) {
        fail(why);
        return recovery_counter.total();
    }

    // Idempotence: a second recovery pass must find nothing to do and
    // leave every invariant intact.
    try {
        rt.registry().recoverAll();
    } catch (const std::runtime_error &e) {
        fail(std::string("second recovery threw: ") + e.what());
        return recovery_counter.total();
    }
    uint64_t dummy_leaked = 0;
    if (!checkRecovered(rt, *driver, w, &dummy_leaked, &why))
        fail("after second recovery: " + why);
    return recovery_counter.total();
}

/**
 * Depth-first expansion of the in-recovery crash stacks below @p stack,
 * whose final recovery emitted @p events durability events. Level d + 1
 * is explored only while d < depth.
 */
void
expandRecoveryCrashes(const ExploreOptions &opts, uint64_t k,
                      const std::vector<uint64_t> &stack, uint64_t events,
                      uint64_t expected_events, TrialStats &ts)
{
    if (stack.size() >= opts.depth || events == 0)
        return;
    const std::vector<uint64_t> js =
        choosePoints(events, opts.inner_cap, innerSeed(opts, k, stack));
    for (uint64_t j : js) {
        std::vector<uint64_t> next = stack;
        next.push_back(j);
        const uint64_t m =
            runTrial(opts, k, next, nullptr, expected_events, ts);
        expandRecoveryCrashes(opts, k, next, m, expected_events, ts);
    }
}

} // namespace

std::string
Failure::repro() const
{
    std::string s = workload + ":" + std::to_string(steps) + ":" +
        std::to_string(seed) + ":" + std::to_string(k);
    if (stack.size() == 1) {
        s += ":" + std::to_string(stack[0]); // legacy one-level spelling
    } else if (stack.size() > 1) {
        s += ":d";
        for (size_t i = 0; i < stack.size(); ++i)
            s += (i ? "," : "") + std::to_string(stack[i]);
    }
    if (!drain.empty())
        s += ":r" + drain;
    if (strict)
        s += ":S";
    if (workloads::isConcurrentCrashWorkload(workload)) {
        s += ":t" + std::to_string(sched_seed);
        if (threads != 0)
            s += ":n" + std::to_string(threads);
    }
    if (!media.empty())
        s += ":m" + media;
    if (evict_num != 0) {
        s += ":e" + std::to_string(evict_num) + "/" +
            std::to_string(evict_den);
    }
    return s;
}

void
ExploreReport::publish(StatsRegistry &stats) const
{
    stats.counter("fault.events") += total_events;
    stats.counter("fault.trials") += trials;
    stats.counter("fault.recovery_trials") += recovery_trials;
    stats.counter("fault.crashes_injected") += crashes_injected;
    stats.counter("fault.undo_entries_rolled_back") +=
        undo_entries_rolled_back;
    stats.counter("fault.frees_redone") += frees_redone;
    stats.counter("fault.blocks_leaked") += blocks_leaked;
    stats.counter("fault.reorder.states") += reorder_states;
    stats.counter("fault.reorder.torn_states") += torn_states;
    stats.counter("fault.reorder.max_depth") += max_depth;
    stats.counter("fault.failures") += failures.size();
}

ExploreReport
explore(const ExploreOptions &opts)
{
    ExploreReport report;

    // ---- profile pass: count the durability events ------------------
    {
        PmemRuntime rt(detail::trialRuntimeOptions(opts));
        if (opts.strict)
            rt.registry().setDurabilityPolicy(DurabilityPolicy::Strict);
        std::unique_ptr<workloads::CrashDriver> driver =
            workloads::makeCrashDriver(opts.workload, opts.steps,
                                       opts.seed, opts.threads,
                                       opts.sched_seed);
        driver->setup(rt);
        EventCounter counter;
        rt.registry().setDurabilityHook(&counter);
        Rng evict_rng(detail::evictSeed(opts));
        for (uint64_t i = 0; i < opts.steps; ++i) {
            driver->step(rt, i);
            detail::maybeEvict(rt, evict_rng, opts);
        }
        rt.registry().setDurabilityHook(nullptr);
        report.total_events = counter.total();
        report.clwb_events = counter.count(WriteBackCause::Clwb);
        report.fence_events = counter.count(WriteBackCause::Fence);
        report.evict_events = counter.count(WriteBackCause::Evict);
    }

    // ---- outer fan-out ----------------------------------------------
    const uint64_t depth = opts.in_recovery ? opts.depth : 0;
    ExploreOptions trial_opts = opts;
    trial_opts.depth = depth;
    const std::vector<uint64_t> ks = choosePoints(
        report.total_events, opts.sample,
        opts.seed + 0x517cc1b727220a95ull);
    std::vector<TrialStats> slots(ks.size());
    driver::runTasks(ks.size(), opts.jobs, [&](size_t idx) {
        TrialStats &ts = slots[idx];
        const uint64_t k = ks[idx];
        const uint64_t recovery_events = runTrial(
            trial_opts, k, {}, nullptr, report.total_events, ts);
        ts.recovery_events = recovery_events;
        // In-recovery crash stacks below this k, up to `depth` levels.
        expandRecoveryCrashes(trial_opts, k, {}, recovery_events,
                              report.total_events, ts);
    });

    // ---- reorder fan-out (drain subsets and torn lines) -------------
    std::vector<TrialStats> rslots;
    if (opts.reorder) {
        // Probe pass: group the identical event stream into batches.
        DrainProbe probe;
        {
            PmemRuntime rt(detail::trialRuntimeOptions(opts));
            if (opts.strict)
                rt.registry().setDurabilityPolicy(
                    DurabilityPolicy::Strict);
            std::unique_ptr<workloads::CrashDriver> driver =
                workloads::makeCrashDriver(opts.workload, opts.steps,
                                           opts.seed, opts.threads,
                                           opts.sched_seed);
            driver->setup(rt);
            rt.registry().setDurabilityHook(&probe);
            Rng evict_rng(detail::evictSeed(opts));
            for (uint64_t i = 0; i < opts.steps; ++i) {
                driver->step(rt, i);
                detail::maybeEvict(rt, evict_rng, opts);
            }
            rt.registry().setDurabilityHook(nullptr);
        }
        checkEventContract(probe.total(), report.total_events);

        // When crash points are sampled, sample batches the same way.
        const std::vector<DrainBatch> &batches = probe.batches();
        const std::vector<uint64_t> bidx = choosePoints(
            batches.size(), opts.sample,
            opts.seed + 0x2545f4914f6cdd1dull);

        struct ReorderTrial
        {
            uint64_t start;
            std::vector<uint8_t> masks;
        };
        std::vector<ReorderTrial> plans;
        for (uint64_t bi : bidx) {
            const DrainBatch &b = batches[bi];
            for (DrainPlan &p : planDrainStates(
                     b, opts.drain_bound, opts.drain_sample,
                     opts.seed ^ (b.start * 0x9e3779b97f4a7c15ull + 2)))
                plans.push_back({p.start, std::move(p.masks)});
        }

        rslots.resize(plans.size());
        driver::runTasks(plans.size(), opts.jobs, [&](size_t idx) {
            // Reorder trials do not recurse into recovery: the subset
            // space is already a per-batch multiplier, and the
            // recovery-crash dimension is covered by the prefix trials.
            runTrial(trial_opts, plans[idx].start, {},
                     &plans[idx].masks, report.total_events,
                     rslots[idx]);
        });
    }

    auto merge = [&report](const TrialStats &ts) {
        report.trials += ts.trials;
        report.recovery_trials += ts.recovery_trials;
        report.crashes_injected += ts.crashes_injected;
        report.undo_entries_rolled_back += ts.undo_entries_rolled_back;
        report.frees_redone += ts.frees_redone;
        report.blocks_leaked += ts.blocks_leaked;
        report.reorder_states += ts.reorder_states;
        report.torn_states += ts.torn_states;
        report.max_depth = std::max(report.max_depth, ts.max_depth);
        report.failures.insert(report.failures.end(),
                               ts.failures.begin(), ts.failures.end());
    };
    for (const TrialStats &ts : slots)
        merge(ts);
    for (const TrialStats &ts : rslots)
        merge(ts);
    return report;
}

std::vector<Failure>
replayRepro(const std::string &repro, const ExploreOptions &base)
{
    std::vector<std::string> tok;
    std::string cur;
    for (char c : repro) {
        if (c == ':') {
            tok.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    tok.push_back(cur);

    auto bad = [&]() -> std::invalid_argument {
        return std::invalid_argument(
            "bad reproducer '" + repro +
            "' (expected workload:steps:seed:k[:j | :dJ1,J2,..]"
            "[:rMASKS][:S][:tSEED][:nTHREADS][:mFAULT][:eNUM/DEN])");
    };
    if (tok.size() < 4)
        throw bad();

    ExploreOptions opts = base;
    opts.workload = tok[0];
    uint64_t k;
    std::vector<uint64_t> stack;
    std::vector<uint8_t> drain;
    std::string media;
    try {
        opts.steps = std::stoull(tok[1]);
        opts.seed = std::stoull(tok[2]);
        k = std::stoull(tok[3]);

        // Optional tokens, in order: a bare numeric j or a ":dJ1,J2,.."
        // stack, then the prefixed drain-mask, Strict, scheduler-seed,
        // thread-count, media, and eviction tokens. A bare numeric
        // anywhere after the stack position is malformed.
        size_t pos = 4;
        if (pos < tok.size() && !tok[pos].empty() &&
            tok[pos][0] >= '0' && tok[pos][0] <= '9') {
            stack.push_back(std::stoull(tok[pos]));
            ++pos;
        } else if (pos < tok.size() && tok[pos].size() > 1 &&
                   tok[pos][0] == 'd') {
            std::string item;
            for (char c : tok[pos].substr(1) + ",") {
                if (c == ',') {
                    if (item.empty())
                        throw bad();
                    stack.push_back(std::stoull(item));
                    item.clear();
                } else {
                    item += c;
                }
            }
            ++pos;
        }
        if (pos < tok.size() && tok[pos].size() > 1 && tok[pos][0] == 'r') {
            drain = decodeDrainMasks(tok[pos].substr(1));
            ++pos;
        }
        if (pos < tok.size() && tok[pos] == "S") {
            opts.strict = true;
            ++pos;
        }
        if (pos < tok.size() && !tok[pos].empty() && tok[pos][0] == 't') {
            const std::string ts = tok[pos].substr(1);
            if (ts.empty())
                throw bad();
            opts.sched_seed = std::stoull(ts);
            ++pos;
        }
        if (pos < tok.size() && !tok[pos].empty() && tok[pos][0] == 'n') {
            const std::string nt = tok[pos].substr(1);
            if (nt.empty())
                throw bad();
            const uint64_t n = std::stoull(nt);
            if (n > UINT32_MAX)
                throw bad();
            opts.threads = static_cast<uint32_t>(n);
            ++pos;
        }
        if (pos < tok.size() && !tok[pos].empty() && tok[pos][0] == 'm') {
            media = tok[pos].substr(1);
            if (media.empty())
                throw bad();
            ++pos;
        }
        if (pos < tok.size() && !tok[pos].empty() && tok[pos][0] == 'e') {
            const std::string ev = tok[pos].substr(1);
            const size_t slash = ev.find('/');
            if (slash == std::string::npos)
                throw bad();
            opts.evict_num = std::stoull(ev.substr(0, slash));
            opts.evict_den = std::stoull(ev.substr(slash + 1));
            if (opts.evict_den == 0)
                throw bad();
            ++pos;
        }
        if (pos != tok.size())
            throw bad();
    } catch (const std::invalid_argument &) {
        throw bad();
    } catch (const std::out_of_range &) {
        throw bad();
    }

    // A drain state is a crash *during* the outer run; recursing into
    // recovery from it is not a state the explorer generates.
    if (!drain.empty() && !stack.empty())
        throw bad();
    if (!media.empty()) {
        // Media trials have no in-recovery crash point and run under
        // the Eager policy only.
        if (!stack.empty() || !drain.empty() || opts.strict)
            throw bad();
        return replayMediaTrial(opts, k, media);
    }

    TrialStats ts;
    runTrial(opts, k, stack, drain.empty() ? nullptr : &drain,
             kNoExpectedEvents, ts);
    return ts.failures;
}

} // namespace fault
} // namespace poat
