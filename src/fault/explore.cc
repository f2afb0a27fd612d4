#include "fault/explore.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "common/cli.h"
#include "driver/sweep.h"
#include "fault/media.h"
#include "fault/reorder.h"
#include "fault/trial.h"

namespace poat {
namespace fault {

using detail::choosePoints;
using detail::CrashPoint;
using detail::Recording;
using detail::TrialRun;
using detail::TrialStats;
using detail::WriteBackEvent;

namespace {

/**
 * The recording hook: appends every durability event with the line
 * bytes its write-back persists and the current phase, and forwards to
 * DrainProbe's batch grouping. Non-interfering: every write-back
 * proceeds.
 */
class StreamRecorder final : public DurabilityHook
{
  public:
    explicit StreamRecorder(std::vector<WriteBackEvent> &out) : out_(out) {}

    /** Attribute later events to step @p step (or its eviction pass). */
    void
    enter(uint64_t step, bool evict_pass)
    {
        step_ = step;
        evictPass_ = evict_pass;
    }

    uint8_t
    onWriteBack(Pool &pool, uint32_t line, WriteBackCause cause) override
    {
        WriteBackEvent &e = out_.emplace_back();
        e.pool_id = pool.id();
        e.line = line;
        e.step = step_;
        e.evict_pass = evictPass_;
        e.cause = cause;
        const uint64_t base = static_cast<uint64_t>(line) * kLineSize;
        pool.readRaw(static_cast<uint32_t>(base), e.bytes.data(),
                     std::min<uint64_t>(kLineSize, pool.size() - base));
        return probe_.onWriteBack(pool, line, cause);
    }

    void
    onFenceDrainBegin(Pool &pool,
                      const std::vector<uint32_t> &pending) override
    {
        probe_.onFenceDrainBegin(pool, pending);
    }

    const std::vector<DrainBatch> &batches() const
    {
        return probe_.batches();
    }

  private:
    std::vector<WriteBackEvent> &out_;
    DrainProbe probe_;
    uint64_t step_ = 0;
    bool evictPass_ = false;
};

/**
 * Step one from the recording: persist the events the crash point lets
 * through (see crashRun) and attribute the first event not persisted
 * whole to its phase.
 */
CrashPoint
crashFromStream(PmemRuntime &rt, const Recording &rec, uint64_t steps,
                uint64_t k, const std::vector<uint8_t> *drain)
{
    const uint64_t total = rec.events.size();
    const uint64_t prefix = std::min(k, total);
    auto persist = [&](uint64_t i, uint8_t mask) {
        const WriteBackEvent &e = rec.events[i];
        OpenPool *op = rt.registry().find(e.pool_id);
        if (op == nullptr) {
            throw std::runtime_error(
                "durability-event contract violated: recorded event " +
                std::to_string(i) + " writes back pool " +
                std::to_string(e.pool_id) +
                ", which the workload's setup did not create");
        }
        op->pool.persistLineWords(e.line, e.bytes.data(), mask);
    };
    // The newest checkpoint at or below the prefix, then its tail.
    const uint64_t j = std::min<uint64_t>(
        prefix / Recording::kCheckpointEvery, rec.checkpoints.size());
    if (j > 0) {
        for (uint32_t i : rec.checkpoints[j - 1])
            persist(i, DurabilityHook::kFullLineMask);
    }
    for (uint64_t i = j * Recording::kCheckpointEvery; i < prefix; ++i)
        persist(i, DurabilityHook::kFullLineMask);
    const uint64_t n_masks = drain != nullptr ? drain->size() : 0;
    uint64_t broken = k + n_masks; // first event not persisted whole
    for (uint64_t r = 0; r < n_masks && k + r < total; ++r) {
        const uint8_t mask = (*drain)[r];
        if (mask != DurabilityHook::kFullLineMask)
            broken = std::min(broken, k + r);
        if (mask != 0)
            persist(k + r, mask);
    }

    CrashPoint cp;
    cp.fired = broken < total;
    cp.window = {steps, steps};
    if (cp.fired) {
        const WriteBackEvent &e = rec.events[broken];
        cp.window = e.evict_pass ? detail::StepWindow{e.step + 1, e.step + 1}
                                 : detail::StepWindow{e.step, e.step + 1};
    }
    cp.events = total;
    cp.diag = rec.diag;
    rt.registry().crashAll();
    return cp;
}

/**
 * Step one by re-execution: run every step under the crash hook,
 * attributing the first suppressed or torn write-back to the step (or
 * eviction pass) it fired in.
 */
CrashPoint
crashByReexecution(TrialRun &run, const ExploreOptions &opts, uint64_t k,
                   const std::vector<uint8_t> *drain)
{
    CrashAtEvent hook(k, drain != nullptr ? *drain
                                          : std::vector<uint8_t>{});
    run.rt.registry().setDurabilityHook(&hook);
    CrashPoint cp;
    cp.window = {opts.steps, opts.steps};
    Rng evict_rng(detail::evictSeed(opts));
    bool attributed = false;
    for (uint64_t i = 0; i < opts.steps; ++i) {
        run.driver->step(run.rt, i);
        if (!attributed && hook.fired()) {
            cp.window = {i, i + 1};
            attributed = true;
        }
        detail::maybeEvict(run.rt, evict_rng, opts);
        if (!attributed && hook.fired()) {
            cp.window = {i + 1, i + 1};
            attributed = true;
        }
    }
    run.rt.registry().setDurabilityHook(nullptr);
    cp.fired = hook.fired();
    cp.events = hook.observed();
    cp.diag = run.driver->diagnostics();
    run.rt.registry().crashAll();
    return cp;
}

/**
 * Payload offsets of the blocks @p pool's crashed working image holds
 * allocated, by a read-only walk of the heap's header chain: the block
 * set recovery's allocator rescan will find. The allocator's free list
 * cannot answer this — crashAll() does not rescan it, so it describes
 * whichever run built the image — and a rescan here would run its
 * self-healing write-backs and shift the in-recovery crash indices.
 * The walk stops at the first header it cannot trust; recovery
 * diagnoses such an image itself.
 */
std::vector<uint32_t>
allocatedInImage(const Pool &pool)
{
    const PoolHeader &ph = pool.header();
    const uint32_t heap_end = ph.heap_off + ph.heap_size;
    std::vector<uint32_t> out;
    uint32_t off = ph.heap_off;
    while (off + sizeof(BlockHeader) <= heap_end) {
        const BlockHeader h = pool.readAs<BlockHeader>(off);
        if (!h.crcValid() || h.size < PoolAllocator::kMinBlock ||
            h.size > heap_end - off)
            break;
        if (h.allocated())
            out.push_back(off + static_cast<uint32_t>(sizeof(BlockHeader)));
        off += h.size;
    }
    return out;
}

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
 * Step two of a crash trial, whichever source built the crashed image:
 * scrub, inspect the logs, crash the recovery stack, recover, check
 * every invariant, and recover again for idempotence (see runTrial).
 */
uint64_t
checkCrashed(const ExploreOptions &opts, uint64_t k,
             const std::vector<uint64_t> &stack,
             const std::vector<uint8_t> *drain, TrialRun &run,
             const CrashPoint &cp, TrialStats &ts)
{
    PmemRuntime &rt = run.rt;
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
    if (cp.fired)
        ++ts.crashes_injected;

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
        f.diag = cp.diag;
        ts.failures.push_back(std::move(f));
    };

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
                    const std::vector<uint32_t> live =
                        allocatedInImage(op.pool);
                    for (const UndoLog::Record &r : log.records()) {
                        if (r.type == LogEntryHeader::kFree &&
                            std::binary_search(live.begin(), live.end(),
                                               r.target_off))
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
    if (!detail::checkRecovered(rt, *run.driver, cp.window,
                                &ts.blocks_leaked, &why)) {
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
    if (!detail::checkRecovered(rt, *run.driver, cp.window, &dummy_leaked,
                                &why))
        fail("after second recovery: " + why);
    return recovery_counter.total();
}

/** One recording pass (see detail::Recording). */
Recording
recordOnce(const ExploreOptions &opts)
{
    TrialRun run(opts);
    Recording rec;
    StreamRecorder hook(rec.events);
    run.rt.registry().setDurabilityHook(&hook);
    Rng evict_rng(detail::evictSeed(opts));
    for (uint64_t i = 0; i < opts.steps; ++i) {
        hook.enter(i, false);
        run.driver->step(run.rt, i);
        hook.enter(i, true);
        detail::maybeEvict(run.rt, evict_rng, opts);
    }
    run.rt.registry().setDurabilityHook(nullptr);
    rec.batches = hook.batches();
    rec.diag = run.driver->diagnostics();
    return rec;
}

/**
 * Depth-first expansion of the in-recovery crash stacks below @p stack,
 * whose final recovery emitted @p events durability events. Level d + 1
 * is explored only while d < depth.
 */
void
expandRecoveryCrashes(const ExploreOptions &opts, uint64_t k,
                      const std::vector<uint64_t> &stack, uint64_t events,
                      const Recording &rec, TrialStats &ts)
{
    if (stack.size() >= opts.depth || events == 0)
        return;
    const std::vector<uint64_t> js =
        choosePoints(events, opts.inner_cap, innerSeed(opts, k, stack));
    for (uint64_t j : js) {
        std::vector<uint64_t> next = stack;
        next.push_back(j);
        const uint64_t m =
            detail::runTrial(opts, k, next, nullptr, &rec, ts);
        expandRecoveryCrashes(opts, k, next, m, rec, ts);
    }
}

} // namespace

namespace detail {

void
checkEventContract(const Recording &first, const Recording &second)
{
    if (first.events == second.events)
        return;
    const auto diff =
        std::mismatch(first.events.begin(), first.events.end(),
                      second.events.begin(), second.events.end());
    throw std::runtime_error(
        "durability-event contract violated: one recording counted " +
        std::to_string(first.events.size()) + " events, the other " +
        std::to_string(second.events.size()) +
        ", first differing at event " +
        std::to_string(diff.first - first.events.begin()) +
        " — the workload is nondeterministic under the hook");
}

void
addCheckpoints(Recording &rec)
{
    rec.checkpoints.clear();
    std::map<uint64_t, uint32_t> last; // (pool << 32 | line) -> event
    for (uint64_t i = 0; i < rec.events.size(); ++i) {
        const WriteBackEvent &e = rec.events[i];
        last[uint64_t{e.pool_id} << 32 | e.line] =
            static_cast<uint32_t>(i);
        if ((i + 1) % Recording::kCheckpointEvery != 0)
            continue;
        std::vector<uint32_t> &cp = rec.checkpoints.emplace_back();
        cp.reserve(last.size());
        for (const auto &[key, writer] : last)
            cp.push_back(writer);
    }
}

Recording
recordStream(const ExploreOptions &opts)
{
    Recording recs[2];
    driver::runTasks(2, opts.jobs,
                     [&](size_t i) { recs[i] = recordOnce(opts); });
    checkEventContract(recs[0], recs[1]);
    addCheckpoints(recs[0]);
    return std::move(recs[0]);
}

CrashPoint
crashRun(TrialRun &run, const ExploreOptions &opts, uint64_t k,
         const std::vector<uint8_t> *drain, const Recording *rec)
{
    return rec != nullptr
        ? crashFromStream(run.rt, *rec, opts.steps, k, drain)
        : crashByReexecution(run, opts, k, drain);
}

uint64_t
runTrial(const ExploreOptions &opts, uint64_t k,
         const std::vector<uint64_t> &stack,
         const std::vector<uint8_t> *drain, const Recording *rec,
         TrialStats &ts)
{
    TrialRun run(opts);
    const CrashPoint cp = crashRun(run, opts, k, drain, rec);
    return checkCrashed(opts, k, stack, drain, run, cp, ts);
}

} // namespace detail

std::string
Failure::repro() const
{
    std::string s = workload + ":" + std::to_string(steps) + ":" +
        std::to_string(seed) + ":" + std::to_string(k);
    if (stack.size() == 1) {
        s += ":" + std::to_string(stack[0]); // legacy one-level spelling
    } else if (stack.size() > 1) {
        s += ":d";
        for (size_t i = 0; i < stack.size(); ++i) {
            if (i != 0)
                s += ',';
            s += std::to_string(stack[i]);
        }
    }
    if (!drain.empty())
        s += ":r" + drain;
    if (strict)
        s += ":S";
    if (workloads::isConcurrentWorkload(workload)) {
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

    // ---- recording pass: the durability-event stream, twice ----------
    const Recording rec = detail::recordStream(opts);
    report.total_events = rec.events.size();
    report.clwb_events = rec.count(WriteBackCause::Clwb);
    report.fence_events = rec.count(WriteBackCause::Fence);
    report.evict_events = rec.count(WriteBackCause::Evict);

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
        const uint64_t recovery_events =
            detail::runTrial(trial_opts, k, {}, nullptr, &rec, ts);
        // In-recovery crash stacks below this k, up to `depth` levels.
        expandRecoveryCrashes(trial_opts, k, {}, recovery_events, rec, ts);
    });

    // ---- reorder fan-out (drain subsets and torn lines) -------------
    std::vector<TrialStats> rslots;
    if (opts.reorder) {
        // When crash points are sampled, sample batches the same way.
        const std::vector<DrainBatch> &batches = rec.batches;
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
            detail::runTrial(trial_opts, plans[idx].start, {},
                             &plans[idx].masks, &rec, rslots[idx]);
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

void
parseEvictRatio(const std::string &text, ExploreOptions &opts)
{
    const std::vector<std::string> parts = cli::split(text, '/');
    const auto num = cli::parseUnsigned(parts[0]);
    const auto den =
        parts.size() == 2 ? cli::parseUnsigned(parts[1]) : std::nullopt;
    if (!num || !den || *den == 0 || *num > *den)
        throw std::invalid_argument(
            "bad eviction ratio '" + text +
            "' (expected NUM/DEN with 0 <= NUM <= DEN, DEN > 0)");
    opts.evict_num = *num;
    opts.evict_den = *den;
}

std::vector<Failure>
replayRepro(const std::string &repro, const ExploreOptions &base)
{
    const std::vector<std::string> tok = cli::split(repro, ':');
    auto bad = [&]() -> std::invalid_argument {
        return std::invalid_argument(
            "bad reproducer '" + repro +
            "' (expected workload:steps:seed:k[:j | :dJ1,J2,..]"
            "[:rMASKS][:S][:tSEED][:nTHREADS][:mFAULT][:eNUM/DEN])");
    };
    auto number = [&](const std::string &text,
                      uint64_t max = UINT64_MAX) {
        const auto v = cli::parseUnsigned(text, max);
        if (!v)
            throw bad();
        return *v;
    };
    if (tok.size() < 4)
        throw bad();

    ExploreOptions opts = base;
    uint64_t k;
    std::vector<uint64_t> stack;
    std::vector<uint8_t> drain;
    std::string media;
    try {
        opts.workload = tok[0];
        opts.steps = number(tok[1]);
        opts.seed = number(tok[2]);
        k = number(tok[3]);

        // Optional tokens, in order: a bare numeric j or a ":dJ1,J2,.."
        // stack, then the prefixed drain-mask, Strict, scheduler-seed,
        // thread-count, media, and eviction tokens. A bare numeric
        // anywhere after the stack position is malformed.
        size_t pos = 4;
        auto tagged = [&](char c) {
            return pos < tok.size() && !tok[pos].empty() &&
                tok[pos][0] == c;
        };
        auto take = [&] { return tok[pos++].substr(1); };
        if (pos < tok.size() && !tok[pos].empty() && tok[pos][0] >= '0' &&
            tok[pos][0] <= '9')
            stack.push_back(number(tok[pos++]));
        else if (tagged('d'))
            stack = cli::toNumberList("d", take());
        if (tagged('r'))
            drain = decodeDrainMasks(take());
        if (pos < tok.size() && tok[pos] == "S") {
            opts.strict = true;
            ++pos;
        }
        if (tagged('t'))
            opts.sched_seed = number(take());
        if (tagged('n'))
            opts.threads = static_cast<uint32_t>(number(take(), UINT32_MAX));
        if (tagged('m')) {
            media = take();
            if (media.empty())
                throw bad();
        }
        if (tagged('e'))
            parseEvictRatio(take(), opts);
        if (pos != tok.size())
            throw bad();
    } catch (const std::invalid_argument &) {
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

    // Re-execution: the reference path, independent of any recording.
    TrialStats ts;
    detail::runTrial(opts, k, stack, drain.empty() ? nullptr : &drain,
                     nullptr, ts);
    return ts.failures;
}

} // namespace fault
} // namespace poat
