/**
 * @file
 * Deterministic crash-point exploration.
 *
 * The explorer answers "does recovery work from EVERY possible crash
 * point of this workload?" by construction instead of by luck:
 *
 *  1. Recording pass: run the workload and record its durability
 *     events (64-byte line write-backs, with the bytes each persists
 *     and the step it fired in) — the complete set of instants at which
 *     a power failure could leave a distinct durable image. The pass
 *     runs twice and the two streams must be identical (the event
 *     contract, fault/trial.h), so a nondeterministic workload fails
 *     fast instead of misplacing crash points.
 *  2. Exploration: for each chosen event index k, set the workload up
 *     in a fresh runtime and give it the durable image of recorded
 *     events [0, k) — the image a CrashAtEvent(k) run would freeze
 *     (freeze semantics, see injector.h) without re-running the
 *     workload. The recording's checkpoint every 64 events names each
 *     line's last writer so far, so the trial persists that checkpoint
 *     plus a tail of at most 63 events, not all k (fault/trial.h).
 *     Then simulate the power failure, recover, and check every
 *     invariant:
 *       - atomicity: the recovered state equals the volatile model
 *         after exactly s or s+1 completed steps, where s is the step
 *         the crash point landed in (per-workload verifiers, see
 *         workloads/crash_support.h);
 *       - undo-log legality: every log is structurally valid and idle
 *         after recovery (UndoLog::recover validates on entry);
 *       - allocator integrity: heap metadata validates, and no block
 *         is allocated yet unreachable (leak) for workloads that can
 *         enumerate reachability;
 *       - idempotence: recovering a second time changes nothing.
 *  3. In-recovery crashes (recursive, budgeted by `depth`): every
 *     durability event of a recovery is itself a crash point. A stack
 *     [j1, .., jd] crashes the workload at k, the first recovery at j1,
 *     the recovery of THAT crash at j2, and so on, then recovers fully
 *     and re-checks all invariants. depth = 0 disables in-recovery
 *     crashes; the historic one-level behaviour is depth = 1.
 *  4. Reorder states (opt-in, see fault/reorder.h): the recording
 *     groups the event stream into drain batches; each batch gets
 *     CrashWithDrain-image trials persisting proper subsets of the batch
 *     (exhaustive up to `drain_bound`, seeded-sampled beyond) plus
 *     torn-line states that persist only a prefix/suffix of one line's
 *     8-byte words. Under --strict the workload runs with the Strict
 *     durability policy so fences produce multi-line batches.
 *
 * Small runs explore exhaustively; large runs sample crash points with
 * a seeded generator. Every failure carries a self-contained reproducer
 * string
 * "workload:steps:seed:k[:j | :dJ1,J2,..][:rMASKS][:S][:tSEED]
 * [:nTHREADS][:mFAULT][:eNUM/DEN]" that replays the exact trial within
 * one build (hash-container iteration makes event order build-local, so
 * a reproducer is not portable across compilers or standard libraries).
 * The optional tokens carry the in-recovery crash stack (":j" is the
 * legacy one-level spelling of ":dJ"), the drain-subset word masks (hex,
 * two digits per batch event), the Strict policy flag, the scheduler
 * seed and engine workers, the media-fault index (see fault/media.h),
 * and the eviction schedule, so no out-of-band options are needed to
 * replay a sampled run. A replayed trial re-executes the workload under
 * the crash hook instead of reading a recording: it is the reference
 * the recorded trials are checked against.
 */
#ifndef POAT_FAULT_EXPLORE_H
#define POAT_FAULT_EXPLORE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace poat {
namespace fault {

/** What to explore and how hard. */
struct ExploreOptions
{
    /** Workload abbreviation (see workloads::crashWorkloadNames()). */
    std::string workload = "B+T";

    /** Steps (transactions) the workload runs. */
    uint64_t steps = 50;

    /** Workload seed; also seeds crash-point sampling. */
    uint64_t seed = 1;

    /**
     * Number of crash points to try; 0 explores every event index
     * exhaustively. Sampled points are drawn without replacement by a
     * generator seeded from `seed`.
     */
    uint64_t sample = 0;

    /** Worker threads for the trial fan-out; 0 = hardware concurrency. */
    unsigned jobs = 0;

    /** Also crash at every durability event during recovery. */
    bool in_recovery = true;

    /**
     * Cap on in-recovery crash points per outer crash point; 0 = all.
     * Sampled (seeded) when the cap is smaller than the event count.
     */
    uint64_t inner_cap = 0;

    /**
     * How many recovery levels may themselves crash (ignored when
     * in_recovery is false). 1 = the historic single level; 2 crashes
     * the recovery of the crashed recovery too. Each level multiplies
     * trials by its (inner_cap-capped) event count.
     */
    uint64_t depth = 2;

    /**
     * Also explore drain-subset and torn-line reorder states (see
     * fault/reorder.h). Reorder trials do not recurse into recovery —
     * their crash-state space is already a multiplier per batch.
     */
    bool reorder = false;

    /**
     * Exhaustive subset enumeration for batches of at most this many
     * events (2^n - 2 proper subsets); larger batches draw
     * `drain_sample` distinct subsets from a seeded generator.
     */
    uint64_t drain_bound = 6;
    uint64_t drain_sample = 32;

    /**
     * Run the workload under the Strict durability policy (CLWBs stage,
     * fences retire). This is what makes fence-drain batches bigger
     * than one line, so reorder exploration has real subsets to visit.
     */
    bool strict = false;

    /**
     * Run a random line eviction pass (cache pressure) over all pools
     * after every step, with the given per-line probability num/den.
     * num = 0 disables eviction.
     */
    uint64_t evict_num = 0;
    uint64_t evict_den = 8;

    /**
     * Engine workers for the concurrent workloads (LHT, MTPCC), whose
     * steps are rounds of one transaction per worker; 0 = the drivers'
     * default (2). Sequential workloads ignore it. Distinct from
     * `jobs`, which parallelizes trials on the host. More than
     * PoolHeader::kMaxLogSlots is a std::invalid_argument.
     */
    uint32_t threads = 0;

    /**
     * Deterministic-scheduler interleaving seed for the concurrent
     * workloads (the ":tSEED" reproducer token). Different values
     * explore different interleavings of the same transactions.
     */
    uint64_t sched_seed = 0;
};

/**
 * Set @p opts' eviction schedule from "NUM/DEN" (the --evict flag and
 * the ":eNUM/DEN" reproducer token): strict decimals with
 * 0 <= NUM <= DEN and DEN > 0.
 * @throws std::invalid_argument on anything else.
 */
void parseEvictRatio(const std::string &text, ExploreOptions &opts);

/** One invariant violation, with enough context to replay it. */
struct Failure
{
    std::string workload;
    uint64_t steps = 0;
    uint64_t seed = 0;
    uint64_t k = 0; ///< outer crash point (event index)

    /**
     * In-recovery crash stack: stack[l] crashes recovery level l + 1 at
     * that event index. Empty for plain outer-crash trials. A
     * single-element stack round-trips through the legacy ":j" token;
     * deeper stacks use ":dJ1,J2,...".
     */
    std::vector<uint64_t> stack;

    /**
     * Drain-subset word masks (":rMASKS" token): lowercase hex, two
     * digits per batch event starting at k. Empty for prefix-freeze
     * trials. Mutually exclusive with a non-empty stack (reorder trials
     * do not recurse into recovery).
     */
    std::string drain;

    /** Producing run used the Strict durability policy (":S" token). */
    bool strict = false;

    /**
     * Media-fault spec ("17" or "17+42" for a double fault), empty for
     * pure crash trials. See fault/media.h for the index space.
     */
    std::string media;

    /**
     * Eviction schedule of the producing run; zero num means none. Part
     * of the reproducer (":eNUM/DEN" token) so sampled-eviction
     * failures replay without out-of-band options.
     */
    uint64_t evict_num = 0;
    uint64_t evict_den = 0;

    /**
     * Concurrency knobs of the producing run (":tSEED" and ":nTHREADS"
     * tokens, emitted for the concurrent workloads only so sequential
     * reproducers keep their historical shape).
     */
    uint64_t sched_seed = 0;
    uint32_t threads = 0;

    std::string why;

    /**
     * Concurrency diagnostics captured from the driver when the trial
     * failed (CrashDriver::diagnostics(): per-slot commit/abort and
     * lock counters); empty for sequential workloads. Reporting-only —
     * not part of the reproducer string.
     */
    std::string diag;

    /**
     * "workload:steps:seed:k[:j | :dJ1,J2,..][:rMASKS][:S][:tSEED]
     * [:nTHREADS][:mFAULT][:eNUM/DEN]" — feed to crash_explore
     * --repro. Self-contained: every input the trial consumed
     * (including the recovery-crash stack, the drain-subset masks, the
     * durability policy, the eviction RNG schedule, the scheduler
     * interleaving seed, and the media-fault index) is encoded in the
     * string.
     */
    std::string repro() const;
};

/** Outcome of an exploration. */
struct ExploreReport
{
    uint64_t total_events = 0;    ///< durability events of the recording
    uint64_t clwb_events = 0;     ///< ... caused by CLWB
    uint64_t fence_events = 0;    ///< ... caused by fences (Strict)
    uint64_t evict_events = 0;    ///< ... caused by forced eviction
    uint64_t trials = 0;          ///< outer crash trials run
    uint64_t recovery_trials = 0; ///< in-recovery crash trials run
    uint64_t crashes_injected = 0;
    uint64_t undo_entries_rolled_back = 0;
    uint64_t frees_redone = 0;
    uint64_t blocks_leaked = 0;
    uint64_t reorder_states = 0; ///< drain-subset + torn trials run
    uint64_t torn_states = 0;    ///< ... of which tore a line mid-write
    uint64_t max_depth = 0;      ///< deepest recovery-crash stack reached
    std::vector<Failure> failures;

    bool ok() const { return failures.empty(); }

    /** Publish the aggregate counters under "fault." in @p stats. */
    void publish(StatsRegistry &stats) const;
};

/**
 * Record then explore per the options; deterministic for fixed
 * options within one build. Workload or driver errors (as opposed to
 * invariant violations) propagate as exceptions.
 */
ExploreReport explore(const ExploreOptions &opts);

/**
 * Re-run the single trial a Failure::repro() string describes. Fields
 * encoded in the string (workload, steps, seed, crash points, media
 * fault, eviction schedule) override @p base; anything not encoded is
 * taken from @p base. Media reproducers (":mFAULT" token) replay
 * through the media explorer's trial path.
 * @return the failure if it still reproduces, or an empty vector.
 * @throws std::invalid_argument on a malformed reproducer string or
 *         an out-of-range worker count.
 */
std::vector<Failure> replayRepro(const std::string &repro,
                                 const ExploreOptions &base = {});

} // namespace fault
} // namespace poat

#endif // POAT_FAULT_EXPLORE_H
