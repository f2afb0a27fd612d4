/**
 * @file
 * Run observability from notes: transaction spans, lock contention,
 * blocked-cycle attribution, commit-window occupancy, and critical-path
 * extraction.
 *
 * A ContentionProfiler consumes every note the runtime stack emits
 * (common/note.h) plus the machine's core switches, and turns them into
 * the `tx.*`, `lock.*`, `sched.*`, `commit.batch.*`, `tx.abort.*`, and
 * `cp.*` stats subtrees (docs/OBSERVABILITY.md). The profiler is a pure
 * observer: notes carry no instructions and no cycles, so timing,
 * metrics, and every other stat are bit-identical with or without it.
 *
 * Transaction spans. A TxBegin note opens a span on (core, pool) and
 * the matching TxCommit or TxAbort closes it. A committed span records
 * its core-local cycles into `tx.latency` (and `tx.op.<name>.latency`
 * when its op was named) and the core's clwbs + fences since the begin
 * into `tx.durability_events`; an aborted span's cycles are the wasted
 * work in `tx.abort.wasted_cycles`.
 *
 * Time bases. Events are stamped with two clocks:
 *  - "makespan" cycles: max over the per-core clocks at the event, the
 *    monotone global clock of the deterministic schedule. Lock *wait*
 *    spans, commit-window waits, blocked-cycle attribution, and
 *    critical-path segment lengths use it (a waiting worker's own core
 *    clock is frozen, so its local clock cannot measure a wait; and
 *    core clocks desync at lock handoffs — grants follow the token
 *    order, not the simulated-clock order — so only the monotone
 *    makespan clock orders cross-core dependency edges correctly).
 *  - core-local cycles: the event core's own clock. Lock *hold* spans
 *    use it (work done while holding a lock is local work).
 *
 * Blocked-cycle attribution. Between two scheduling events exactly one
 * core runs; the makespan growth over that gap is charged to the
 * running core as `sched.core.<i>.running` and to every other core as
 * `sched.core.<i>.blocked.<reason>` under the core's current blocking
 * reason: lock_wait (an open lock wait), commit_wait (joined a commit
 * window that has not closed), idle_done (its worker finished), or
 * token_wait (otherwise: waiting for the scheduler token). By
 * construction, for every core, running + the four blocked counters
 * sum exactly to the makespan at export — asserted in tests.
 *
 * Critical path. The run is cut into per-core segments at core
 * switches, lock grants, lock releases, and op changes. Each segment
 * depends on its core predecessor and — when it begins at a lock
 * grant — on the segment that last released that key. Segment lengths
 * are makespan deltas: the scheduler is cooperative, so exactly one
 * segment is open at any instant and the segments tile [0, makespan]
 * with disjoint windows, which makes any dependency chain — and thus
 * the longest path (`cp.length`) — at most the makespan. `cp.pct`
 * relates it to the makespan, and the backtracked path attributes its
 * cycles to ops (`cp.op.<name>.cycles`) and to the lock keys whose
 * cross-core edges it rode (`cp.lock.<rank>.*`).
 */
#ifndef POAT_TELEMETRY_CONTENTION_H
#define POAT_TELEMETRY_CONTENTION_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/note.h"

namespace poat {

class StatsRegistry;

namespace telemetry {

/** Why a non-running core is not making progress. */
enum class BlockReason : uint8_t
{
    TokenWait,  ///< runnable, waiting for the scheduler token
    LockWait,   ///< blocked in LockManager::acquire
    CommitWait, ///< joined a commit window that has not closed yet
    IdleDone,   ///< its worker returned from the engine body
};

inline constexpr uint32_t kBlockReasons = 4;

/** Stat-key name of @p r ("lock_wait", "token_wait", ...). */
const char *blockReasonName(BlockReason r);

/** Lock-stripe count for the `lock.stripe.<i>.*` histograms. */
inline constexpr uint32_t kLockStripes = 16;

/** Rows in the `lock.top.<rank>.*` most-contended table. */
inline constexpr uint32_t kLockTopK = 8;

/** Rows in the `cp.lock.<rank>.*` critical-path lock table. */
inline constexpr uint32_t kCpTopLocks = 3;

/** The machine's clocks at a note, read on the core that emitted it. */
struct NoteClocks
{
    uint32_t core = 0;       ///< the active core
    uint64_t local = 0;      ///< that core's own cycles
    uint64_t makespan = 0;   ///< max over the per-core clocks
    uint64_t durability = 0; ///< that core's clwbs + fences so far
};

/** Note-fed transaction/contention/blocking/critical-path profiler. */
class ContentionProfiler
{
  public:
    /**
     * True once any concurrency event (core switch, lock, commit,
     * worker lifecycle) was seen. Export gates the concurrency subtrees
     * on this so purely sequential runs keep their exact stats schema
     * (golden baselines). Tx, OpName, and OpSet notes do not activate
     * the profiler — sequential runs emit those too.
     */
    bool active() const { return active_; }

    /** Consume note @p n, emitted at clocks @p at. */
    void note(const Note &n, const NoteClocks &at);

    /**
     * Core @p core becomes the active core; @p prev was active.
     * @p makespan is the global clock at the switch.
     */
    void coreSwitchIn(uint32_t core, uint32_t prev, uint64_t makespan);

    /**
     * Blocked cycles charged to (@p core, @p r) so far. Not settled to
     * "now" — exact after exportInto(), approximate between events.
     * Cheap enough for timeline gauges.
     */
    uint64_t blockedCycles(uint32_t core, BlockReason r) const;

    /**
     * Sync the profiler's stats into @p reg. The `tx.*` span stats go
     * out on every call. With @p multi_core set, or once active(), it
     * also settles blocked-cycle attribution up to @p makespan,
     * virtually closes the open critical-path segment there, and
     * (re)assigns the `lock.*`, `sched.*`, `commit.batch.*`,
     * `tx.abort.*`, and `cp.*` entries. Idempotent: calling twice with
     * the same clock exports the same values.
     */
    void exportInto(StatsRegistry &reg, uint64_t makespan,
                    bool multi_core);

  private:
    /** Per-core scheduler/attribution state. */
    struct CoreInfo
    {
        BlockReason reason = BlockReason::TokenWait;
        uint64_t running = 0; ///< makespan growth while active
        uint64_t blocked[kBlockReasons] = {};
        uint64_t waitStart = 0;    ///< makespan at lockWait
        uint32_t waitOp = 0;       ///< op at lockWait
        uint64_t waitKey = 0;      ///< key being waited for
        bool waiting = false;      ///< an open wait span exists
        uint64_t joinM = 0;        ///< makespan at commitJoin
        bool joined = false;       ///< inside an open commit window
        uint32_t curOp = 0;        ///< last opSet on this core
        int64_t openSeg = -1;      ///< index into segs_, -1 if none
        uint64_t segStart = 0; ///< makespan at open-segment start
        int64_t lastSeg = -1;      ///< last closed segment on this core
    };

    /** One critical-path DAG node (closed segment). */
    struct Segment
    {
        uint32_t core = 0;
        uint32_t op = 0;
        uint64_t len = 0;      ///< makespan cycles
        int64_t pred = -1;     ///< previous segment on the same core
        int64_t joinPred = -1; ///< segment that last released joinKey
        uint64_t joinKey = 0;  ///< meaningful iff joinPred >= 0
    };

    /** Exact per-key contention record (top-K table source). */
    struct KeyStats
    {
        uint64_t waits = 0;
        uint64_t wait_cycles = 0;
        uint64_t hold_cycles = 0;
        uint64_t acquisitions = 0;
    };

    /** An open transaction span (see the file comment). */
    struct TxSpan
    {
        uint64_t begin = 0;      ///< core-local cycles at TxBegin
        uint32_t op = 0;         ///< op id it was tagged with
        uint64_t durability = 0; ///< clwbs + fences at TxBegin
    };

    /** An interned workload op. */
    struct Op
    {
        std::string name;
        Histogram txLatency; ///< committed spans tagged with the op
    };

    CoreInfo &core(uint32_t c);

    /** The active core switched to workload op @p op. */
    void opSet(uint32_t core, uint32_t op, uint64_t makespan);

    void lockAcquired(uint32_t core, uint64_t key, uint64_t local,
                      uint64_t makespan);
    void lockReleased(uint32_t core, uint64_t key, uint64_t local,
                      uint64_t makespan);
    void commitBatch(uint32_t members, uint32_t elided,
                     uint64_t makespan);

    /** Charge @p ci's open wait on @p key, if any, up to @p makespan. */
    void endWait(CoreInfo &ci, uint64_t key, uint64_t makespan);

    /** Charge makespan growth up to @p makespan (running + blocked). */
    void settle(uint64_t makespan);

    /** Close @p c's open segment at makespan clock @p makespan. */
    void endSegment(uint32_t c, uint64_t makespan);

    /** Open a new segment on @p c starting at @p makespan. */
    void beginSegment(uint32_t c, uint64_t makespan,
                      int64_t joinPred = -1, uint64_t joinKey = 0);

    /** Extend pathEnd_ over segments closed since the last export. */
    void computePath();

    bool active_ = false;
    uint32_t activeCore_ = 0;
    uint64_t lastM_ = 0; ///< makespan at the last settle point
    std::vector<CoreInfo> cores_;
    std::map<uint32_t, Op> ops_; ///< op id -> interned op

    // Transaction spans.
    std::map<std::pair<uint32_t, uint32_t>, TxSpan> openTx_; ///< (core, pool)
    uint64_t txBegins_ = 0;
    Histogram txLatency_, txDurability_;

    // Lock contention.
    Histogram waitAll_, holdAll_;
    Histogram waitStripe_[kLockStripes];
    Histogram holdStripe_[kLockStripes];
    std::map<uint32_t, Histogram> waitByOp_; ///< op id -> wait hist
    std::map<uint64_t, KeyStats> byKey_;
    /** key -> (holder core, local clock at grant); Shared keeps the
     *  most recent grant (hold spans nest arbitrarily otherwise). */
    std::map<uint64_t, std::pair<uint32_t, uint64_t>> holds_;
    uint64_t lockWaits_ = 0;
    uint64_t lockAcquired_ = 0;
    uint64_t waitsForEdges_ = 0;
    uint64_t deadlockVictims_ = 0;

    // Commit windows.
    Histogram batchOccupancy_, batchWait_;
    uint64_t batches_ = 0;
    uint64_t fencesElided_ = 0;

    // Aborted work: one sample per aborted span.
    Histogram abortWasted_;

    // Critical path.
    std::vector<Segment> segs_;
    std::vector<uint64_t> pathEnd_; ///< DP values, parallel to segs_
    std::map<uint64_t, int64_t> lastRelease_; ///< key -> releasing seg
    size_t pathComputed_ = 0; ///< segs_ prefix with pathEnd_ done
};

} // namespace telemetry
} // namespace poat

#endif // POAT_TELEMETRY_CONTENTION_H
