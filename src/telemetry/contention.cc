#include "telemetry/contention.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"

namespace poat {
namespace telemetry {

namespace {

/** Stripe of a lock key (mix the bits so dense keys spread). */
uint32_t
stripeOf(uint64_t key)
{
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return static_cast<uint32_t>(h >> 60) & (kLockStripes - 1);
}

} // namespace

const char *
blockReasonName(BlockReason r)
{
    switch (r) {
      case BlockReason::TokenWait:
        return "token_wait";
      case BlockReason::LockWait:
        return "lock_wait";
      case BlockReason::CommitWait:
        return "commit_wait";
      case BlockReason::IdleDone:
        return "idle_done";
    }
    return "?";
}

ContentionProfiler::CoreInfo &
ContentionProfiler::core(uint32_t c)
{
    if (c >= cores_.size()) {
        const size_t old = cores_.size();
        cores_.resize(c + 1);
        // A core first seen now has been waiting for the scheduler
        // token since time 0; backfill so running + blocked still sums
        // exactly to the makespan for every core.
        for (size_t i = old; i < cores_.size(); ++i)
            cores_[i].blocked[static_cast<uint32_t>(
                BlockReason::TokenWait)] += lastM_;
    }
    return cores_[c];
}

void
ContentionProfiler::settle(uint64_t makespan)
{
    if (makespan <= lastM_)
        return;
    const uint64_t growth = makespan - lastM_;
    // Ensure the running core exists BEFORE advancing lastM_: a core
    // created here is backfilled as token-waiting up to the old settle
    // point, then charged running for the growth — not both.
    core(activeCore_);
    lastM_ = makespan;
    for (uint32_t c = 0; c < cores_.size(); ++c) {
        if (c == activeCore_)
            cores_[c].running += growth;
        else
            cores_[c].blocked[static_cast<uint32_t>(
                cores_[c].reason)] += growth;
    }
}

void
ContentionProfiler::endSegment(uint32_t c, uint64_t makespan)
{
    CoreInfo &ci = core(c);
    if (ci.openSeg < 0)
        beginSegment(c, ci.segStart);
    Segment &s = segs_[static_cast<size_t>(ci.openSeg)];
    s.len = makespan >= ci.segStart ? makespan - ci.segStart : 0;
    ci.lastSeg = ci.openSeg;
    ci.openSeg = -1;
    ci.segStart = makespan;
}

void
ContentionProfiler::beginSegment(uint32_t c, uint64_t makespan,
                                 int64_t joinPred, uint64_t joinKey)
{
    CoreInfo &ci = core(c);
    Segment s;
    s.core = c;
    s.op = ci.curOp;
    s.pred = ci.lastSeg;
    s.joinPred = joinPred;
    s.joinKey = joinKey;
    ci.openSeg = static_cast<int64_t>(segs_.size());
    ci.segStart = makespan;
    segs_.push_back(s);
}

void
ContentionProfiler::coreSwitchIn(uint32_t core_id, uint32_t prev,
                                 uint64_t makespan)
{
    active_ = true;
    settle(makespan);
    if (prev != core_id)
        endSegment(prev, makespan);
    activeCore_ = core_id;
    // The very first segment starts at 0 so the segments tile the
    // whole run (the setup phase belongs to the first active core).
    if (core(core_id).openSeg < 0)
        beginSegment(core_id, segs_.empty() ? 0 : makespan);
}

void
ContentionProfiler::note(const Note &n, const NoteClocks &at)
{
    const auto u32 = [](uint64_t v) { return static_cast<uint32_t>(v); };
    const uint32_t c = at.core;
    const uint64_t m = at.makespan;
    switch (n.kind) {
      case NoteKind::TxBegin:
        ++txBegins_;
        openTx_[{c, u32(n.arg[0])}] =
            TxSpan{at.local, u32(n.arg[1]), at.durability};
        return;
      case NoteKind::TxCommit:
      case NoteKind::TxAbort: {
        const auto it = openTx_.find({c, u32(n.arg[0])});
        POAT_ASSERT(it != openTx_.end(), "transaction end without txBegin");
        const uint64_t span = at.local - it->second.begin;
        if (n.kind == NoteKind::TxAbort) {
            abortWasted_.record(span);
        } else {
            txLatency_.record(span);
            txDurability_.record(at.durability - it->second.durability);
            if (const auto op = ops_.find(it->second.op); op != ops_.end())
                op->second.txLatency.record(span);
        }
        openTx_.erase(it);
        return;
      }
      case NoteKind::OpName:
        ops_[u32(n.arg[0])].name = n.name;
        return;
      case NoteKind::OpSet:
        opSet(c, u32(n.arg[0]), m);
        return;
      default:
        break;
    }

    // Every other note is a concurrency event.
    active_ = true;
    settle(m);
    const uint64_t key = n.arg[1];
    switch (n.kind) {
      case NoteKind::LockWait: {
        CoreInfo &ci = core(c);
        ci.reason = BlockReason::LockWait;
        ci.waiting = true;
        ci.waitStart = m;
        ci.waitOp = ci.curOp;
        ci.waitKey = key;
        ++lockWaits_;
        waitsForEdges_ += u32(n.arg[3]);
        ++byKey_[key].waits;
        break;
      }
      case NoteKind::LockAcquired:
        lockAcquired(c, key, at.local, m);
        break;
      case NoteKind::LockReleased:
        lockReleased(c, key, at.local, m);
        break;
      case NoteKind::LockDeadlock: {
        ++deadlockVictims_;
        CoreInfo &ci = core(c);
        endWait(ci, key, m); // the aborted wait still happened
        ci.reason = BlockReason::TokenWait;
        break;
      }
      case NoteKind::WorkerDone:
        core(c).reason = BlockReason::IdleDone;
        break;
      case NoteKind::CommitJoin: {
        CoreInfo &ci = core(c);
        ci.joined = true;
        ci.joinM = m;
        if (ci.reason == BlockReason::TokenWait)
            ci.reason = BlockReason::CommitWait;
        break;
      }
      case NoteKind::CommitBatch:
        commitBatch(u32(n.arg[0]), u32(n.arg[1]), m);
        break;
      default:
        POAT_PANIC("unhandled note kind");
    }
}

void
ContentionProfiler::opSet(uint32_t c, uint32_t op, uint64_t makespan)
{
    CoreInfo &ci = core(c);
    if (ci.curOp == op)
        return;
    if (!active_) {
        // Sequential runs emit opSet too; track the op (it seeds the
        // first segments if the run later turns concurrent) without
        // growing the segment DAG.
        ci.curOp = op;
        return;
    }
    endSegment(c, makespan);
    ci.curOp = op;
    beginSegment(c, makespan);
}

void
ContentionProfiler::endWait(CoreInfo &ci, uint64_t key, uint64_t makespan)
{
    if (!ci.waiting || ci.waitKey != key)
        return;
    const uint64_t wait = makespan - ci.waitStart;
    waitAll_.record(wait);
    waitStripe_[stripeOf(key)].record(wait);
    waitByOp_[ci.waitOp].record(wait);
    byKey_[key].wait_cycles += wait;
    ci.waiting = false;
    ci.reason = BlockReason::TokenWait;
}

void
ContentionProfiler::lockAcquired(uint32_t c, uint64_t key,
                                 uint64_t local, uint64_t makespan)
{
    endWait(core(c), key, makespan);
    ++lockAcquired_;
    ++byKey_[key].acquisitions;
    holds_[key] = {c, local};

    // Critical-path join: this segment's start depends on whoever
    // last released the key (cross-core dependency edge).
    int64_t join = -1;
    if (auto it = lastRelease_.find(key); it != lastRelease_.end())
        join = it->second;
    endSegment(c, makespan);
    beginSegment(c, makespan, join, key);
}

void
ContentionProfiler::lockReleased(uint32_t c, uint64_t key,
                                 uint64_t local, uint64_t makespan)
{
    if (auto it = holds_.find(key); it != holds_.end()) {
        if (it->second.first == c) {
            const uint64_t hold = local >= it->second.second
                ? local - it->second.second
                : 0;
            holdAll_.record(hold);
            holdStripe_[stripeOf(key)].record(hold);
            byKey_[key].hold_cycles += hold;
        }
        holds_.erase(it);
    }
    CoreInfo &ci = core(c);
    endSegment(c, makespan);
    lastRelease_[key] = ci.lastSeg;
    beginSegment(c, makespan);
}

void
ContentionProfiler::commitBatch(uint32_t members, uint32_t elided,
                                uint64_t makespan)
{
    ++batches_;
    batchOccupancy_.record(members);
    fencesElided_ += elided;
    for (CoreInfo &ci : cores_) {
        if (!ci.joined)
            continue;
        batchWait_.record(makespan - ci.joinM);
        ci.joined = false;
        if (ci.reason == BlockReason::CommitWait)
            ci.reason = BlockReason::TokenWait;
    }
}

uint64_t
ContentionProfiler::blockedCycles(uint32_t c, BlockReason r) const
{
    if (c >= cores_.size())
        return 0;
    return cores_[c].blocked[static_cast<uint32_t>(r)];
}

void
ContentionProfiler::computePath()
{
    // Only CLOSED segments enter the DP: an open segment still has
    // len 0, and exports can happen mid-run (timeline sampling), so
    // committing its value now would freeze the zero forever.
    size_t n = segs_.size();
    for (const CoreInfo &ci : cores_) {
        if (ci.openSeg >= 0)
            n = std::min(n, static_cast<size_t>(ci.openSeg));
    }
    pathEnd_.resize(segs_.size(), 0);
    for (size_t i = pathComputed_; i < n; ++i) {
        const Segment &s = segs_[i];
        uint64_t base = 0;
        if (s.pred >= 0)
            base = pathEnd_[static_cast<size_t>(s.pred)];
        if (s.joinPred >= 0)
            base = std::max(base,
                            pathEnd_[static_cast<size_t>(s.joinPred)]);
        pathEnd_[i] = base + s.len;
    }
    pathComputed_ = n;
}

void
ContentionProfiler::exportInto(StatsRegistry &reg, uint64_t makespan,
                               bool multi_core)
{
    // ---- tx.* spans (every run) -----------------------------------
    reg.counter("tx.begins") = txBegins_;
    reg.counter("tx.commits") = txLatency_.count();
    reg.counter("tx.aborts") = abortWasted_.count();
    reg.histogram("tx.latency") = txLatency_;
    reg.histogram("tx.durability_events") = txDurability_;
    for (const auto &[id, op] : ops_)
        reg.histogram("tx.op." + op.name + ".latency") = op.txLatency;

    // The rest only for multi-core machines and runs that saw
    // concurrency events, so sequential runs keep their exact schema.
    if (!multi_core && !active_)
        return;
    settle(makespan);

    // ---- lock.* ---------------------------------------------------
    reg.counter("lock.waits") = lockWaits_;
    reg.counter("lock.acquisitions") = lockAcquired_;
    reg.counter("lock.waits_for_edges") = waitsForEdges_;
    reg.counter("lock.deadlock_victims") = deadlockVictims_;
    reg.histogram("lock.wait_cycles") = waitAll_;
    reg.histogram("lock.hold_cycles") = holdAll_;
    for (uint32_t i = 0; i < kLockStripes; ++i) {
        const std::string p = "lock.stripe." + std::to_string(i) + ".";
        reg.histogram(p + "wait_cycles") = waitStripe_[i];
        reg.histogram(p + "hold_cycles") = holdStripe_[i];
    }
    for (const auto &[op, h] : waitByOp_) {
        const auto it = ops_.find(op);
        const std::string name =
            it != ops_.end() ? it->second.name : std::to_string(op);
        reg.histogram("lock.op." + name + ".wait_cycles") = h;
    }

    // Top-K most contended keys, by wait cycles (ties: smaller key).
    std::vector<std::pair<uint64_t, const KeyStats *>> ranked;
    ranked.reserve(byKey_.size());
    for (const auto &[key, ks] : byKey_)
        ranked.emplace_back(key, &ks);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->wait_cycles != b.second->wait_cycles)
                      return a.second->wait_cycles >
                          b.second->wait_cycles;
                  return a.first < b.first;
              });
    // All kLockTopK rows are always written (zeros when fewer keys
    // exist): the timeline samples stats mid-run, so the exported key
    // set must not depend on WHEN the export happens — only counters
    // every later export rewrites may be registered.
    const uint32_t topn = static_cast<uint32_t>(
        std::min<size_t>(kLockTopK, ranked.size()));
    reg.counter("lock.top.count") = topn;
    for (uint32_t r = 0; r < kLockTopK; ++r) {
        const std::string p = "lock.top." + std::to_string(r) + ".";
        const bool live = r < topn;
        reg.counter(p + "key") = live ? ranked[r].first : 0;
        reg.counter(p + "waits") = live ? ranked[r].second->waits : 0;
        reg.counter(p + "wait_cycles") =
            live ? ranked[r].second->wait_cycles : 0;
        reg.counter(p + "hold_cycles") =
            live ? ranked[r].second->hold_cycles : 0;
        reg.counter(p + "acquisitions") =
            live ? ranked[r].second->acquisitions : 0;
    }

    // ---- sched.* --------------------------------------------------
    uint64_t blockedSum[kBlockReasons] = {};
    for (uint32_t c = 0; c < cores_.size(); ++c) {
        const std::string p = "sched.core." + std::to_string(c) + ".";
        reg.counter(p + "running") = cores_[c].running;
        for (uint32_t r = 0; r < kBlockReasons; ++r) {
            reg.counter(p + "blocked." +
                        blockReasonName(static_cast<BlockReason>(r))) =
                cores_[c].blocked[r];
            blockedSum[r] += cores_[c].blocked[r];
        }
    }
    for (uint32_t r = 0; r < kBlockReasons; ++r)
        reg.counter(std::string("sched.blocked.") +
                    blockReasonName(static_cast<BlockReason>(r))) =
            blockedSum[r];

    // ---- commit.batch.* / tx.abort.* ------------------------------
    reg.counter("commit.batch.windows") = batches_;
    reg.counter("commit.batch.fences_elided") = fencesElided_;
    reg.histogram("commit.batch.occupancy") = batchOccupancy_;
    reg.histogram("commit.batch.wait_cycles") = batchWait_;
    reg.counter("tx.abort.count") = abortWasted_.count();
    reg.counter("tx.abort.wasted_total") = abortWasted_.sum();
    reg.histogram("tx.abort.wasted_cycles") = abortWasted_;

    // ---- cp.* -----------------------------------------------------
    computePath();

    // Virtually close any open segment at the makespan so in-flight
    // work counts, without mutating the DAG (repeat exports must stay
    // idempotent). At most one segment is open per core, and only the
    // active core's can have nonzero virtual length.
    uint64_t best = 0;
    int64_t bestSeg = -1;     // closed segment the best path ends at
    uint64_t bestTailLen = 0; // virtual tail on top of it (open seg)
    uint32_t bestTailOp = 0;
    int64_t bestTailJoin = -1;
    uint64_t bestTailKey = 0;
    for (size_t i = 0; i < segs_.size(); ++i) {
        if (pathEnd_[i] > best) {
            best = pathEnd_[i];
            bestSeg = static_cast<int64_t>(i);
            bestTailLen = 0;
        }
    }
    for (uint32_t c = 0; c < cores_.size(); ++c) {
        const CoreInfo &ci = cores_[c];
        if (ci.openSeg < 0)
            continue;
        const Segment &s = segs_[static_cast<size_t>(ci.openSeg)];
        const uint64_t vlen =
            makespan >= ci.segStart ? makespan - ci.segStart : 0;
        uint64_t base = 0;
        if (s.pred >= 0)
            base = pathEnd_[static_cast<size_t>(s.pred)];
        if (s.joinPred >= 0)
            base = std::max(base,
                            pathEnd_[static_cast<size_t>(s.joinPred)]);
        if (base + vlen > best) {
            best = base + vlen;
            bestTailLen = vlen;
            bestTailOp = s.op;
            bestTailJoin = s.joinPred;
            bestTailKey = s.joinKey;
            // Backtrack continues from the tail's stronger predecessor.
            const uint64_t predEnd =
                s.pred >= 0 ? pathEnd_[static_cast<size_t>(s.pred)] : 0;
            const uint64_t joinEnd = s.joinPred >= 0
                ? pathEnd_[static_cast<size_t>(s.joinPred)]
                : 0;
            bestSeg = joinEnd > predEnd ? s.joinPred : s.pred;
        }
    }

    // Backtrack the winning path, attributing cycles to ops and lock
    // keys: the path segments upstream of a lock-join edge (back to
    // the previous edge) charge their length to that edge's key —
    // they are the cross-core work the path waited behind.
    std::map<uint32_t, uint64_t> opCycles;
    std::map<uint64_t, uint64_t> lockCycles;
    uint64_t lockEdges = 0;
    int64_t cursor = bestSeg;
    bool viaJoin = false;
    uint64_t viaKey = 0;
    if (bestTailLen > 0) {
        opCycles[bestTailOp] += bestTailLen;
        if (bestTailJoin >= 0 && bestSeg == bestTailJoin) {
            ++lockEdges;
            viaJoin = true;
            viaKey = bestTailKey;
        }
    }
    while (cursor >= 0) {
        const Segment &s = segs_[static_cast<size_t>(cursor)];
        opCycles[s.op] += s.len;
        if (viaJoin)
            lockCycles[viaKey] += s.len;
        const uint64_t predEnd =
            s.pred >= 0 ? pathEnd_[static_cast<size_t>(s.pred)] : 0;
        const uint64_t joinEnd = s.joinPred >= 0
            ? pathEnd_[static_cast<size_t>(s.joinPred)]
            : 0;
        if (s.joinPred >= 0 && joinEnd >= predEnd) {
            ++lockEdges;
            viaJoin = true;
            viaKey = s.joinKey;
            cursor = s.joinPred;
        } else {
            viaJoin = false;
            cursor = s.pred;
        }
    }

    reg.counter("cp.length") = best;
    reg.counter("cp.segments") = segs_.size();
    reg.counter("cp.edges.lock") = lockEdges;
    reg.formula("cp.pct", "cp.length", "core.cycles");
    // One row per announced op (plus untagged), zero when off the
    // path, so mid-run exports register no key a later export would
    // orphan (see the lock.top comment above).
    reg.counter("cp.op.untagged.cycles") = opCycles[0];
    for (const auto &[id, op] : ops_) {
        if (id != 0)
            reg.counter("cp.op." + op.name + ".cycles") = opCycles[id];
    }
    std::vector<std::pair<uint64_t, uint64_t>> lranked(
        lockCycles.begin(), lockCycles.end());
    std::sort(lranked.begin(), lranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    const uint32_t ln = static_cast<uint32_t>(
        std::min<size_t>(kCpTopLocks, lranked.size()));
    reg.counter("cp.lock.count") = ln;
    for (uint32_t r = 0; r < kCpTopLocks; ++r) {
        const std::string p = "cp.lock." + std::to_string(r) + ".";
        const bool live = r < ln;
        reg.counter(p + "key") = live ? lranked[r].first : 0;
        reg.counter(p + "cycles") = live ? lranked[r].second : 0;
    }
}

} // namespace telemetry
} // namespace poat
