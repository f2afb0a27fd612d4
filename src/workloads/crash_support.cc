/**
 * @file
 * Shared crash-driver support: the bounds check for verification walks,
 * the TPC-C driver (which verifies against a shadow reference replay,
 * like the microbenchmarks, plus the database's own consistency
 * conditions), and the name-based factory.
 */
#include "workloads/crash_support.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "pmem/concurrent/engine.h"
#include "pmem/pool.h"
#include "workloads/tpcc/tpcc.h"

namespace poat {
namespace workloads {

void
ConcurrentDiag::absorb(concurrent::ConcurrentEngine &eng)
{
    const concurrent::TxTable &table = eng.table();
    const concurrent::LockManager &locks = eng.locks();
    if (slots.size() < table.workers())
        slots.resize(table.workers());
    for (uint32_t w = 0; w < table.workers(); ++w) {
        const concurrent::TxSlot &s = table.slot(w);
        slots[w].begins += s.begins;
        slots[w].commits += s.commits;
        slots[w].aborts += s.aborts;
        slots[w].retries += s.retries;
    }
    lock_acquisitions += locks.acquisitions();
    lock_waits += locks.waits();
    deadlocks += locks.deadlocks();
}

std::string
ConcurrentDiag::render() const
{
    if (slots.empty())
        return {};
    std::string out;
    char buf[128];
    for (size_t w = 0; w < slots.size(); ++w) {
        std::snprintf(buf, sizeof(buf),
                      "%sslot%zu: %llu begins %llu commits %llu aborts "
                      "%llu retries",
                      w == 0 ? "" : " | ", w,
                      static_cast<unsigned long long>(slots[w].begins),
                      static_cast<unsigned long long>(slots[w].commits),
                      static_cast<unsigned long long>(slots[w].aborts),
                      static_cast<unsigned long long>(slots[w].retries));
        out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  " | locks: %llu acquisitions %llu waits %llu deadlocks",
                  static_cast<unsigned long long>(lock_acquisitions),
                  static_cast<unsigned long long>(lock_waits),
                  static_cast<unsigned long long>(deadlocks));
    out += buf;
    return out;
}

bool
oidPlausible(PmemRuntime &rt, ObjectID oid, uint32_t size)
{
    if (oid.isNull())
        return false;
    const OpenPool *op = rt.registry().find(oid.poolId());
    if (op == nullptr)
        return false;
    // A legitimate payload lives inside the heap region; anything else
    // (header, log region, out of bounds) is a corrupt link.
    const PoolHeader &h = op->pool.header();
    const uint64_t off = oid.offset();
    return off >= h.heap_off &&
        off + size <= static_cast<uint64_t>(h.heap_off) + h.heap_size;
}

namespace {

/**
 * TPC-C rephrased for crash-point exploration. Verification is a full
 * shadow model with the same s / s+1 step attribution as the
 * microbenchmarks: the driver is a deterministic function of (steps,
 * seed), so a reference database replayed to exactly c transactions in
 * a private runtime IS the model state after c completed steps. The
 * recovered database must pass the spec consistency conditions AND be
 * semantically equal (tpccStateEquals: key sets + tuple bytes; WAL and
 * allocator internals excluded) to the reference at some c in [lo, hi]
 * — or, because delivery commits one TxScope per district rather than
 * one per step, to c steps plus a proper prefix of step c+1's district
 * deliveries (setDeliverySubLimit replays exactly those states).
 * The reference is memoized across the post-recovery and idempotence
 * checks of a trial. Reachability enumeration is not implemented, so
 * allocator leak accounting is skipped (reachable() returns false).
 */
class TpccCrashDriver final : public CrashDriver
{
  public:
    TpccCrashDriver(uint64_t steps, uint64_t seed)
        : steps_(steps), seed_(seed)
    {}

    const char *name() const override { return "TPCC"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        db_.emplace(rt, tpcc::Placement::All, 2 /*scale pct*/, seed_);
    }

    void
    step(PmemRuntime &, uint64_t) override
    {
        db_->run(1);
    }

    bool
    verifyRecovered(PmemRuntime &rt, uint64_t lo, uint64_t hi,
                    std::string *why) override
    {
        if (!db_->consistent()) {
            if (why)
                *why =
                    "TPC-C consistency conditions violated after recovery";
            return false;
        }
        const uint64_t lo_c = std::min(lo, steps_);
        const uint64_t hi_c = std::min(hi, steps_);
        // Try the memoized reference count first: the idempotence
        // re-check visits the same window, and a match there skips
        // every rebuild.
        std::vector<uint64_t> candidates;
        if (ref_ && ref_->steps >= lo_c && ref_->steps <= hi_c)
            candidates.push_back(ref_->steps);
        for (uint64_t c = lo_c; c <= hi_c; ++c) {
            if (candidates.empty() || candidates[0] != c)
                candidates.push_back(c);
        }
        std::string first_why;
        for (uint64_t c : candidates) {
            ensureRef(c);
            std::string w;
            if (tpcc::tpccStateEquals(ref_->rt, *ref_->db, rt, *db_, &w))
                return true;
            if (first_why.empty())
                first_why =
                    "vs " + std::to_string(c) + " steps: " + w;
        }
        // Delivery is not step-atomic: it commits one TxScope per
        // district, so a crash mid-delivery durably keeps a proper
        // prefix of step c+1's district deliveries. Replay those
        // prefixes (fresh reference per prefix length — the replay
        // only moves forward) as candidate states between c and c+1.
        for (uint64_t c = lo_c; c < hi_c; ++c) {
            for (uint64_t j = 1;; ++j) {
                Ref scratch(seed_);
                while (scratch.steps < c) {
                    scratch.db->run(1);
                    ++scratch.steps;
                }
                scratch.db->setDeliverySubLimit(j);
                tpcc::TpccResult r;
                scratch.db->runOne(r);
                if (!r.delivery_truncated)
                    break; // the full step — candidate c+1 above
                std::string w;
                if (tpcc::tpccStateEquals(scratch.rt, *scratch.db, rt,
                                          *db_, &w))
                    return true;
            }
        }
        if (why) {
            *why = "TPC-C state matches no completed-step count in [" +
                std::to_string(lo_c) + ", " + std::to_string(hi_c) +
                "] nor any delivery sub-transaction prefix between "
                "them (" + first_why + ")";
        }
        return false;
    }

    bool
    reachable(PmemRuntime &,
              std::map<uint32_t, std::set<uint32_t>> *) override
    {
        return false;
    }

  private:
    /** Reference replay in its own runtime, advanced on demand. */
    struct Ref
    {
        explicit Ref(uint64_t seed)
        {
            db.emplace(rt, tpcc::Placement::All, 2 /*scale pct*/, seed);
        }

        PmemRuntime rt;
        std::optional<tpcc::TpccDb> db;
        uint64_t steps = 0;
    };

    /**
     * Bring the reference to exactly @p c completed transactions.
     * run(1) per step matches step()'s RNG stream exactly (runOne is
     * the body of run()'s loop). The replay only moves forward, so a
     * smaller target rebuilds from scratch.
     */
    void
    ensureRef(uint64_t c)
    {
        if (ref_ && ref_->steps > c)
            ref_.reset();
        if (!ref_)
            ref_ = std::make_unique<Ref>(seed_);
        while (ref_->steps < c) {
            ref_->db->run(1);
            ++ref_->steps;
        }
    }

    uint64_t steps_;
    uint64_t seed_;
    std::optional<tpcc::TpccDb> db_;
    std::unique_ptr<Ref> ref_;
};

} // namespace

std::unique_ptr<CrashDriver>
makeTpccCrashDriver(uint64_t steps, uint64_t seed)
{
    return std::make_unique<TpccCrashDriver>(steps, seed);
}

std::unique_ptr<CrashDriver>
makeCrashDriver(const std::string &abbr, uint64_t steps, uint64_t seed,
                uint32_t threads, uint64_t sched_seed)
{
    // Every engine worker owns an undo-log slot of the trial pools.
    if (threads > PoolHeader::kMaxLogSlots)
        throw std::invalid_argument(
            "worker count " + std::to_string(threads) +
            " out of range (at most " +
            std::to_string(PoolHeader::kMaxLogSlots) +
            ", one undo-log slot each)");
    if (abbr == "LL")
        return makeListCrashDriver(steps, seed);
    if (abbr == "BST")
        return makeBstCrashDriver(steps, seed);
    if (abbr == "SPS")
        return makeSpsCrashDriver(steps, seed);
    if (abbr == "RBT")
        return makeRbtCrashDriver(steps, seed);
    if (abbr == "BT")
        return makeBtreeCrashDriver(steps, seed);
    if (abbr == "B+T")
        return makeBplusCrashDriver(steps, seed);
    if (abbr == "TPCC")
        return makeTpccCrashDriver(steps, seed);
    if (abbr == "LHT")
        return makeLhtCrashDriver(steps, seed, threads, sched_seed);
    if (abbr == "MTPCC")
        return makeMtpccCrashDriver(steps, seed, threads, sched_seed);
    throw std::invalid_argument("unknown crash workload '" + abbr +
                                "' (expected one of LL, BST, SPS, RBT, "
                                "BT, B+T, TPCC, LHT, MTPCC)");
}

const std::vector<std::string> &
crashWorkloadNames()
{
    static const std::vector<std::string> names = {
        "LL", "BST", "SPS", "RBT", "BT", "B+T", "TPCC", "LHT", "MTPCC"};
    return names;
}

} // namespace workloads
} // namespace poat
