/**
 * @file
 * LL microbenchmark (paper Table 5): search 700 random integers in a
 * persistent singly linked list; remove on hit, insert at head on miss
 * (the running example of the paper's Figure 4).
 *
 * Node layout: { int64 value @0, OID next @8 } — 16 bytes.
 */
#include "workloads/workloads.h"

#include <algorithm>
#include <optional>

#include "workloads/crash_support.h"

namespace poat {
namespace workloads {

namespace {

constexpr uint32_t kNodeSize = 16;
constexpr uint32_t kOffValue = 0;
constexpr uint32_t kOffNext = 8;

/**
 * One LL operation: search for @p key from the head (paper Figure 4);
 * remove its node on a hit, insert a new head node on a miss, in one
 * transaction when @p transactions is set. The benchmark and the crash
 * driver both run it. @return true on a hit.
 */
bool
removeOrInsert(PmemRuntime &rt, ObjectID root, PoolSet &pools, int64_t key,
               bool transactions)
{
    // ---- find: traverse from the head (paper Figure 4) ----------
    ObjectRef rootRef = rt.deref(root);
    ObjectID prev = OID_NULL;
    ObjectID cur(rt.read<uint64_t>(rootRef, 0));
    uint64_t chase_tag = rt.lastLoadTag();
    bool found = false;
    while (!cur.isNull()) {
        rt.compute(kVisitCost);
        ObjectRef c = rt.deref(cur, chase_tag);
        const int64_t v = rt.read<int64_t>(c, kOffValue);
        found = (v == key);
        rt.branchEvent(found, kPcFound, rt.lastLoadTag());
        if (found)
            break;
        const uint64_t next_raw = rt.read<uint64_t>(c, kOffNext);
        chase_tag = rt.lastLoadTag();
        prev = cur;
        cur = ObjectID(next_raw);
        rt.branchEvent(true, kPcSearch);
    }

    rt.setOp(found ? "remove" : "insert");
    TxScope tx(rt, transactions);
    if (found) {
        // ---- remove cur: relink, then free --------------------
        ObjectRef c = rt.deref(cur);
        const uint64_t next_raw = rt.read<uint64_t>(c, kOffNext);
        if (prev.isNull()) {
            tx.addRange(root, 8);
            rt.write<uint64_t>(rt.deref(root), 0, next_raw);
        } else {
            tx.addRange(prev.plus(kOffNext), 8);
            rt.write<uint64_t>(rt.deref(prev), kOffNext, next_raw);
        }
        tx.pfree(cur);
        rt.compute(kUpdateCost);
    } else {
        // ---- insert a new head node ----------------------------
        const uint32_t pool = pools.poolForNew(key);
        const ObjectID n = tx.pmalloc(pool, kNodeSize);
        // Snapshot the fresh node so commit flushes its contents
        // (tx_pmalloc'd data is flushed at tx_end, as in NVML).
        tx.addRange(n, kNodeSize);
        ObjectRef nr = rt.deref(n);
        ObjectRef rr = rt.deref(root);
        const uint64_t head_raw = rt.read<uint64_t>(rr, 0);
        rt.write<int64_t>(nr, kOffValue, key);
        rt.write<uint64_t>(nr, kOffNext, head_raw);
        tx.addRange(root, 8);
        rt.write<uint64_t>(rt.deref(root), 0, n.raw);
        rt.compute(kUpdateCost);
    }
    return found;
}

} // namespace

LinkedListWorkload::LinkedListWorkload(const WorkloadConfig &cfg)
    : cfg_(cfg)
{
}

WorkloadResult
LinkedListWorkload::run(PmemRuntime &rt)
{
    Rng rng(cfg_.seed);
    PoolSet pools(rt, cfg_.pattern, "ll");
    // The root object holds the head ObjectID at offset 0.
    const ObjectID root = rt.poolRoot(pools.homePool(), kNodeSize);

    WorkloadResult res;
    const uint64_t ops = 700ull * cfg_.scale_pct / 100;
    const uint64_t key_range = ops;

    for (uint64_t op = 0; op < ops; ++op) {
        const int64_t key = static_cast<int64_t>(rng.below(key_range));
        ++res.operations;
        if (removeOrInsert(rt, root, pools, key, cfg_.transactions)) {
            res.checksum += static_cast<uint64_t>(key) * 31 + 1;
            ++res.found;
        } else {
            res.checksum += static_cast<uint64_t>(key) * 7 + 3;
        }
    }

    // Fold the surviving list into the checksum.
    ObjectID cur(rt.read<uint64_t>(rt.deref(root), 0));
    while (!cur.isNull()) {
        ObjectRef c = rt.deref(cur);
        res.checksum = res.checksum * 131 +
            static_cast<uint64_t>(rt.read<int64_t>(c, kOffValue));
        cur = ObjectID(rt.read<uint64_t>(c, kOffNext));
    }
    return res;
}

namespace {

/** LL stepped for crash-point exploration (see crash_support.h). */
class ListCrashDriver final : public CrashDriver
{
  public:
    ListCrashDriver(uint64_t steps, uint64_t seed)
        : steps_(steps), seed_(seed), rng_(seed)
    {}

    const char *name() const override { return "LL"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        pools_.emplace(rt, PoolPattern::All, "llc", kCrashPoolBytes);
        root_ = rt.poolRoot(pools_->homePool(), kNodeSize);
    }

    void
    step(PmemRuntime &rt, uint64_t) override
    {
        const int64_t key =
            static_cast<int64_t>(rng_.below(std::max<uint64_t>(steps_, 1)));
        removeOrInsert(rt, root_, *pools_, key, true);
    }

    bool
    verifyRecovered(PmemRuntime &rt, uint64_t lo, uint64_t hi,
                    std::string *why) override
    {
        std::vector<int64_t> got;
        if (!walk(rt, &got, why))
            return false;
        for (uint64_t c = std::min(lo, steps_);
             c <= std::min(hi, steps_); ++c) {
            if (got == model(c))
                return true;
        }
        if (why) {
            *why = "list of " + std::to_string(got.size()) +
                " values matches no model state in steps [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]";
        }
        return false;
    }

    bool
    reachable(PmemRuntime &rt,
              std::map<uint32_t, std::set<uint32_t>> *out) override
    {
        (*out)[root_.poolId()].insert(root_.offset());
        ObjectID cur(rt.read<uint64_t>(rt.deref(root_), 0));
        uint64_t guard = 0;
        while (!cur.isNull() && ++guard <= steps_ + 1) {
            (*out)[cur.poolId()].insert(cur.offset());
            cur = ObjectID(rt.read<uint64_t>(rt.deref(cur), kOffNext));
        }
        return true;
    }

  private:
    /** Collect the persistent list, bounds-checking every link. */
    bool
    walk(PmemRuntime &rt, std::vector<int64_t> *out, std::string *why)
    {
        ObjectID cur(rt.read<uint64_t>(rt.deref(root_), 0));
        while (!cur.isNull()) {
            if (!oidPlausible(rt, cur, kNodeSize)) {
                if (why)
                    *why = "dangling list link";
                return false;
            }
            if (out->size() > steps_) {
                if (why)
                    *why = "list longer than the operation count (cycle?)";
                return false;
            }
            ObjectRef c = rt.deref(cur);
            out->push_back(rt.read<int64_t>(c, kOffValue));
            cur = ObjectID(rt.read<uint64_t>(c, kOffNext));
        }
        return true;
    }

    /** Volatile replay of the first @p c operations. */
    std::vector<int64_t>
    model(uint64_t c) const
    {
        Rng rng(seed_);
        std::vector<int64_t> lst; // front() is the persistent head
        for (uint64_t i = 0; i < c; ++i) {
            const int64_t key = static_cast<int64_t>(
                rng.below(std::max<uint64_t>(steps_, 1)));
            auto it = std::find(lst.begin(), lst.end(), key);
            if (it != lst.end())
                lst.erase(it);
            else
                lst.insert(lst.begin(), key);
        }
        return lst;
    }

    uint64_t steps_;
    uint64_t seed_;
    Rng rng_;
    std::optional<PoolSet> pools_;
    ObjectID root_;
};

} // namespace

std::unique_ptr<CrashDriver>
makeListCrashDriver(uint64_t steps, uint64_t seed)
{
    return std::make_unique<ListCrashDriver>(steps, seed);
}

} // namespace workloads
} // namespace poat
