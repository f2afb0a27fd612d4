/**
 * @file
 * BT microbenchmark (paper Table 5): search 5000 random integers in a
 * B-tree of order 7; insert any key that is missing (splits rebalance
 * the tree; the paper's BT performs no deletions).
 *
 * Node layout (120 bytes):
 *   u64 n_keys @0 | u64 leaf @8 | int64 keys[6] @16 | OID children[7] @64
 */
#include "workloads/workloads.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "workloads/crash_support.h"

namespace poat {
namespace workloads {

namespace {

constexpr uint32_t kMaxKeys = 6; // order 7: up to 7 children
constexpr uint32_t kNodeSize = 120;
constexpr uint32_t kOffN = 0;
constexpr uint32_t kOffLeaf = 8;
constexpr uint32_t kOffKeys = 16;
constexpr uint32_t kOffChildren = 64;

constexpr uint32_t
keyOff(uint32_t i)
{
    return kOffKeys + 8 * i;
}

constexpr uint32_t
childOff(uint32_t i)
{
    return kOffChildren + 8 * i;
}

/** Mutating B-tree walker bound to one logical operation. */
struct BtOps
{
    PmemRuntime &rt;
    PoolSet &pools;
    TxScope &tx;
    NodeLogger &log;

    ObjectID
    allocNode(int64_t key, bool leaf)
    {
        const ObjectID n = tx.pmalloc(pools.poolForNew(key), kNodeSize);
        tx.addRange(n, kNodeSize);
        ObjectRef r = rt.deref(n);
        rt.write<uint64_t>(r, kOffN, 0);
        rt.write<uint64_t>(r, kOffLeaf, leaf ? 1 : 0);
        return n;
    }

    /** Split the full child at index @p ci of @p parent. */
    void
    splitChild(ObjectID parent, uint32_t ci, int64_t opkey)
    {
        ObjectRef pr = rt.deref(parent);
        const ObjectID child(rt.read<uint64_t>(pr, childOff(ci)));
        ObjectRef cr = rt.deref(child);
        const bool leaf = rt.read<uint64_t>(cr, kOffLeaf) != 0;

        const ObjectID sib = allocNode(opkey, leaf);
        ObjectRef sr = rt.deref(sib);
        log.log(child, kNodeSize);
        log.log(parent, kNodeSize);

        // Keys 4..5 move to the sibling; key 3 moves up.
        for (uint32_t i = 0; i < 2; ++i) {
            const int64_t k = rt.read<int64_t>(cr, keyOff(4 + i));
            rt.write<int64_t>(sr, keyOff(i), k);
        }
        if (!leaf) {
            for (uint32_t i = 0; i < 3; ++i) {
                const uint64_t c = rt.read<uint64_t>(cr, childOff(4 + i));
                rt.write<uint64_t>(sr, childOff(i), c);
            }
        }
        rt.write<uint64_t>(sr, kOffN, 2);
        const int64_t median = rt.read<int64_t>(cr, keyOff(3));
        rt.write<uint64_t>(cr, kOffN, 3);

        // Shift the parent's keys/children right of ci.
        const uint32_t pn =
            static_cast<uint32_t>(rt.read<uint64_t>(pr, kOffN));
        for (uint32_t i = pn; i > ci; --i) {
            const int64_t k = rt.read<int64_t>(pr, keyOff(i - 1));
            rt.write<int64_t>(pr, keyOff(i), k);
        }
        for (uint32_t i = pn + 1; i > ci + 1; --i) {
            const uint64_t c = rt.read<uint64_t>(pr, childOff(i - 1));
            rt.write<uint64_t>(pr, childOff(i), c);
        }
        rt.write<int64_t>(pr, keyOff(ci), median);
        rt.write<uint64_t>(pr, childOff(ci + 1), sib.raw);
        rt.write<uint64_t>(pr, kOffN, pn + 1);
        rt.compute(kUpdateCost);
    }

    void
    insertNonFull(ObjectID node, int64_t key)
    {
        while (true) {
            ObjectRef r = rt.deref(node);
            const uint32_t n =
                static_cast<uint32_t>(rt.read<uint64_t>(r, kOffN));
            const bool leaf = rt.read<uint64_t>(r, kOffLeaf) != 0;
            rt.compute(kVisitCost);

            if (leaf) {
                log.log(node, kNodeSize);
                uint32_t i = n;
                while (i > 0) {
                    const int64_t k = rt.read<int64_t>(r, keyOff(i - 1));
                    rt.branchEvent(k > key, kPcUpdate);
                    if (k <= key)
                        break;
                    rt.write<int64_t>(r, keyOff(i), k);
                    --i;
                }
                rt.write<int64_t>(r, keyOff(i), key);
                rt.write<uint64_t>(r, kOffN, n + 1);
                return;
            }

            // Find the child to descend into.
            uint32_t ci = 0;
            while (ci < n) {
                const int64_t k = rt.read<int64_t>(r, keyOff(ci));
                rt.branchEvent(key > k, kPcSearch);
                if (key <= k)
                    break;
                ++ci;
            }
            ObjectID child(rt.read<uint64_t>(r, childOff(ci)));
            const uint32_t cn = static_cast<uint32_t>(
                rt.read<uint64_t>(rt.deref(child), kOffN));
            if (cn == kMaxKeys) {
                splitChild(node, ci, key);
                r = rt.deref(node);
                const int64_t up = rt.read<int64_t>(r, keyOff(ci));
                if (key > up)
                    ++ci;
                child = ObjectID(rt.read<uint64_t>(r, childOff(ci)));
            }
            node = child;
        }
    }
};

/**
 * One BT operation: search for @p key; on a miss, insert it in one
 * transaction when @p transactions is set, splitting full nodes on the
 * way down. A hit is read-only. The benchmark and the crash driver both
 * run it. @return true on a hit.
 */
bool
insertIfMissing(PmemRuntime &rt, ObjectID anchor, PoolSet &pools, int64_t key,
                bool transactions)
{
    // ---- search -------------------------------------------------
    ObjectID cur(rt.read<uint64_t>(rt.deref(anchor), 0));
    uint64_t chase = rt.lastLoadTag();
    bool found = false;
    while (!cur.isNull() && !found) {
        rt.compute(kVisitCost);
        ObjectRef r = rt.deref(cur, chase);
        const uint32_t n = static_cast<uint32_t>(rt.read<uint64_t>(r, kOffN));
        const bool leaf = rt.read<uint64_t>(r, kOffLeaf) != 0;
        uint32_t i = 0;
        while (i < n) {
            const int64_t k = rt.read<int64_t>(r, keyOff(i));
            if (k == key) {
                found = true;
                rt.branchEvent(true, kPcFound);
                break;
            }
            rt.branchEvent(key > k, kPcSearch);
            if (key < k)
                break;
            ++i;
        }
        if (found)
            break;
        if (leaf)
            break;
        cur = ObjectID(rt.read<uint64_t>(r, childOff(i)));
        chase = rt.lastLoadTag();
    }

    if (found)
        return true;

    // ---- insert ---------------------------------------------------
    rt.setOp("insert");
    TxScope tx(rt, transactions);
    NodeLogger log(tx);
    BtOps bt{rt, pools, tx, log};

    ObjectID root(rt.read<uint64_t>(rt.deref(anchor), 0));
    if (root.isNull()) {
        const ObjectID n = bt.allocNode(key, true);
        ObjectRef r = rt.deref(n);
        rt.write<int64_t>(r, keyOff(0), key);
        rt.write<uint64_t>(r, kOffN, 1);
        tx.addRange(anchor, 8);
        rt.write<uint64_t>(rt.deref(anchor), 0, n.raw);
    } else {
        const uint32_t rn = static_cast<uint32_t>(
            rt.read<uint64_t>(rt.deref(root), kOffN));
        if (rn == kMaxKeys) {
            const ObjectID nr = bt.allocNode(key, false);
            rt.write<uint64_t>(rt.deref(nr), childOff(0), root.raw);
            bt.splitChild(nr, 0, key);
            tx.addRange(anchor, 8);
            rt.write<uint64_t>(rt.deref(anchor), 0, nr.raw);
            root = nr;
        }
        bt.insertNonFull(root, key);
    }
    return false;
}

} // namespace

BtreeWorkload::BtreeWorkload(const WorkloadConfig &cfg) : cfg_(cfg) {}

WorkloadResult
BtreeWorkload::run(PmemRuntime &rt)
{
    Rng rng(cfg_.seed);
    PoolSet pools(rt, cfg_.pattern, "bt");
    const ObjectID anchor = rt.poolRoot(pools.homePool(), 16);

    WorkloadResult res;
    const uint64_t ops = 5000ull * cfg_.scale_pct / 100;
    const uint64_t key_range = ops;

    for (uint64_t op = 0; op < ops; ++op) {
        const int64_t key = static_cast<int64_t>(rng.below(key_range));
        ++res.operations;
        if (insertIfMissing(rt, anchor, pools, key, cfg_.transactions)) {
            ++res.found;
            res.checksum += static_cast<uint64_t>(key) * 31 + 1;
        } else {
            res.checksum += static_cast<uint64_t>(key) * 7 + 3;
        }
    }

    // Fold an in-order walk into the checksum; validates ordering.
    // Depth is O(log n): recursion is safe.
    int64_t prev = INT64_MIN;
    auto emit = [&](int64_t k) {
        POAT_ASSERT(k > prev, "B-tree ordering violated");
        prev = k;
        res.checksum = res.checksum * 131 + static_cast<uint64_t>(k);
    };
    std::function<void(ObjectID)> walk = [&](ObjectID node) {
        ObjectRef r = rt.deref(node);
        const uint32_t n =
            static_cast<uint32_t>(rt.read<uint64_t>(r, kOffN));
        const bool leaf = rt.read<uint64_t>(r, kOffLeaf) != 0;
        if (leaf) {
            for (uint32_t i = 0; i < n; ++i)
                emit(rt.read<int64_t>(r, keyOff(i)));
            return;
        }
        for (uint32_t i = 0; i < n; ++i) {
            walk(ObjectID(rt.read<uint64_t>(r, childOff(i))));
            // Re-dereference: the recursive walk moved the handle's
            // translation state along (BASE-mode predictor realism).
            r = rt.deref(node);
            emit(rt.read<int64_t>(r, keyOff(i)));
        }
        walk(ObjectID(rt.read<uint64_t>(r, childOff(n))));
    };
    const ObjectID root(rt.read<uint64_t>(rt.deref(anchor), 0));
    if (!root.isNull())
        walk(root);
    return res;
}

namespace {

/** BT stepped for crash-point exploration (see crash_support.h). */
class BtreeCrashDriver final : public CrashDriver
{
  public:
    BtreeCrashDriver(uint64_t steps, uint64_t seed)
        : steps_(steps), seed_(seed), rng_(seed)
    {}

    const char *name() const override { return "BT"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        pools_.emplace(rt, PoolPattern::All, "btc", kCrashPoolBytes);
        anchor_ = rt.poolRoot(pools_->homePool(), 16);
    }

    void
    step(PmemRuntime &rt, uint64_t) override
    {
        const int64_t key =
            static_cast<int64_t>(rng_.below(std::max<uint64_t>(steps_, 1)));
        insertIfMissing(rt, anchor_, *pools_, key, true);
    }

    bool
    verifyRecovered(PmemRuntime &rt, uint64_t lo, uint64_t hi,
                    std::string *why) override
    {
        std::vector<int64_t> got;
        std::string reason;
        uint64_t visited = 0;
        std::function<bool(ObjectID)> walk = [&](ObjectID node) -> bool {
            if (!oidPlausible(rt, node, kNodeSize)) {
                reason = "dangling tree link";
                return false;
            }
            if (++visited > steps_ + 1) {
                reason = "tree larger than the operation count (cycle?)";
                return false;
            }
            ObjectRef r = rt.deref(node);
            const uint64_t n = rt.read<uint64_t>(r, kOffN);
            const uint64_t leaf = rt.read<uint64_t>(r, kOffLeaf);
            if (n > kMaxKeys || leaf > 1) {
                reason = "node header out of range";
                return false;
            }
            for (uint32_t i = 0; i <= n; ++i) {
                if (leaf == 0) {
                    const ObjectID c(rt.read<uint64_t>(
                        rt.deref(node), childOff(i)));
                    if (!walk(c))
                        return false;
                }
                if (i == n)
                    break;
                const int64_t k =
                    rt.read<int64_t>(rt.deref(node), keyOff(i));
                if (!got.empty() && k <= got.back()) {
                    reason = "B-tree ordering violated";
                    return false;
                }
                got.push_back(k);
            }
            return true;
        };
        const ObjectID root(rt.read<uint64_t>(rt.deref(anchor_), 0));
        if (!root.isNull() && !walk(root)) {
            if (why)
                *why = reason;
            return false;
        }
        for (uint64_t c = std::min(lo, steps_);
             c <= std::min(hi, steps_); ++c) {
            if (got == model(c))
                return true;
        }
        if (why) {
            *why = "key sequence of " + std::to_string(got.size()) +
                " keys matches no model state in steps [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]";
        }
        return false;
    }

    bool
    reachable(PmemRuntime &rt,
              std::map<uint32_t, std::set<uint32_t>> *out) override
    {
        (*out)[anchor_.poolId()].insert(anchor_.offset());
        std::vector<ObjectID> stack;
        const ObjectID root(rt.read<uint64_t>(rt.deref(anchor_), 0));
        if (!root.isNull())
            stack.push_back(root);
        uint64_t guard = 0;
        while (!stack.empty() && ++guard <= steps_ + 1) {
            const ObjectID node = stack.back();
            stack.pop_back();
            (*out)[node.poolId()].insert(node.offset());
            ObjectRef r = rt.deref(node);
            const uint64_t n = rt.read<uint64_t>(r, kOffN);
            if (rt.read<uint64_t>(r, kOffLeaf) != 0 || n > kMaxKeys)
                continue;
            for (uint32_t i = 0; i <= n; ++i) {
                const ObjectID c(rt.read<uint64_t>(r, childOff(i)));
                if (!c.isNull())
                    stack.push_back(c);
            }
        }
        return true;
    }

  private:
    /** Volatile replay: sorted inserted keys after @p c operations. */
    std::vector<int64_t>
    model(uint64_t c) const
    {
        Rng rng(seed_);
        std::set<int64_t> keys;
        for (uint64_t i = 0; i < c; ++i) {
            keys.insert(static_cast<int64_t>(
                rng.below(std::max<uint64_t>(steps_, 1))));
        }
        return std::vector<int64_t>(keys.begin(), keys.end());
    }

    uint64_t steps_;
    uint64_t seed_;
    Rng rng_;
    std::optional<PoolSet> pools_;
    ObjectID anchor_;
};

} // namespace

std::unique_ptr<CrashDriver>
makeBtreeCrashDriver(uint64_t steps, uint64_t seed)
{
    return std::make_unique<BtreeCrashDriver>(steps, seed);
}

} // namespace workloads
} // namespace poat
