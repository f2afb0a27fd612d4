/**
 * @file
 * BST microbenchmark (paper Table 5): search 5000 random integers in a
 * binary search tree; on hit remove the node, replacing it with the
 * maximum-key node of its left subtree (as the paper specifies); on
 * miss insert a new node.
 *
 * Node layout: { int64 key @0, OID left @8, OID right @16 } — 24 bytes.
 */
#include "workloads/workloads.h"

#include <algorithm>
#include <optional>
#include <set>

#include "workloads/crash_support.h"

namespace poat {
namespace workloads {

namespace {

constexpr uint32_t kNodeSize = 24;
constexpr uint32_t kOffKey = 0;
constexpr uint32_t kOffLeft = 8;
constexpr uint32_t kOffRight = 16;

/** Offset of the child link on side @p right. */
constexpr uint32_t
childOff(bool right)
{
    return right ? kOffRight : kOffLeft;
}

/**
 * One BST operation: search for @p key, tracking the parent link;
 * remove its node paper-style on a hit (the maximum of the left
 * subtree replaces it), insert a new leaf on a miss, in one transaction
 * when @p transactions is set. The benchmark and the crash driver both
 * run it. @return true on a hit.
 */
bool
removeOrInsert(PmemRuntime &rt, ObjectID anchor, PoolSet &pools, int64_t key,
               bool transactions)
{
    // Writes a child link (or the anchor when parent is null).
    auto set_link = [&](TxScope &tx, ObjectID parent, bool right,
                        uint64_t value) {
        if (parent.isNull()) {
            tx.addRange(anchor, 8);
            rt.write<uint64_t>(rt.deref(anchor), 0, value);
        } else {
            tx.addRange(parent.plus(childOff(right)), 8);
            rt.write<uint64_t>(rt.deref(parent), childOff(right), value);
        }
    };

    // ---- search, tracking the parent link --------------------
    ObjectID parent = OID_NULL;
    bool parent_right = false;
    ObjectID cur(rt.read<uint64_t>(rt.deref(anchor), 0));
    uint64_t chase = rt.lastLoadTag();
    bool found = false;
    while (!cur.isNull()) {
        rt.compute(kVisitCost);
        ObjectRef c = rt.deref(cur, chase);
        const int64_t k = rt.read<int64_t>(c, kOffKey);
        found = (k == key);
        rt.branchEvent(found, kPcFound, rt.lastLoadTag());
        if (found)
            break;
        const bool right = key > k;
        rt.branchEvent(right, kPcSearch);
        const uint64_t next = rt.read<uint64_t>(c, childOff(right));
        chase = rt.lastLoadTag();
        parent = cur;
        parent_right = right;
        cur = ObjectID(next);
    }

    rt.setOp(found ? "remove" : "insert");
    TxScope tx(rt, transactions);
    if (!found) {
        // ---- insert as the child we fell off of ---------------
        const ObjectID n = tx.pmalloc(pools.poolForNew(key), kNodeSize);
        tx.addRange(n, kNodeSize);
        ObjectRef nr = rt.deref(n);
        rt.write<int64_t>(nr, kOffKey, key);
        rt.write<uint64_t>(nr, kOffLeft, 0);
        rt.write<uint64_t>(nr, kOffRight, 0);
        set_link(tx, parent, parent_right, n.raw);
        rt.compute(kUpdateCost);
        return false;
    }

    // ---- remove cur, paper-style ---------------------------------
    ObjectRef c = rt.deref(cur);
    const ObjectID left(rt.read<uint64_t>(c, kOffLeft));
    const ObjectID right(rt.read<uint64_t>(c, kOffRight));

    if (left.isNull()) {
        // No left subtree: splice in the right child.
        set_link(tx, parent, parent_right, right.raw);
    } else {
        // Find the maximum node of the left subtree and its parent.
        ObjectID mparent = cur;
        bool mp_right = false;
        ObjectID m = left;
        while (true) {
            rt.compute(kVisitCost);
            const uint64_t r = rt.read<uint64_t>(rt.deref(m), kOffRight);
            rt.branchEvent(r != 0, kPcSearch, rt.lastLoadTag());
            if (r == 0)
                break;
            mparent = m;
            mp_right = true;
            m = ObjectID(r);
        }
        // Detach m (it has no right child), splicing in its left.
        const uint64_t mleft = rt.read<uint64_t>(rt.deref(m), kOffLeft);
        if (mparent == cur) {
            // m was cur's direct left child.
            set_link(tx, mparent, false, mleft);
        } else {
            set_link(tx, mparent, mp_right, mleft);
        }
        // m replaces cur: adopt cur's children and parent link.
        NodeLogger log(tx);
        log.log(m, kNodeSize);
        ObjectRef mr = rt.deref(m);
        const uint64_t cur_left = rt.read<uint64_t>(rt.deref(cur), kOffLeft);
        const uint64_t cur_right =
            rt.read<uint64_t>(rt.deref(cur), kOffRight);
        rt.write<uint64_t>(mr, kOffLeft, cur_left == m.raw ? 0 : cur_left);
        rt.write<uint64_t>(mr, kOffRight, cur_right);
        set_link(tx, parent, parent_right, m.raw);
    }
    tx.pfree(cur);
    rt.compute(kUpdateCost);
    return true;
}

} // namespace

BstWorkload::BstWorkload(const WorkloadConfig &cfg) : cfg_(cfg) {}

WorkloadResult
BstWorkload::run(PmemRuntime &rt)
{
    Rng rng(cfg_.seed);
    PoolSet pools(rt, cfg_.pattern, "bst");
    // Root object: the tree root's ObjectID at offset 0.
    const ObjectID anchor = rt.poolRoot(pools.homePool(), 16);

    WorkloadResult res;
    const uint64_t ops = 5000ull * cfg_.scale_pct / 100;
    const uint64_t key_range = ops;

    for (uint64_t op = 0; op < ops; ++op) {
        const int64_t key = static_cast<int64_t>(rng.below(key_range));
        ++res.operations;
        if (removeOrInsert(rt, anchor, pools, key, cfg_.transactions)) {
            res.checksum += static_cast<uint64_t>(key) * 31 + 1;
            ++res.found;
        } else {
            res.checksum += static_cast<uint64_t>(key) * 7 + 3;
        }
    }

    // Fold an in-order traversal into the checksum (also validates the
    // BST ordering invariant cheaply: keys must ascend).
    struct Frame
    {
        ObjectID node;
        bool expanded;
    };
    std::vector<Frame> stack;
    const ObjectID troot(rt.read<uint64_t>(rt.deref(anchor), 0));
    if (!troot.isNull())
        stack.push_back({troot, false});
    int64_t prev_key = INT64_MIN;
    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        ObjectRef r = rt.deref(f.node);
        if (!f.expanded) {
            const ObjectID right(rt.read<uint64_t>(r, kOffRight));
            if (!right.isNull())
                stack.push_back({right, false});
            stack.push_back({f.node, true});
            const ObjectID left(rt.read<uint64_t>(r, kOffLeft));
            if (!left.isNull())
                stack.push_back({left, false});
        } else {
            const int64_t k = rt.read<int64_t>(r, kOffKey);
            POAT_ASSERT(k > prev_key, "BST ordering violated");
            prev_key = k;
            res.checksum = res.checksum * 131 + static_cast<uint64_t>(k);
        }
    }
    return res;
}

namespace {

/** BST stepped for crash-point exploration (see crash_support.h). */
class BstCrashDriver final : public CrashDriver
{
  public:
    BstCrashDriver(uint64_t steps, uint64_t seed)
        : steps_(steps), seed_(seed), rng_(seed)
    {}

    const char *name() const override { return "BST"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        pools_.emplace(rt, PoolPattern::All, "bstc", kCrashPoolBytes);
        anchor_ = rt.poolRoot(pools_->homePool(), 16);
    }

    void
    step(PmemRuntime &rt, uint64_t) override
    {
        const int64_t key =
            static_cast<int64_t>(rng_.below(std::max<uint64_t>(steps_, 1)));
        removeOrInsert(rt, anchor_, *pools_, key, true);
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
            *why = "in-order key sequence of " +
                std::to_string(got.size()) +
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
        const ObjectID troot(rt.read<uint64_t>(rt.deref(anchor_), 0));
        if (!troot.isNull())
            stack.push_back(troot);
        uint64_t guard = 0;
        while (!stack.empty() && ++guard <= steps_ + 1) {
            const ObjectID n = stack.back();
            stack.pop_back();
            (*out)[n.poolId()].insert(n.offset());
            ObjectRef r = rt.deref(n);
            const ObjectID left(rt.read<uint64_t>(r, kOffLeft));
            const ObjectID right(rt.read<uint64_t>(r, kOffRight));
            if (!left.isNull())
                stack.push_back(left);
            if (!right.isNull())
                stack.push_back(right);
        }
        return true;
    }

  private:
    /** In-order key collection with bounds and cycle guards. */
    bool
    walk(PmemRuntime &rt, std::vector<int64_t> *out, std::string *why)
    {
        struct Frame
        {
            ObjectID node;
            bool expanded;
        };
        std::vector<Frame> stack;
        const ObjectID troot(rt.read<uint64_t>(rt.deref(anchor_), 0));
        if (!troot.isNull())
            stack.push_back({troot, false});
        uint64_t visited = 0;
        while (!stack.empty()) {
            Frame f = stack.back();
            stack.pop_back();
            if (!oidPlausible(rt, f.node, kNodeSize)) {
                if (why)
                    *why = "dangling tree link";
                return false;
            }
            if (!f.expanded && ++visited > steps_ + 1) {
                if (why)
                    *why = "tree larger than the operation count (cycle?)";
                return false;
            }
            ObjectRef r = rt.deref(f.node);
            if (!f.expanded) {
                const ObjectID right(rt.read<uint64_t>(r, kOffRight));
                if (!right.isNull())
                    stack.push_back({right, false});
                stack.push_back({f.node, true});
                const ObjectID left(rt.read<uint64_t>(r, kOffLeft));
                if (!left.isNull())
                    stack.push_back({left, false});
            } else {
                const int64_t k = rt.read<int64_t>(r, kOffKey);
                if (!out->empty() && k <= out->back()) {
                    if (why)
                        *why = "BST ordering violated in recovered tree";
                    return false;
                }
                out->push_back(k);
            }
        }
        return true;
    }

    /** Volatile replay: sorted key set after @p c operations. */
    std::vector<int64_t>
    model(uint64_t c) const
    {
        Rng rng(seed_);
        std::set<int64_t> keys;
        for (uint64_t i = 0; i < c; ++i) {
            const int64_t key = static_cast<int64_t>(
                rng.below(std::max<uint64_t>(steps_, 1)));
            if (!keys.erase(key))
                keys.insert(key);
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
makeBstCrashDriver(uint64_t steps, uint64_t seed)
{
    return std::make_unique<BstCrashDriver>(steps, seed);
}

} // namespace workloads
} // namespace poat
