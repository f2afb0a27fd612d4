/**
 * @file
 * B+T microbenchmark (paper Table 5): search 5000 random integers in a
 * B+ tree of order 7; remove on hit, insert on miss — both rebalance.
 * This structure is derived from TPC-C's core B+ tree, as in the paper.
 */
#include "workloads/bplustree.h"
#include "workloads/workloads.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "workloads/crash_support.h"

namespace poat {
namespace workloads {

namespace {

/**
 * One B+T operation: look @p key up in @p tree; erase it on a hit,
 * insert it (with value key * 1000 + 7) on a miss, in one transaction
 * when @p transactions is set. The benchmark and the crash driver both
 * run it. @return true on a hit.
 */
bool
eraseOrInsert(PmemRuntime &rt, BPlusTree &tree, uint64_t key,
              bool transactions)
{
    const auto hit = tree.find(key);
    rt.branchEvent(hit.has_value(), kPcFound);
    rt.setOp(hit ? "erase" : "insert");
    TxScope tx(rt, transactions);
    if (hit) {
        const bool erased = tree.erase(tx, key);
        POAT_ASSERT(erased, "B+T erase of a found key failed");
    } else {
        const bool inserted = tree.insert(tx, key, key * 1000 + 7);
        POAT_ASSERT(inserted, "B+T insert of a missing key failed");
    }
    return hit.has_value();
}

} // namespace

BplusWorkload::BplusWorkload(const WorkloadConfig &cfg) : cfg_(cfg) {}

WorkloadResult
BplusWorkload::run(PmemRuntime &rt)
{
    Rng rng(cfg_.seed);
    PoolSet pools(rt, cfg_.pattern, "bpt");
    const ObjectID anchor = rt.poolRoot(pools.homePool(), 16);
    BPlusTree tree(rt, anchor,
                   [&pools](uint64_t key) { return pools.poolForNew(key); });

    WorkloadResult res;
    const uint64_t ops = 5000ull * cfg_.scale_pct / 100;
    const uint64_t key_range = ops;

    for (uint64_t op = 0; op < ops; ++op) {
        // Keys are offset by 1: key 0 is reserved as the scan floor.
        const uint64_t key = 1 + rng.below(key_range);
        ++res.operations;
        if (eraseOrInsert(rt, tree, key, cfg_.transactions)) {
            ++res.found;
            res.checksum += key * 31 + 1;
        } else {
            res.checksum += key * 7 + 3;
        }
    }

    POAT_ASSERT(tree.validate(), "B+ tree invariants violated");
    tree.scan(0, ~0ull, [&](uint64_t k, uint64_t v) {
        res.checksum = res.checksum * 131 + k + v;
        return true;
    });
    return res;
}

namespace {

// Node-layout offsets for the bounds-checked pre-walk below (the same
// layout bplustree.cc uses; see the header comment there).
constexpr uint32_t kBpOffN = 0;
constexpr uint32_t kBpOffLeaf = 8;
constexpr uint32_t kBpOffChildren = 64;
constexpr uint32_t kBpOffNext = 112;

/** B+T stepped for crash-point exploration (see crash_support.h). */
class BplusCrashDriver final : public CrashDriver
{
  public:
    BplusCrashDriver(uint64_t steps, uint64_t seed)
        : steps_(steps), seed_(seed), rng_(seed)
    {}

    const char *name() const override { return "B+T"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        pools_.emplace(rt, PoolPattern::All, "bptc", kCrashPoolBytes);
        anchor_ = rt.poolRoot(pools_->homePool(), 16);
    }

    void
    step(PmemRuntime &rt, uint64_t) override
    {
        const uint64_t key =
            1 + rng_.below(std::max<uint64_t>(steps_, 1));
        BPlusTree tree(rt, anchor_,
                       [this](uint64_t k) { return pools_->poolForNew(k); });
        eraseOrInsert(rt, tree, key, true);
    }

    bool
    verifyRecovered(PmemRuntime &rt, uint64_t lo, uint64_t hi,
                    std::string *why) override
    {
        // BPlusTree::validate()/scan() assume a well-formed tree and
        // would fatally deref a wild pointer, so first make a bounds-
        // checked structural pass over the recovered image.
        std::string reason;
        if (!preWalk(rt, &reason)) {
            if (why)
                *why = reason;
            return false;
        }
        BPlusTree tree(rt, anchor_, [this](uint64_t key) {
            return pools_->poolForNew(key);
        });
        if (!tree.validate()) {
            if (why)
                *why = "B+ tree invariants violated after recovery";
            return false;
        }
        std::vector<std::pair<uint64_t, uint64_t>> got;
        tree.scan(0, ~0ull, [&](uint64_t k, uint64_t v) {
            got.emplace_back(k, v);
            return true;
        });
        for (uint64_t c = std::min(lo, steps_);
             c <= std::min(hi, steps_); ++c) {
            const std::map<uint64_t, uint64_t> m = model(c);
            if (got.size() == m.size() &&
                std::equal(got.begin(), got.end(), m.begin(),
                           [](const auto &a, const auto &b) {
                               return a.first == b.first &&
                                   a.second == b.second;
                           }))
                return true;
        }
        if (why) {
            *why = "scan of " + std::to_string(got.size()) +
                " entries matches no model state in steps [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]";
        }
        return false;
    }

    bool
    reachable(PmemRuntime &rt,
              std::map<uint32_t, std::set<uint32_t>> *out) override
    {
        (*out)[anchor_.poolId()].insert(anchor_.offset());
        BPlusTree tree(rt, anchor_, [this](uint64_t key) {
            return pools_->poolForNew(key);
        });
        tree.forEachNode([&](ObjectID n) {
            (*out)[n.poolId()].insert(n.offset());
        });
        return true;
    }

  private:
    /**
     * Bounds-check every node reachable from the root (tree edges and
     * the leaf chain) so the full validators can run safely. Fails on
     * dangling links, out-of-range headers, shared/cyclic nodes, and a
     * leaf chain that disagrees with the tree's in-order leaf sequence.
     */
    bool
    preWalk(PmemRuntime &rt, std::string *reason)
    {
        const ObjectID root(rt.read<uint64_t>(rt.deref(anchor_), 0));
        if (root.isNull())
            return true;
        std::set<uint64_t> visited;
        std::vector<ObjectID> leaves; // in tree order
        std::function<bool(ObjectID)> walk = [&](ObjectID node) -> bool {
            if (!oidPlausible(rt, node, BPlusTree::kNodeSize)) {
                *reason = "dangling tree link";
                return false;
            }
            if (!visited.insert(node.raw).second) {
                *reason = "node reachable twice (cycle or aliasing)";
                return false;
            }
            if (visited.size() > steps_ + 1) {
                *reason = "tree larger than the operation count";
                return false;
            }
            ObjectRef r = rt.deref(node);
            const uint64_t n = rt.read<uint64_t>(r, kBpOffN);
            const uint64_t leaf = rt.read<uint64_t>(r, kBpOffLeaf);
            if (n > BPlusTree::kMaxKeys || leaf > 1) {
                *reason = "node header out of range";
                return false;
            }
            if (leaf != 0) {
                leaves.push_back(node);
                return true;
            }
            for (uint32_t i = 0; i <= n; ++i) {
                const ObjectID c(rt.read<uint64_t>(
                    rt.deref(node), kBpOffChildren + 8 * i));
                if (!walk(c))
                    return false;
            }
            return true;
        };
        if (!walk(root))
            return false;
        // The leaf chain must link exactly the in-order leaves.
        for (size_t i = 0; i < leaves.size(); ++i) {
            const ObjectID next(rt.read<uint64_t>(
                rt.deref(leaves[i]), kBpOffNext));
            const ObjectID expect =
                i + 1 < leaves.size() ? leaves[i + 1] : OID_NULL;
            if (next != expect) {
                *reason = "leaf chain disagrees with the tree order";
                return false;
            }
        }
        return true;
    }

    /** Volatile replay: key -> value map after @p c operations. */
    std::map<uint64_t, uint64_t>
    model(uint64_t c) const
    {
        Rng rng(seed_);
        std::map<uint64_t, uint64_t> m;
        for (uint64_t i = 0; i < c; ++i) {
            const uint64_t key =
                1 + rng.below(std::max<uint64_t>(steps_, 1));
            if (!m.erase(key))
                m.emplace(key, key * 1000 + 7);
        }
        return m;
    }

    uint64_t steps_;
    uint64_t seed_;
    Rng rng_;
    std::optional<PoolSet> pools_;
    ObjectID anchor_;
};

} // namespace

std::unique_ptr<CrashDriver>
makeBplusCrashDriver(uint64_t steps, uint64_t seed)
{
    return std::make_unique<BplusCrashDriver>(steps, seed);
}

} // namespace workloads
} // namespace poat
