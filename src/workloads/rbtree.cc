/**
 * @file
 * RBT microbenchmark (paper Table 5): search 3000 random integers in a
 * red-black tree; remove (with full rebalancing) on hit, insert (with
 * full rebalancing) on miss.
 *
 * Node layout (40 bytes):
 *   int64 key @0 | u64 color @8 | OID left @16 | OID right @24 |
 *   OID parent @32
 *
 * Field access here is NVML macro style (D_RO/D_RW): every field read
 * dereferences the ObjectID, which in the BASE system is one software
 * translation per access — the reason the paper's RBT shows the highest
 * translation counts of the tree benchmarks.
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

constexpr uint32_t kNodeSize = 40;
constexpr uint32_t kOffKey = 0;
constexpr uint32_t kOffColor = 8;
constexpr uint32_t kOffLeft = 16;
constexpr uint32_t kOffRight = 24;
constexpr uint32_t kOffParent = 32;

constexpr uint64_t kBlack = 0;
constexpr uint64_t kRed = 1;

/** Red-black operations bound to one logical update. */
struct Rb
{
    PmemRuntime &rt;
    TxScope &tx;
    NodeLogger &log;
    ObjectID anchor; ///< 8-byte slot holding the root's raw oid

    // ---- field accessors (one deref per access, D_RO style) --------
    int64_t
    key(ObjectID o)
    {
        return rt.read<int64_t>(rt.deref(o), kOffKey);
    }

    uint64_t
    color(ObjectID o)
    {
        // Null nodes are black (classic nil convention).
        return o.isNull() ? kBlack
                          : rt.read<uint64_t>(rt.deref(o), kOffColor);
    }

    ObjectID
    left(ObjectID o)
    {
        return ObjectID(rt.read<uint64_t>(rt.deref(o), kOffLeft));
    }

    ObjectID
    right(ObjectID o)
    {
        return ObjectID(rt.read<uint64_t>(rt.deref(o), kOffRight));
    }

    ObjectID
    parent(ObjectID o)
    {
        return ObjectID(rt.read<uint64_t>(rt.deref(o), kOffParent));
    }

    ObjectID
    root()
    {
        return ObjectID(rt.read<uint64_t>(rt.deref(anchor), 0));
    }

    // ---- mutators (log before first write of each node) ------------
    void
    set(ObjectID o, uint32_t off, uint64_t v)
    {
        log.log(o, kNodeSize);
        rt.write<uint64_t>(rt.deref(o), off, v);
    }

    void setColor(ObjectID o, uint64_t c) { set(o, kOffColor, c); }
    void setLeft(ObjectID o, ObjectID v) { set(o, kOffLeft, v.raw); }
    void setRight(ObjectID o, ObjectID v) { set(o, kOffRight, v.raw); }

    void
    setParent(ObjectID o, ObjectID v)
    {
        set(o, kOffParent, v.raw);
    }

    void
    setRoot(ObjectID v)
    {
        tx.addRange(anchor, 8);
        rt.write<uint64_t>(rt.deref(anchor), 0, v.raw);
    }

    // ---- rotations ---------------------------------------------------
    void
    rotateLeft(ObjectID x)
    {
        rt.compute(kUpdateCost);
        const ObjectID y = right(x);
        const ObjectID yl = left(y);
        setRight(x, yl);
        if (!yl.isNull())
            setParent(yl, x);
        const ObjectID xp = parent(x);
        setParent(y, xp);
        if (xp.isNull())
            setRoot(y);
        else if (left(xp) == x)
            setLeft(xp, y);
        else
            setRight(xp, y);
        setLeft(y, x);
        setParent(x, y);
    }

    void
    rotateRight(ObjectID x)
    {
        rt.compute(kUpdateCost);
        const ObjectID y = left(x);
        const ObjectID yr = right(y);
        setLeft(x, yr);
        if (!yr.isNull())
            setParent(yr, x);
        const ObjectID xp = parent(x);
        setParent(y, xp);
        if (xp.isNull())
            setRoot(y);
        else if (right(xp) == x)
            setRight(xp, y);
        else
            setLeft(xp, y);
        setRight(y, x);
        setParent(x, y);
    }

    // ---- insert -------------------------------------------------------
    void
    insertFixup(ObjectID z)
    {
        while (true) {
            const ObjectID zp = parent(z);
            if (zp.isNull() || color(zp) == kBlack)
                break;
            const ObjectID zpp = parent(zp); // exists: zp is red
            const bool zp_is_left = (left(zpp) == zp);
            const ObjectID uncle = zp_is_left ? right(zpp) : left(zpp);
            rt.branchEvent(color(uncle) == kRed, kPcUpdate);
            if (color(uncle) == kRed) {
                setColor(zp, kBlack);
                setColor(uncle, kBlack);
                setColor(zpp, kRed);
                z = zpp;
                continue;
            }
            if (zp_is_left) {
                if (z == right(zp)) {
                    z = zp;
                    rotateLeft(z);
                }
                setColor(parent(z), kBlack);
                setColor(parent(parent(z)), kRed);
                rotateRight(parent(parent(z)));
            } else {
                if (z == left(zp)) {
                    z = zp;
                    rotateRight(z);
                }
                setColor(parent(z), kBlack);
                setColor(parent(parent(z)), kRed);
                rotateLeft(parent(parent(z)));
            }
        }
        setColor(root(), kBlack);
    }

    // ---- delete -------------------------------------------------------
    void
    transplant(ObjectID u, ObjectID v)
    {
        const ObjectID up = parent(u);
        if (up.isNull())
            setRoot(v);
        else if (left(up) == u)
            setLeft(up, v);
        else
            setRight(up, v);
        if (!v.isNull())
            setParent(v, up);
    }

    ObjectID
    minimum(ObjectID x)
    {
        while (true) {
            const ObjectID l = left(x);
            rt.branchEvent(!l.isNull(), kPcSearch, rt.lastLoadTag());
            if (l.isNull())
                return x;
            x = l;
        }
    }

    void
    deleteFixup(ObjectID x, ObjectID xp)
    {
        while (!xp.isNull() && color(x) == kBlack) {
            if (x == left(xp)) {
                ObjectID w = right(xp);
                if (color(w) == kRed) {
                    setColor(w, kBlack);
                    setColor(xp, kRed);
                    rotateLeft(xp);
                    w = right(xp);
                }
                if (color(left(w)) == kBlack &&
                    color(right(w)) == kBlack) {
                    setColor(w, kRed);
                    x = xp;
                    xp = parent(x);
                } else {
                    if (color(right(w)) == kBlack) {
                        setColor(left(w), kBlack);
                        setColor(w, kRed);
                        rotateRight(w);
                        w = right(xp);
                    }
                    setColor(w, color(xp));
                    setColor(xp, kBlack);
                    setColor(right(w), kBlack);
                    rotateLeft(xp);
                    x = root();
                    xp = OID_NULL;
                }
            } else {
                ObjectID w = left(xp);
                if (color(w) == kRed) {
                    setColor(w, kBlack);
                    setColor(xp, kRed);
                    rotateRight(xp);
                    w = left(xp);
                }
                if (color(right(w)) == kBlack &&
                    color(left(w)) == kBlack) {
                    setColor(w, kRed);
                    x = xp;
                    xp = parent(x);
                } else {
                    if (color(left(w)) == kBlack) {
                        setColor(right(w), kBlack);
                        setColor(w, kRed);
                        rotateLeft(w);
                        w = left(xp);
                    }
                    setColor(w, color(xp));
                    setColor(xp, kBlack);
                    setColor(left(w), kBlack);
                    rotateRight(xp);
                    x = root();
                    xp = OID_NULL;
                }
            }
        }
        if (!x.isNull())
            setColor(x, kBlack);
    }

    void
    erase(ObjectID z)
    {
        ObjectID y = z;
        uint64_t y_color = color(y);
        ObjectID x, xp;
        if (left(z).isNull()) {
            x = right(z);
            xp = parent(z);
            transplant(z, x);
        } else if (right(z).isNull()) {
            x = left(z);
            xp = parent(z);
            transplant(z, x);
        } else {
            y = minimum(right(z));
            y_color = color(y);
            x = right(y);
            if (parent(y) == z) {
                xp = y;
            } else {
                xp = parent(y);
                transplant(y, x);
                setRight(y, right(z));
                setParent(right(y), y);
            }
            transplant(z, y);
            setLeft(y, left(z));
            setParent(left(y), y);
            setColor(y, color(z));
        }
        tx.pfree(z);
        if (y_color == kBlack)
            deleteFixup(x, xp);
    }
};

/**
 * One RBT operation: search for @p key; remove its node on a hit,
 * insert a new red leaf on a miss, rebalancing either way, in one
 * transaction when @p transactions is set. The benchmark and the crash
 * driver both run it. @return true on a hit.
 */
bool
removeOrInsert(PmemRuntime &rt, ObjectID anchor, PoolSet &pools, int64_t key,
               bool transactions)
{
    // ---- search ------------------------------------------------
    ObjectID cur(rt.read<uint64_t>(rt.deref(anchor), 0));
    uint64_t chase = rt.lastLoadTag();
    ObjectID parent = OID_NULL;
    bool went_right = false;
    bool found = false;
    while (!cur.isNull()) {
        rt.compute(kVisitCost);
        ObjectRef r = rt.deref(cur, chase);
        const int64_t k = rt.read<int64_t>(r, kOffKey);
        found = (k == key);
        rt.branchEvent(found, kPcFound, rt.lastLoadTag());
        if (found)
            break;
        went_right = key > k;
        rt.branchEvent(went_right, kPcSearch);
        const uint64_t next =
            rt.read<uint64_t>(r, went_right ? kOffRight : kOffLeft);
        chase = rt.lastLoadTag();
        parent = cur;
        cur = ObjectID(next);
    }

    rt.setOp(found ? "remove" : "insert");
    TxScope tx(rt, transactions);
    NodeLogger log(tx);
    Rb rb{rt, tx, log, anchor};

    if (found) {
        rb.erase(cur);
    } else {
        const ObjectID n = tx.pmalloc(pools.poolForNew(key), kNodeSize);
        tx.addRange(n, kNodeSize);
        ObjectRef nr = rt.deref(n);
        rt.write<int64_t>(nr, kOffKey, key);
        rt.write<uint64_t>(nr, kOffColor, kRed);
        rt.write<uint64_t>(nr, kOffLeft, 0);
        rt.write<uint64_t>(nr, kOffRight, 0);
        rt.write<uint64_t>(nr, kOffParent, parent.raw);
        if (parent.isNull()) {
            rb.setRoot(n);
        } else if (went_right) {
            rb.setRight(parent, n);
        } else {
            rb.setLeft(parent, n);
        }
        rb.insertFixup(n);
    }
    rt.compute(kUpdateCost);
    return found;
}

} // namespace

RbtWorkload::RbtWorkload(const WorkloadConfig &cfg) : cfg_(cfg) {}

WorkloadResult
RbtWorkload::run(PmemRuntime &rt)
{
    Rng rng(cfg_.seed);
    PoolSet pools(rt, cfg_.pattern, "rbt");
    const ObjectID anchor = rt.poolRoot(pools.homePool(), 16);

    WorkloadResult res;
    const uint64_t ops = 3000ull * cfg_.scale_pct / 100;
    const uint64_t key_range = ops;

    for (uint64_t op = 0; op < ops; ++op) {
        const int64_t key = static_cast<int64_t>(rng.below(key_range));
        ++res.operations;
        if (removeOrInsert(rt, anchor, pools, key, cfg_.transactions)) {
            ++res.found;
            res.checksum += static_cast<uint64_t>(key) * 31 + 1;
        } else {
            res.checksum += static_cast<uint64_t>(key) * 7 + 3;
        }
    }

    // ---- final validation + checksum -------------------------------
    // In-order recursion also checks the red-black invariants: sorted
    // keys, no red node with a red child, equal black heights.
    NullTraceSink quiet; // validation is not part of the timed run
    TraceSink &saved = rt.sink();
    rt.setSink(&quiet);
    std::function<int(ObjectID, int64_t, int64_t)> check =
        [&](ObjectID node, int64_t lo, int64_t hi) -> int {
        if (node.isNull())
            return 1; // nil is black
        ObjectRef r = rt.deref(node);
        const int64_t k = rt.read<int64_t>(r, kOffKey);
        POAT_ASSERT(k > lo && k < hi, "RBT ordering violated");
        const uint64_t c = rt.read<uint64_t>(r, kOffColor);
        const ObjectID l(rt.read<uint64_t>(r, kOffLeft));
        const ObjectID rr(rt.read<uint64_t>(r, kOffRight));
        if (c == kRed) {
            const bool red_child =
                (!l.isNull() &&
                 rt.read<uint64_t>(rt.deref(l), kOffColor) == kRed) ||
                (!rr.isNull() &&
                 rt.read<uint64_t>(rt.deref(rr), kOffColor) == kRed);
            POAT_ASSERT(!red_child, "RBT red-red violation");
        }
        const int bl = check(l, lo, k);
        res.checksum = res.checksum * 131 + static_cast<uint64_t>(k);
        const int br = check(rr, k, hi);
        POAT_ASSERT(bl == br, "RBT black-height violation");
        return bl + (c == kBlack ? 1 : 0);
    };
    const ObjectID troot(rt.read<uint64_t>(rt.deref(anchor), 0));
    if (!troot.isNull()) {
        POAT_ASSERT(rt.read<uint64_t>(rt.deref(troot), kOffColor) ==
                        kBlack,
                    "RBT root must be black");
        check(troot, INT64_MIN, INT64_MAX);
    }
    rt.setSink(&saved);
    return res;
}

namespace {

/** RBT stepped for crash-point exploration (see crash_support.h). */
class RbtCrashDriver final : public CrashDriver
{
  public:
    RbtCrashDriver(uint64_t steps, uint64_t seed)
        : steps_(steps), seed_(seed), rng_(seed)
    {}

    const char *name() const override { return "RBT"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        pools_.emplace(rt, PoolPattern::All, "rbtc", kCrashPoolBytes);
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
        // Structural pass: sorted keys, red-red, equal black heights —
        // reported as failures instead of fatal asserts, because the
        // recovered image under inspection may be arbitrary garbage.
        std::vector<int64_t> got;
        std::string reason;
        uint64_t visited = 0;
        std::function<int(ObjectID, int64_t, int64_t)> check =
            [&](ObjectID node, int64_t klo, int64_t khi) -> int {
            if (node.isNull())
                return 1; // nil is black
            if (!reason.empty())
                return -1;
            if (!oidPlausible(rt, node, kNodeSize)) {
                reason = "dangling tree link";
                return -1;
            }
            if (++visited > steps_ + 1) {
                reason = "tree larger than the operation count (cycle?)";
                return -1;
            }
            ObjectRef r = rt.deref(node);
            const int64_t k = rt.read<int64_t>(r, kOffKey);
            if (k <= klo || k >= khi) {
                reason = "RBT ordering violated";
                return -1;
            }
            const uint64_t c = rt.read<uint64_t>(r, kOffColor);
            const ObjectID l(rt.read<uint64_t>(r, kOffLeft));
            const ObjectID rr(rt.read<uint64_t>(r, kOffRight));
            if (c == kRed) {
                const bool red_child =
                    (!l.isNull() && oidPlausible(rt, l, kNodeSize) &&
                     rt.read<uint64_t>(rt.deref(l), kOffColor) == kRed) ||
                    (!rr.isNull() && oidPlausible(rt, rr, kNodeSize) &&
                     rt.read<uint64_t>(rt.deref(rr), kOffColor) == kRed);
                if (red_child) {
                    reason = "RBT red-red violation";
                    return -1;
                }
            }
            const int bl = check(l, klo, k);
            if (bl < 0)
                return -1;
            got.push_back(k);
            const int br = check(rr, k, khi);
            if (br < 0)
                return -1;
            if (bl != br) {
                reason = "RBT black-height violation";
                return -1;
            }
            return bl + (c == kBlack ? 1 : 0);
        };
        const ObjectID troot(rt.read<uint64_t>(rt.deref(anchor_), 0));
        if (!troot.isNull()) {
            if (!oidPlausible(rt, troot, kNodeSize)) {
                if (why)
                    *why = "dangling root link";
                return false;
            }
            if (rt.read<uint64_t>(rt.deref(troot), kOffColor) != kBlack) {
                if (why)
                    *why = "RBT root is not black";
                return false;
            }
            if (check(troot, INT64_MIN, INT64_MAX) < 0) {
                if (why)
                    *why = reason;
                return false;
            }
        }
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
            const ObjectID l(rt.read<uint64_t>(r, kOffLeft));
            const ObjectID rr(rt.read<uint64_t>(r, kOffRight));
            if (!l.isNull())
                stack.push_back(l);
            if (!rr.isNull())
                stack.push_back(rr);
        }
        return true;
    }

  private:
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
makeRbtCrashDriver(uint64_t steps, uint64_t seed)
{
    return std::make_unique<RbtCrashDriver>(steps, seed);
}

} // namespace workloads
} // namespace poat
