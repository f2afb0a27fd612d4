/**
 * @file
 * SPS microbenchmark (paper Table 5): randomly swap pairs of strings in
 * a 32 KB persistent string array, 10000 times.
 *
 * The array is 512 strings of 64 bytes. An index table of ObjectIDs
 * lives in the root object of the home pool; the strings themselves are
 * placed per the pool pattern (so EACH gives every string its own pool,
 * and a swap touches three pools: index, string A, string B — which is
 * why the paper measures a 99.9% most-recent-predictor miss rate).
 */
#include "workloads/workloads.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <optional>

#include "workloads/crash_support.h"

namespace poat {
namespace workloads {

namespace {

constexpr uint32_t kStringBytes = 64;
constexpr uint32_t kStrings = 512; // 512 * 64 B = 32 KB

// The crash driver uses a smaller array: every crash trial runs setup()
// again (steps are applied from one recording), so setup cost is
// multiplied by the trial count.
constexpr uint32_t kCrashStrings = 64;

/** The initial contents of string @p i. */
void
initialString(uint32_t i, uint8_t buf[kStringBytes])
{
    for (uint32_t b = 0; b < kStringBytes; ++b)
        buf[b] = static_cast<uint8_t>('a' + (i + b) % 26);
}

/**
 * Fill the @p n-slot index table @p index with freshly allocated
 * strings in their initial contents, persisting each string and then
 * the table when @p persist is set. Non-transactional: the benchmark's
 * and the crash driver's setup phase.
 */
void
buildStrings(PmemRuntime &rt, PoolSet &pools, ObjectID index, uint32_t n,
             bool persist)
{
    ObjectRef idx = rt.deref(index);
    for (uint32_t i = 0; i < n; ++i) {
        const ObjectID s = rt.pmalloc(pools.poolForNew(i), kStringBytes);
        uint8_t buf[kStringBytes];
        initialString(i, buf);
        rt.writeBytes(rt.deref(s), 0, buf, kStringBytes);
        if (persist)
            rt.persist(s, kStringBytes);
        rt.write<uint64_t>(idx, 8 * i, s.raw);
    }
    if (persist)
        rt.persist(index, n * 8);
}

/**
 * One SPS operation: swap the strings in slots @p a and @p b of the
 * index table @p index, in one transaction when @p transactions is
 * set. The benchmark and the crash driver both run it.
 */
void
swapStrings(PmemRuntime &rt, ObjectID index, uint32_t a, uint32_t b,
            bool transactions)
{
    rt.setOp("swap");
    TxScope tx(rt, transactions);
    ObjectRef idxr = rt.deref(index);
    const ObjectID sa(rt.read<uint64_t>(idxr, 8 * a));
    const uint64_t tag_a = rt.lastLoadTag();
    const ObjectID sb(rt.read<uint64_t>(idxr, 8 * b));
    const uint64_t tag_b = rt.lastLoadTag();

    tx.addRange(sa, kStringBytes);
    tx.addRange(sb, kStringBytes);

    uint8_t bufa[kStringBytes], bufb[kStringBytes];
    ObjectRef ra = rt.deref(sa, tag_a);
    ObjectRef rb = rt.deref(sb, tag_b);
    rt.readBytes(ra, 0, bufa, kStringBytes);
    rt.readBytes(rb, 0, bufb, kStringBytes);
    rt.writeBytes(ra, 0, bufb, kStringBytes);
    rt.writeBytes(rb, 0, bufa, kStringBytes);
    rt.compute(kUpdateCost);
}

} // namespace

SpsWorkload::SpsWorkload(const WorkloadConfig &cfg) : cfg_(cfg) {}

WorkloadResult
SpsWorkload::run(PmemRuntime &rt)
{
    Rng rng(cfg_.seed);
    PoolSet pools(rt, cfg_.pattern, "sps");
    const ObjectID index = rt.poolRoot(pools.homePool(), kStrings * 8);
    buildStrings(rt, pools, index, kStrings, cfg_.transactions);

    // ---- swaps -------------------------------------------------------
    WorkloadResult res;
    const uint64_t swaps = 10000ull * cfg_.scale_pct / 100;
    for (uint64_t op = 0; op < swaps; ++op) {
        const uint32_t a = static_cast<uint32_t>(rng.below(kStrings));
        uint32_t b = static_cast<uint32_t>(rng.below(kStrings));
        if (b == a)
            b = (b + 1) % kStrings;
        ++res.operations;
        swapStrings(rt, index, a, b, cfg_.transactions);
        res.checksum += a * 131 + b;
    }

    // Fold final contents into the checksum.
    ObjectRef idx = rt.deref(index);
    for (uint32_t i = 0; i < kStrings; ++i) {
        const ObjectID s(rt.read<uint64_t>(idx, 8 * i));
        uint8_t buf[kStringBytes];
        rt.readBytes(rt.deref(s), 0, buf, kStringBytes);
        for (uint32_t b = 0; b < kStringBytes; ++b)
            res.checksum = res.checksum * 31 + buf[b];
    }
    res.found = swaps;
    return res;
}

namespace {

/** SPS stepped for crash-point exploration (see crash_support.h). */
class SpsCrashDriver final : public CrashDriver
{
  public:
    SpsCrashDriver(uint64_t steps, uint64_t seed)
        : steps_(steps), seed_(seed), rng_(seed)
    {}

    const char *name() const override { return "SPS"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        pools_.emplace(rt, PoolPattern::All, "spsc", kCrashPoolBytes);
        index_ = rt.poolRoot(pools_->homePool(), kCrashStrings * 8);
        buildStrings(rt, *pools_, index_, kCrashStrings, true);
    }

    void
    step(PmemRuntime &rt, uint64_t) override
    {
        const uint32_t a = static_cast<uint32_t>(rng_.below(kCrashStrings));
        uint32_t b = static_cast<uint32_t>(rng_.below(kCrashStrings));
        if (b == a)
            b = (b + 1) % kCrashStrings;
        swapStrings(rt, index_, a, b, true);
    }

    bool
    verifyRecovered(PmemRuntime &rt, uint64_t lo, uint64_t hi,
                    std::string *why) override
    {
        // Read every slot's contents once, bounds-checking the index.
        std::vector<std::array<uint8_t, kStringBytes>> got(kCrashStrings);
        ObjectRef idx = rt.deref(index_);
        for (uint32_t i = 0; i < kCrashStrings; ++i) {
            const ObjectID s(rt.read<uint64_t>(idx, 8 * i));
            if (!oidPlausible(rt, s, kStringBytes)) {
                if (why)
                    *why = "dangling index entry for slot " +
                        std::to_string(i);
                return false;
            }
            rt.readBytes(rt.deref(s), 0, got[i].data(), kStringBytes);
        }
        for (uint64_t c = std::min(lo, steps_);
             c <= std::min(hi, steps_); ++c) {
            const std::vector<uint32_t> perm = model(c);
            bool match = true;
            for (uint32_t i = 0; i < kCrashStrings && match; ++i) {
                uint8_t expect[kStringBytes];
                initialString(perm[i], expect);
                match = std::memcmp(got[i].data(), expect,
                                    kStringBytes) == 0;
            }
            if (match)
                return true;
        }
        if (why) {
            *why = "string array matches no model state in steps [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]";
        }
        return false;
    }

    bool
    reachable(PmemRuntime &rt,
              std::map<uint32_t, std::set<uint32_t>> *out) override
    {
        (*out)[index_.poolId()].insert(index_.offset());
        ObjectRef idx = rt.deref(index_);
        for (uint32_t i = 0; i < kCrashStrings; ++i) {
            const ObjectID s(rt.read<uint64_t>(idx, 8 * i));
            if (!s.isNull())
                (*out)[s.poolId()].insert(s.offset());
        }
        return true;
    }

  private:
    /** Volatile replay: perm[slot] = original index after @p c swaps. */
    std::vector<uint32_t>
    model(uint64_t c) const
    {
        Rng rng(seed_);
        std::vector<uint32_t> perm(kCrashStrings);
        std::iota(perm.begin(), perm.end(), 0u);
        for (uint64_t i = 0; i < c; ++i) {
            const uint32_t a =
                static_cast<uint32_t>(rng.below(kCrashStrings));
            uint32_t b = static_cast<uint32_t>(rng.below(kCrashStrings));
            if (b == a)
                b = (b + 1) % kCrashStrings;
            std::swap(perm[a], perm[b]);
        }
        return perm;
    }

    uint64_t steps_;
    uint64_t seed_;
    Rng rng_;
    std::optional<PoolSet> pools_;
    ObjectID index_;
};

} // namespace

std::unique_ptr<CrashDriver>
makeSpsCrashDriver(uint64_t steps, uint64_t seed)
{
    return std::make_unique<SpsCrashDriver>(steps, seed);
}

} // namespace workloads
} // namespace poat
