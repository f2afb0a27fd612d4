/**
 * @file
 * LHT: persistent linear hash table + the threaded workload and its
 * crash driver (see lhash.h for the concurrency model).
 *
 * Root layout: { dir OID @0, level @8, split @12, buckets @16,
 * per-stripe counts @24 (u64 x kStripes) }. Node: { key @0, value @8,
 * next OID @16 }.
 */
#include "workloads/lhash.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "pmem/concurrent/sched.h"
#include "workloads/crash_support.h"

namespace poat {
namespace workloads {

namespace {

constexpr uint32_t kOffDir = 0;
constexpr uint32_t kOffLevel = 8;
constexpr uint32_t kOffSplit = 12;
constexpr uint32_t kOffBuckets = 16;
constexpr uint32_t kOffCounts = 24;
constexpr uint32_t kRootSize =
    kOffCounts + 8 * LinearHashTable::kStripes;

constexpr uint32_t kOffKey = 0;
constexpr uint32_t kOffValue = 8;
constexpr uint32_t kOffNext = 16;

constexpr uint32_t kDirBytes = LinearHashTable::kDirEntries * 8;

/** Split when a stripe's mean chain load exceeds this. */
constexpr uint64_t kSplitLoad = 3;

} // namespace

LinearHashTable::LinearHashTable(PmemRuntime &rt,
                                 concurrent::ConcurrentEngine *eng,
                                 uint32_t pool_id, bool transactions)
    : rt_(rt), eng_(eng), pool_(pool_id), transactions_(transactions)
{
}

uint64_t
LinearHashTable::mix(uint64_t x)
{
    // splitmix64 finalizer: full avalanche so bucket spread is uniform.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
LinearHashTable::bucketOf(uint64_t h, uint32_t level, uint32_t split_next)
{
    const uint64_t size = static_cast<uint64_t>(kStripes) << level;
    uint64_t b = h % size;
    if (b < split_next)
        b = h % (size * 2); // this bucket already split this round
    return b;
}

void
LinearHashTable::lockX(uint64_t key)
{
    if (eng_)
        eng_->lockExclusive(key);
}

void
LinearHashTable::lockS(uint64_t key)
{
    if (eng_)
        eng_->lockShared(key);
}

void
LinearHashTable::maybeYield()
{
    if (eng_)
        eng_->yield();
}

void
LinearHashTable::create()
{
    root_ = rt_.poolRoot(pool_, kRootSize); // zeroed on first use
    dir_ = rt_.pmalloc(pool_, kDirBytes);

    // Null every directory slot (pmalloc does not zero payloads).
    const std::vector<uint8_t> zeros(kDirBytes, 0);
    rt_.writeBytes(rt_.deref(dir_), 0, zeros.data(), kDirBytes);

    ObjectRef rr = rt_.deref(root_);
    rt_.write<uint64_t>(rr, kOffDir, dir_.raw);
    rt_.write<uint32_t>(rr, kOffLevel, 0);
    rt_.write<uint32_t>(rr, kOffSplit, 0);
    rt_.write<uint32_t>(rr, kOffBuckets, kStripes);
    rt_.persist(dir_, kDirBytes);
    rt_.persist(root_, kRootSize);
}

void
LinearHashTable::attach()
{
    root_ = rt_.poolRoot(pool_, kRootSize); // already published: reused
    dir_ = ObjectID(rt_.read<uint64_t>(rt_.deref(root_), kOffDir));
}

bool
LinearHashTable::insert(uint64_t key, uint64_t value)
{
    rt_.setOp("lht_insert");
    const uint64_t h = mix(key);
    const uint64_t stripe = h % kStripes;
    lockX(stripe);

    TxScope tx(rt_, transactions_);
    ObjectRef rr = rt_.deref(root_);
    const uint32_t level = rt_.read<uint32_t>(rr, kOffLevel);
    const uint32_t split = rt_.read<uint32_t>(rr, kOffSplit);
    const uint64_t b = bucketOf(h, level, split);
    ObjectRef dr = rt_.deref(dir_);

    // ---- search the chain --------------------------------------------
    ObjectID cur(rt_.read<uint64_t>(dr, static_cast<uint32_t>(b * 8)));
    uint64_t chase = rt_.lastLoadTag();
    while (!cur.isNull()) {
        rt_.compute(kVisitCost);
        ObjectRef c = rt_.deref(cur, chase);
        const uint64_t k = rt_.read<uint64_t>(c, kOffKey);
        const bool found = (k == key);
        rt_.branchEvent(found, kPcFound, rt_.lastLoadTag());
        if (found) {
            tx.addRange(cur.plus(kOffValue), 8);
            rt_.write<uint64_t>(c, kOffValue, value);
            rt_.compute(kUpdateCost);
            return false; // updated in place
        }
        cur = ObjectID(rt_.read<uint64_t>(c, kOffNext));
        chase = rt_.lastLoadTag();
        rt_.branchEvent(true, kPcSearch);
    }

    // ---- link a fresh node at the head -------------------------------
    const ObjectID n = tx.pmalloc(pool_, kNodeSize);
    tx.addRange(n, kNodeSize);
    maybeYield(); // mid-transaction yield point (stripe lock held)
    ObjectRef nr = rt_.deref(n);
    const uint64_t head_raw =
        rt_.read<uint64_t>(dr, static_cast<uint32_t>(b * 8));
    rt_.write<uint64_t>(nr, kOffKey, key);
    rt_.write<uint64_t>(nr, kOffValue, value);
    rt_.write<uint64_t>(nr, kOffNext, head_raw);
    tx.addRange(dir_.plus(static_cast<uint32_t>(b * 8)), 8);
    rt_.write<uint64_t>(dr, static_cast<uint32_t>(b * 8), n.raw);

    const uint32_t cnt_off = kOffCounts + 8 * static_cast<uint32_t>(stripe);
    const uint64_t sc = rt_.read<uint64_t>(rr, cnt_off);
    tx.addRange(root_.plus(cnt_off), 8);
    rt_.write<uint64_t>(rr, cnt_off, sc + 1);
    rt_.compute(kUpdateCost);

    // ---- grow if this stripe got heavy -------------------------------
    const uint32_t buckets = rt_.read<uint32_t>(rr, kOffBuckets);
    const bool heavy =
        (sc + 1) * kStripes > kSplitLoad * static_cast<uint64_t>(buckets);
    rt_.branchEvent(heavy, kPcUpdate);
    if (heavy)
        splitOne(tx);
    return true;
}

void
LinearHashTable::splitOne(TxScope &tx)
{
    rt_.setOp("lht_split");
    lockX(kMetaLockKey);

    // Re-read the metadata under the lock: a peer may have split since
    // the caller sampled it.
    ObjectRef rr = rt_.deref(root_);
    const uint32_t level = rt_.read<uint32_t>(rr, kOffLevel);
    const uint32_t split = rt_.read<uint32_t>(rr, kOffSplit);
    const uint64_t size = static_cast<uint64_t>(kStripes) << level;
    const uint64_t target = split + size;
    if (target >= kDirEntries)
        return; // directory full: stop growing

    // The split bucket's contents belong to stripe (split mod N0); the
    // second stripe lock here is what makes deadlock cycles possible.
    lockX(split % kStripes);
    maybeYield();

    // Collect the chain, then relink it into keep/move lists. Relative
    // order within each list is preserved.
    ObjectRef dr = rt_.deref(dir_);
    struct Entry
    {
        ObjectID node;
        uint64_t hash;
    };
    std::vector<Entry> entries;
    ObjectID cur(rt_.read<uint64_t>(dr, static_cast<uint32_t>(split * 8)));
    while (!cur.isNull()) {
        rt_.compute(kVisitCost);
        ObjectRef c = rt_.deref(cur);
        entries.push_back({cur, mix(rt_.read<uint64_t>(c, kOffKey))});
        cur = ObjectID(rt_.read<uint64_t>(c, kOffNext));
    }

    uint64_t keep_head = 0, move_head = 0;
    // Build both chains back-to-front so heads end up order-preserving.
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        const bool moves = (it->hash % (size * 2)) != split;
        uint64_t &head = moves ? move_head : keep_head;
        tx.addRange(it->node.plus(kOffNext), 8);
        rt_.write<uint64_t>(rt_.deref(it->node), kOffNext, head);
        head = it->node.raw;
        rt_.compute(kLoopCost);
    }
    tx.addRange(dir_.plus(static_cast<uint32_t>(split * 8)), 8);
    rt_.write<uint64_t>(dr, static_cast<uint32_t>(split * 8), keep_head);
    tx.addRange(dir_.plus(static_cast<uint32_t>(target * 8)), 8);
    rt_.write<uint64_t>(dr, static_cast<uint32_t>(target * 8), move_head);

    // Metadata update: one contiguous logged range, no yields inside,
    // so peers (who read it without the metadata lock) see either the
    // old state or the new one, never a torn middle.
    uint32_t new_split = split + 1;
    uint32_t new_level = level;
    if (new_split == size) {
        new_split = 0;
        new_level = level + 1;
    }
    const uint32_t new_buckets = static_cast<uint32_t>(
        (static_cast<uint64_t>(kStripes) << new_level) + new_split);
    tx.addRange(root_.plus(kOffLevel), 12);
    rt_.write<uint32_t>(rr, kOffLevel, new_level);
    rt_.write<uint32_t>(rr, kOffSplit, new_split);
    rt_.write<uint32_t>(rr, kOffBuckets, new_buckets);
    rt_.compute(kUpdateCost);
}

bool
LinearHashTable::erase(uint64_t key)
{
    rt_.setOp("lht_erase");
    const uint64_t h = mix(key);
    const uint64_t stripe = h % kStripes;
    lockX(stripe);

    TxScope tx(rt_, transactions_);
    ObjectRef rr = rt_.deref(root_);
    const uint32_t level = rt_.read<uint32_t>(rr, kOffLevel);
    const uint32_t split = rt_.read<uint32_t>(rr, kOffSplit);
    const uint64_t b = bucketOf(h, level, split);
    ObjectRef dr = rt_.deref(dir_);

    ObjectID prev = OID_NULL;
    ObjectID cur(rt_.read<uint64_t>(dr, static_cast<uint32_t>(b * 8)));
    uint64_t chase = rt_.lastLoadTag();
    bool found = false;
    while (!cur.isNull()) {
        rt_.compute(kVisitCost);
        ObjectRef c = rt_.deref(cur, chase);
        found = rt_.read<uint64_t>(c, kOffKey) == key;
        rt_.branchEvent(found, kPcFound, rt_.lastLoadTag());
        if (found)
            break;
        prev = cur;
        cur = ObjectID(rt_.read<uint64_t>(c, kOffNext));
        chase = rt_.lastLoadTag();
        rt_.branchEvent(true, kPcSearch);
    }
    if (!found)
        return false;

    const uint64_t next_raw = rt_.read<uint64_t>(rt_.deref(cur), kOffNext);
    if (prev.isNull()) {
        tx.addRange(dir_.plus(static_cast<uint32_t>(b * 8)), 8);
        rt_.write<uint64_t>(dr, static_cast<uint32_t>(b * 8), next_raw);
    } else {
        tx.addRange(prev.plus(kOffNext), 8);
        rt_.write<uint64_t>(rt_.deref(prev), kOffNext, next_raw);
    }
    tx.pfree(cur);

    const uint32_t cnt_off = kOffCounts + 8 * static_cast<uint32_t>(stripe);
    const uint64_t sc = rt_.read<uint64_t>(rr, cnt_off);
    tx.addRange(root_.plus(cnt_off), 8);
    rt_.write<uint64_t>(rr, cnt_off, sc - 1);
    rt_.compute(kUpdateCost);
    return true;
}

bool
LinearHashTable::lookup(uint64_t key, uint64_t *value)
{
    rt_.setOp("lht_lookup");
    const uint64_t h = mix(key);
    lockS(h % kStripes);

    ObjectRef rr = rt_.deref(root_);
    const uint32_t level = rt_.read<uint32_t>(rr, kOffLevel);
    const uint32_t split = rt_.read<uint32_t>(rr, kOffSplit);
    const uint64_t b = bucketOf(h, level, split);

    ObjectID cur(rt_.read<uint64_t>(rt_.deref(dir_),
                                    static_cast<uint32_t>(b * 8)));
    uint64_t chase = rt_.lastLoadTag();
    while (!cur.isNull()) {
        rt_.compute(kVisitCost);
        ObjectRef c = rt_.deref(cur, chase);
        const bool found = rt_.read<uint64_t>(c, kOffKey) == key;
        rt_.branchEvent(found, kPcFound, rt_.lastLoadTag());
        if (found) {
            if (value)
                *value = rt_.read<uint64_t>(c, kOffValue);
            return true;
        }
        cur = ObjectID(rt_.read<uint64_t>(c, kOffNext));
        chase = rt_.lastLoadTag();
        rt_.branchEvent(true, kPcSearch);
    }
    return false;
}

bool
LinearHashTable::verify(std::string *why)
{
    ObjectRef rr = rt_.deref(root_);
    const uint32_t level = rt_.read<uint32_t>(rr, kOffLevel);
    const uint32_t split = rt_.read<uint32_t>(rr, kOffSplit);
    const uint32_t buckets = rt_.read<uint32_t>(rr, kOffBuckets);
    const uint64_t size = static_cast<uint64_t>(kStripes) << level;
    if (buckets != size + split || buckets > kDirEntries) {
        if (why)
            *why = "hash metadata inconsistent (level/split/buckets)";
        return false;
    }

    std::set<uint64_t> seen;
    std::vector<uint64_t> stripe_counts(kStripes, 0);
    ObjectRef dr = rt_.deref(dir_);
    for (uint64_t b = 0; b < buckets; ++b) {
        ObjectID cur(rt_.read<uint64_t>(dr, static_cast<uint32_t>(b * 8)));
        uint64_t guard = 0;
        while (!cur.isNull()) {
            if (!oidPlausible(rt_, cur, kNodeSize)) {
                if (why)
                    *why = "dangling chain link in bucket " +
                        std::to_string(b);
                return false;
            }
            if (++guard > (1u << 20)) {
                if (why)
                    *why = "chain cycle in bucket " + std::to_string(b);
                return false;
            }
            ObjectRef c = rt_.deref(cur);
            const uint64_t k = rt_.read<uint64_t>(c, kOffKey);
            const uint64_t h = mix(k);
            if (bucketOf(h, level, split) != b) {
                if (why)
                    *why = "key in the wrong bucket after recovery";
                return false;
            }
            if (!seen.insert(k).second) {
                if (why)
                    *why = "duplicate key after recovery";
                return false;
            }
            ++stripe_counts[h % kStripes];
            cur = ObjectID(rt_.read<uint64_t>(c, kOffNext));
        }
    }
    for (uint32_t s = 0; s < kStripes; ++s) {
        if (stripe_counts[s] !=
            rt_.read<uint64_t>(rr, kOffCounts + 8 * s)) {
            if (why)
                *why = "stripe count " + std::to_string(s) +
                    " disagrees with its chains";
            return false;
        }
    }
    return true;
}

void
LinearHashTable::collectReachable(
    std::map<uint32_t, std::set<uint32_t>> *out)
{
    (*out)[root_.poolId()].insert(root_.offset());
    (*out)[dir_.poolId()].insert(dir_.offset());
    ObjectRef rr = rt_.deref(root_);
    const uint32_t buckets = rt_.read<uint32_t>(rr, kOffBuckets);
    ObjectRef dr = rt_.deref(dir_);
    for (uint64_t b = 0; b < std::min<uint64_t>(buckets, kDirEntries);
         ++b) {
        ObjectID cur(rt_.read<uint64_t>(dr, static_cast<uint32_t>(b * 8)));
        uint64_t guard = 0;
        while (!cur.isNull() && ++guard <= (1u << 20)) {
            (*out)[cur.poolId()].insert(cur.offset());
            cur = ObjectID(rt_.read<uint64_t>(rt_.deref(cur), kOffNext));
        }
    }
}

uint64_t
LinearHashTable::checksum()
{
    uint64_t ck = 0;
    ObjectRef rr = rt_.deref(root_);
    const uint32_t buckets = rt_.read<uint32_t>(rr, kOffBuckets);
    ObjectRef dr = rt_.deref(dir_);
    for (uint64_t b = 0; b < buckets; ++b) {
        ObjectID cur(rt_.read<uint64_t>(dr, static_cast<uint32_t>(b * 8)));
        while (!cur.isNull()) {
            ObjectRef c = rt_.deref(cur);
            ck = ck * 131 + rt_.read<uint64_t>(c, kOffKey);
            ck = ck * 131 + rt_.read<uint64_t>(c, kOffValue);
            cur = ObjectID(rt_.read<uint64_t>(c, kOffNext));
        }
        ck = ck * 31 + 17; // bucket boundary
    }
    return ck;
}

uint64_t
LinearHashTable::size()
{
    uint64_t n = 0;
    ObjectRef rr = rt_.deref(root_);
    for (uint32_t s = 0; s < kStripes; ++s)
        n += rt_.read<uint64_t>(rr, kOffCounts + 8 * s);
    return n;
}

uint32_t
LinearHashTable::buckets()
{
    return rt_.read<uint32_t>(rt_.deref(root_), kOffBuckets);
}

// ---------------------------------------------------------------------
// The threaded workload
// ---------------------------------------------------------------------

LhtWorkload::LhtWorkload(const WorkloadConfig &cfg, uint32_t threads,
                         uint64_t sched_seed, uint32_t commit_window)
    : cfg_(cfg), threads_(threads == 0 ? 1 : threads),
      schedSeed_(sched_seed), commitWindow_(commit_window)
{
}

WorkloadResult
LhtWorkload::run(PmemRuntime &rt)
{
    const uint32_t pool = rt.poolCreate("lht", 8ull << 20);

    concurrent::DetScheduler sched(schedSeed_);
    concurrent::EngineOptions eopts;
    eopts.threads = threads_;
    eopts.commit_window = commitWindow_;
    concurrent::ConcurrentEngine eng(rt, sched, eopts);
    LinearHashTable table(rt, &eng, pool, cfg_.transactions);
    table.create();

    const uint64_t total_ops = 4000ull * cfg_.scale_pct / 100;
    const uint64_t per_worker = std::max<uint64_t>(1, total_ops / threads_);
    const uint64_t key_range = std::max<uint64_t>(64, total_ops / 2);

    // Per-worker partial results, merged deterministically afterwards.
    std::vector<WorkloadResult> partial(threads_);

    eng.run([&](uint32_t t) {
        Rng rng(cfg_.seed ^ (0x9e3779b97f4a7c15ull * (t + 1)));
        WorkloadResult &mine = partial[t];
        for (uint64_t i = 0; i < per_worker; ++i) {
            const uint64_t key = rng.below(key_range);
            const uint64_t action = rng.below(4);
            bool hit = false;
            uint64_t delta = 0;
            eng.txRun([&] {
                hit = false;
                delta = 0;
                if (action < 2) {
                    hit = table.insert(key, key * 2654435761ull + t);
                    delta = key * 7 + 3;
                } else if (action == 2) {
                    hit = table.erase(key);
                    delta = hit ? key * 31 + 1 : 1;
                } else {
                    uint64_t v = 0;
                    hit = table.lookup(key, &v);
                    delta = hit ? v * 13 + 5 : 2;
                }
            });
            mine.checksum += delta;
            ++mine.operations;
            mine.found += hit ? 1 : 0;
            eng.yield(); // end-of-operation checkpoint
        }
    });

    WorkloadResult res;
    for (const WorkloadResult &p : partial) {
        res.checksum = res.checksum * 1000003 + p.checksum;
        res.operations += p.operations;
        res.found += p.found;
    }
    res.checksum = res.checksum * 131 + table.checksum();
    stats_ = eng.stats();
    return res;
}

// ---------------------------------------------------------------------
// Crash driver: rounds of one operation per worker
// ---------------------------------------------------------------------

namespace {

/**
 * LHT rephrased for crash-point exploration. One "step" is a ROUND:
 * every worker runs exactly one transaction, interleaved by a fresh
 * deterministically-seeded scheduler, so a crash can freeze several
 * transactions mid-flight in different undo-log slots. There is no
 * closed-form per-step model under interleaving; verification checks
 * the table's structural consistency instead (any prefix of committed
 * atomic transactions satisfies it), like the TPC-C driver.
 */
class LhtCrashDriver final : public CrashDriver
{
  public:
    LhtCrashDriver(uint64_t steps, uint64_t seed, uint32_t threads,
                   uint64_t sched_seed)
        : steps_(steps), seed_(seed),
          threads_(engineWorkers(threads)), schedSeed_(sched_seed)
    {
    }

    const char *name() const override { return "LHT"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        pool_ = rt.poolCreate("lhtc", kCrashPoolBytes);
        table_.emplace(rt, nullptr, pool_, true);
        table_->create();
        rngs_.clear();
        for (uint32_t t = 0; t < threads_; ++t)
            rngs_.emplace_back(seed_ ^ (0x9e3779b97f4a7c15ull * (t + 1)));
    }

    void
    step(PmemRuntime &rt, uint64_t round) override
    {
        concurrent::DetScheduler sched(
            schedSeed_ ^ (round * 0xd1b54a32d192ed03ull));
        concurrent::EngineOptions eopts;
        eopts.threads = threads_;
        eopts.commit_window = 2;
        concurrent::ConcurrentEngine eng(rt, sched, eopts);
        LinearHashTable table(rt, &eng, pool_, true);
        table.attach();

        // Keys are drawn before the round so an abort-retry replays
        // the same operation.
        std::vector<uint64_t> keys(threads_), actions(threads_);
        for (uint32_t t = 0; t < threads_; ++t) {
            keys[t] = rngs_[t].below(std::max<uint64_t>(steps_, 8));
            actions[t] = rngs_[t].below(4);
        }

        eng.run([&](uint32_t t) {
            eng.txRun([&] {
                if (actions[t] < 2)
                    table.insert(keys[t], keys[t] * 31 + t);
                else if (actions[t] == 2)
                    table.erase(keys[t]);
                else
                    table.lookup(keys[t], nullptr);
            });
        });
        diag_.absorb(eng);
    }

    std::string diagnostics() const override { return diag_.render(); }

    bool
    verifyRecovered(PmemRuntime &, uint64_t, uint64_t,
                    std::string *why) override
    {
        return table_->verify(why);
    }

    bool
    reachable(PmemRuntime &,
              std::map<uint32_t, std::set<uint32_t>> *out) override
    {
        table_->collectReachable(out);
        return true;
    }

  private:
    uint64_t steps_;
    uint64_t seed_;
    uint32_t threads_;
    uint64_t schedSeed_;
    uint32_t pool_ = 0;
    std::optional<LinearHashTable> table_;
    std::vector<Rng> rngs_;
    ConcurrentDiag diag_;
};

} // namespace

std::unique_ptr<CrashDriver>
makeLhtCrashDriver(uint64_t steps, uint64_t seed, uint32_t threads,
                   uint64_t sched_seed)
{
    return std::make_unique<LhtCrashDriver>(steps, seed, threads,
                                            sched_seed);
}

} // namespace workloads
} // namespace poat
