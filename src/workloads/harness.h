/**
 * @file
 * Workload harness: pool-usage patterns (paper Table 6), transactional
 * scoping, and the common Workload interface.
 *
 * Every microbenchmark is written once against PmemRuntime and runs in
 * all 2x2 configurations of Table 7 (BASE/OPT x TX/NTX) and all pool
 * patterns of Table 6 (ALL / EACH / RANDOM), selected here.
 */
#ifndef POAT_WORKLOADS_HARNESS_H
#define POAT_WORKLOADS_HARNESS_H

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "pmem/runtime.h"

namespace poat {
namespace workloads {

/** Pool usage pattern (paper Table 6). */
enum class PoolPattern : uint8_t
{
    All,    ///< all persistent data in one pool
    Each,   ///< every allocated structure in its own fresh pool
    Random, ///< 32 pools; structure with key k goes to pool k mod 32
};

const char *patternName(PoolPattern p);

/** Workload-level configuration. */
struct WorkloadConfig
{
    PoolPattern pattern = PoolPattern::All;
    /** Failure-safety + durability on (BASE/OPT) or off (*_NTX). */
    bool transactions = true;
    uint64_t seed = 42;
    /**
     * Work multiplier in 1/100ths: 100 = the paper's operation counts
     * (e.g., 700 LL searches); smaller values shrink runs for tests.
     */
    uint32_t scale_pct = 100;
};

/**
 * Pool selection for a pattern.
 *
 * ALL creates one big pool up front; RANDOM creates 32 pools up front
 * (paper Table 6); EACH creates a small pool per structure on demand
 * plus a separate "home" pool holding the root object.
 */
class PoolSet
{
  public:
    static constexpr uint32_t kRandomPools = 32;

    PoolSet(PmemRuntime &rt, PoolPattern pattern, const std::string &tag,
            uint64_t all_pool_size = 64ull << 20,
            uint64_t random_pool_size = 8ull << 20,
            uint64_t each_pool_size = 32 * 1024);

    /** Pool that holds the root/anchor object. */
    uint32_t homePool() const { return home_; }

    /**
     * Pool to allocate a new structure with key @p key into. Under
     * EACH this creates (and returns) a fresh pool.
     */
    uint32_t poolForNew(uint64_t key);

    PoolPattern pattern() const { return pattern_; }
    size_t poolsCreated() const { return created_; }

  private:
    PmemRuntime &rt_;
    PoolPattern pattern_;
    std::string tag_;
    uint64_t eachPoolSize_;
    uint32_t home_ = 0;
    std::vector<uint32_t> randomPools_;
    size_t created_ = 0;
};

/**
 * Transactional scope for one logical operation.
 *
 * Write-ahead staging: call addRange() *before* modifying a range. The
 * scope lazily opens one runtime transaction per touched pool and
 * commits them all when commit() (or the destructor) runs. When
 * transactions are disabled (the *_NTX configurations) every call is a
 * cheap no-op and allocation routes to plain pmalloc/pfree.
 */
class TxScope
{
  public:
    TxScope(PmemRuntime &rt, bool enabled)
        : rt_(rt), enabled_(enabled), uncaught_(std::uncaught_exceptions())
    {}

    TxScope(const TxScope &) = delete;
    TxScope &operator=(const TxScope &) = delete;

    ~TxScope()
    {
        if (!enabled_ || !rt_.txActive())
            return;
        // Unwinding through the scope (e.g. an exhausted undo log threw
        // out of addRange) must roll the half-made operation back, not
        // commit it.
        if (std::uncaught_exceptions() > uncaught_)
            rt_.txAbort();
        else
            rt_.txEnd();
    }

    /** Snapshot [oid, oid+size) before modifying it. */
    void
    addRange(ObjectID oid, uint32_t size)
    {
        if (!enabled_)
            return;
        ensurePool(oid.poolId());
        rt_.txAddRange(oid, size);
    }

    /** Allocate within the scope (undoable when enabled). */
    ObjectID
    pmalloc(uint32_t pool_id, uint32_t size)
    {
        if (!enabled_)
            return rt_.pmalloc(pool_id, size);
        ensurePool(pool_id);
        return rt_.txPmalloc(pool_id, size);
    }

    /** Free within the scope (deferred to commit when enabled). */
    void
    pfree(ObjectID oid)
    {
        if (!enabled_) {
            rt_.pfree(oid);
            return;
        }
        ensurePool(oid.poolId());
        rt_.txPfree(oid);
    }

    /** Commit all per-pool transactions now. */
    void
    commit()
    {
        if (enabled_ && rt_.txActive())
            rt_.txEnd();
    }

    /**
     * Roll back all per-pool transactions: data snapshots restore,
     * in-scope allocations free, deferred frees never happen. A no-op
     * when transactions are disabled (NTX has nothing to roll back —
     * callers must not rely on abort for program logic there).
     */
    void
    abort()
    {
        if (enabled_ && rt_.txActive())
            rt_.txAbort();
    }

  private:
    void
    ensurePool(uint32_t pool_id)
    {
        if (!rt_.txActiveOn(pool_id))
            rt_.txBegin(pool_id);
    }

    PmemRuntime &rt_;
    bool enabled_;
    int uncaught_; ///< in-flight exceptions when the scope opened
};

/**
 * Once-per-operation undo logging of whole nodes.
 *
 * Mirrors how NVML code calls TX_ADD(node) before the first mutation of
 * each object in a transaction: the first log() of a node snapshots it
 * via TxScope::addRange; repeats are free.
 */
class NodeLogger
{
  public:
    explicit NodeLogger(TxScope &tx) : tx_(tx) {}

    /** Snapshot @p node (of @p size bytes) if not yet logged. */
    void
    log(ObjectID node, uint32_t size)
    {
        if (seen_.insert(node.raw).second)
            tx_.addRange(node, size);
    }

  private:
    TxScope &tx_;
    std::unordered_set<uint64_t> seen_;
};

/** Result of a workload run, for cross-configuration validation. */
struct WorkloadResult
{
    uint64_t checksum = 0;  ///< must match across BASE/OPT/patterns
    uint64_t operations = 0;
    uint64_t found = 0;     ///< workload-specific hit count
};

/** Interface every benchmark implements. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as in the paper (LL, BST, SPS, RBT, BT, B+T). */
    virtual const char *name() const = 0;

    /** Execute against @p rt (whose sink does the timing). */
    virtual WorkloadResult run(PmemRuntime &rt) = 0;
};

/** Instantiate a microbenchmark by paper abbreviation. */
std::unique_ptr<Workload> makeWorkload(const std::string &abbr,
                                       const WorkloadConfig &cfg);

/** All six microbenchmark abbreviations, in the paper's table order. */
const std::vector<std::string> &microbenchNames();

/** True for the workloads that run under the concurrent engine. */
inline bool
isConcurrentWorkload(const std::string &abbr)
{
    return abbr == "LHT" || abbr == "MTPCC";
}

/** Engine workers a concurrent workload runs when asked for 0. */
inline constexpr uint32_t kDefaultEngineWorkers = 2;

/** Engine workers a requested count resolves to (0 = the default). */
inline uint32_t
engineWorkers(uint32_t threads)
{
    return threads != 0 ? threads : kDefaultEngineWorkers;
}

/// @name Workload compute-cost constants
/// Synthetic ALU/branch weight of the data-structure logic around each
/// persistent access; shared by all configurations of a benchmark, so
/// they scale speedups but cannot change who wins.
/// @{
inline constexpr uint32_t kVisitCost = 10; ///< per node visited
inline constexpr uint32_t kUpdateCost = 16; ///< per structural update
inline constexpr uint32_t kLoopCost = 3;   ///< per loop iteration
/// @}

/// @name Branch-site ids for workload control flow
/// @{
inline constexpr uint64_t kPcSearch = 0x6000;
inline constexpr uint64_t kPcFound = 0x6008;
inline constexpr uint64_t kPcUpdate = 0x6010;
/// @}

} // namespace workloads
} // namespace poat

#endif // POAT_WORKLOADS_HARNESS_H
