/**
 * @file
 * Per-workload harnesses for crash-point fault injection.
 *
 * A CrashDriver runs one workload as setup + a sequence of steps, where
 * every step is one operation of the workload (LHT, MTPCC: one round of
 * one transaction per engine worker). The six microbenchmark drivers
 * (LL, BST, SPS, RBT, BT, B+T) step the benchmark's own operation: each
 * workload file has one function for one operation, which its run()
 * loop calls once per operation and its driver's step() calls with
 * transactions on, so the explorer checks recovery of the code the
 * benchmarks measure. TPCC and MTPCC step TpccDb::runOne, the body of
 * the benchmark's loop; LHT's rounds are the driver's own (one engine
 * per round). Each driver adds the two things the fault explorer
 * (src/fault/) needs and the benchmark run() methods cannot provide:
 *
 *  - verifyRecovered(): a structural verifier that replays a volatile
 *    model of the workload to a given step count and compares it with
 *    the recovered persistent state. Per-pool transactions are atomic,
 *    so a crash that fired during step s must recover to the state
 *    after exactly s or s+1 completed steps — nothing in between.
 *  - reachable(): every allocated payload the workload can still reach
 *    (root objects included), for allocator leak/double-use accounting
 *    against PoolAllocator::allocatedPayloads().
 *
 * Drivers are deterministic functions of (steps, seed): constructing a
 * driver with the same arguments and replaying the same crash schedule
 * reproduces a failure bit-for-bit within one build.
 */
#ifndef POAT_WORKLOADS_CRASH_SUPPORT_H
#define POAT_WORKLOADS_CRASH_SUPPORT_H

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pmem/runtime.h"

namespace poat {

namespace concurrent {
class ConcurrentEngine;
}

namespace workloads {

/** One workload stepped for crash-point exploration. */
class CrashDriver
{
  public:
    virtual ~CrashDriver() = default;

    /** Abbreviation (LL, BST, SPS, RBT, BT, B+T, TPCC, LHT, MTPCC). */
    virtual const char *name() const = 0;

    /**
     * Create pools and initial state. Setup is non-transactional (the
     * same contract as the benchmarks' own setup phases), so the
     * explorer arms crash points only after it returns.
     */
    virtual void setup(PmemRuntime &rt) = 0;

    /** Number of steps this driver was configured to run. */
    virtual uint64_t steps() const = 0;

    /** Execute step @p i (one transaction); call in order from 0. */
    virtual void step(PmemRuntime &rt, uint64_t i) = 0;

    /**
     * Check the recovered persistent state against the model at every
     * completed-step count c in [lo, hi]; true if any c matches and
     * all structural invariants hold. On failure fills *why (if given)
     * with a diagnosis.
     */
    virtual bool verifyRecovered(PmemRuntime &rt, uint64_t lo, uint64_t hi,
                                 std::string *why) = 0;

    /**
     * Collect every reachable allocated payload as pool id -> payload
     * offsets (root objects included). Returns false when the workload
     * cannot enumerate reachability (TPCC); the explorer then skips
     * leak accounting for the trial.
     */
    virtual bool
    reachable(PmemRuntime &rt,
              std::map<uint32_t, std::set<uint32_t>> *out) = 0;

    /**
     * One-line concurrency diagnostics of the run so far, captured at
     * the end of each concurrent step (per-worker-slot commit/abort and
     * lock counters); empty for sequential drivers. The explorer
     * attaches it to failures so a concurrent repro line arrives with
     * the contention picture that produced it.
     */
    virtual std::string diagnostics() const { return {}; }
};

/** Total pool bytes the crash drivers use (small: trials are many). */
inline constexpr uint64_t kCrashPoolBytes = 1ull << 20;

/**
 * Accumulated per-worker-slot concurrency counters backing the
 * concurrent drivers' diagnostics(). Each step runs a fresh
 * ConcurrentEngine, so the driver absorbs that engine's TxTable slots
 * and LockManager totals after every step; render() formats the sums
 * as one line per slot plus the lock totals.
 */
struct ConcurrentDiag
{
    struct Slot
    {
        uint64_t begins = 0;
        uint64_t commits = 0;
        uint64_t aborts = 0;
        uint64_t retries = 0;
    };
    std::vector<Slot> slots;
    uint64_t lock_acquisitions = 0;
    uint64_t lock_waits = 0;
    uint64_t deadlocks = 0;

    /** Fold one finished step's engine counters in. */
    void absorb(concurrent::ConcurrentEngine &eng);

    /** "slot0: 5 commits ... | locks: ..." (empty when never run). */
    std::string render() const;
};

/**
 * True iff @p oid points at @p size bytes inside an open pool — the
 * bounds check verification walks make before dereferencing a link in
 * a possibly-corrupt recovered image (so a dangling pointer becomes a
 * reported failure, not a fatal out-of-range access).
 */
bool oidPlausible(PmemRuntime &rt, ObjectID oid, uint32_t size);

/**
 * Instantiate a crash driver by abbreviation.
 * @param threads worker threads for the concurrent drivers (LHT,
 *        MTPCC); 0 picks kDefaultEngineWorkers (harness.h).
 *        Sequential drivers ignore it.
 *        At most PoolHeader::kMaxLogSlots, for every driver.
 * @param sched_seed deterministic-scheduler interleaving seed (the
 *        `tSEED` reproducer token); sequential drivers ignore it.
 * @throws std::invalid_argument on an unknown abbreviation or a worker
 *         count out of range.
 */
std::unique_ptr<CrashDriver> makeCrashDriver(const std::string &abbr,
                                             uint64_t steps, uint64_t seed,
                                             uint32_t threads = 0,
                                             uint64_t sched_seed = 0);

/** All crash-explorable workloads: microbenchmarks + TPCC + the
 *  concurrent pair (LHT, MTPCC). */
const std::vector<std::string> &crashWorkloadNames();

/// @name Per-workload factories (defined next to each workload)
/// @{
std::unique_ptr<CrashDriver> makeListCrashDriver(uint64_t steps,
                                                 uint64_t seed);
std::unique_ptr<CrashDriver> makeBstCrashDriver(uint64_t steps,
                                                uint64_t seed);
std::unique_ptr<CrashDriver> makeSpsCrashDriver(uint64_t steps,
                                                uint64_t seed);
std::unique_ptr<CrashDriver> makeRbtCrashDriver(uint64_t steps,
                                                uint64_t seed);
std::unique_ptr<CrashDriver> makeBtreeCrashDriver(uint64_t steps,
                                                  uint64_t seed);
std::unique_ptr<CrashDriver> makeBplusCrashDriver(uint64_t steps,
                                                  uint64_t seed);
std::unique_ptr<CrashDriver> makeTpccCrashDriver(uint64_t steps,
                                                 uint64_t seed);
std::unique_ptr<CrashDriver> makeLhtCrashDriver(uint64_t steps,
                                                uint64_t seed,
                                                uint32_t threads,
                                                uint64_t sched_seed);
std::unique_ptr<CrashDriver> makeMtpccCrashDriver(uint64_t steps,
                                                  uint64_t seed,
                                                  uint32_t threads,
                                                  uint64_t sched_seed);
/// @}

} // namespace workloads
} // namespace poat

#endif // POAT_WORKLOADS_CRASH_SUPPORT_H
