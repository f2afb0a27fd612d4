/**
 * @file
 * Machine: the full simulated system (paper Figure 5), generalized to
 * N cores.
 *
 * Machine implements TraceSink and simulates the dynamic instruction
 * stream online as the workload executes: it resolves every address
 * through the POLB/POT (nv accesses), TLB + page table (virtual
 * addresses), and the cache hierarchy, then hands each instruction with
 * its latency components to the configured core timing model.
 *
 * Multi-core: each core owns a private timing model, L1/L2, TLB,
 * branch predictor, and POLB; L3, memory, the page table, and the POT
 * are shared (paper section 3.3: the POT is a per-process OS
 * structure). The TraceSink::coreSwitch event selects which core the
 * following instructions retire on — the deterministic scheduler in
 * pmem/concurrent/sched.h interleaves software threads one at a time, so the
 * stream stays sequential and runs are bit-identical. Closing or
 * remapping a pool broadcasts a POLB shootdown to every core, the
 * hardware analogue of a TLB shootdown IPI.
 *
 * Observability: the machine owns the run's hierarchical StatsRegistry
 * ("polb.hits", "pot.walk_latency", ...; see docs/OBSERVABILITY.md).
 * Single-core machines emit exactly the original flat naming
 * ("core.cycles", "core.cpi", "cache.l1d.*") so existing golden
 * baselines survive; multi-core machines add per-core groups
 * ("core.<i>.cycles", "core.<i>.cpi") next to machine-wide aggregates
 * (cycles = makespan across cores, instruction and cache counters
 * summed). The per-core CPI invariant — components sum exactly to that
 * core's cycles — is asserted for every core on every stats sync.
 *
 * Notes (common/note.h) change no simulated state: the machine passes
 * each one, stamped with the active core's clocks, to its
 * telemetry::ContentionProfiler, which owns the transaction-span and
 * contention stats; the machine keeps no state for them.
 *
 * Observers (telemetry/observer.h) see every retired instruction with
 * its resolved translation, and every core switch. They only read, so
 * metrics and stats are byte-identical with any set attached; with
 * none, each instruction costs one extra branch.
 *
 * A POT miss on an nv access corresponds to the paper's trap to the
 * OS; since every pool a workload touches is mapped via poolMapped(),
 * hitting one here means a bug, so it panics.
 */
#ifndef POAT_SIM_MACHINE_H
#define POAT_SIM_MACHINE_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "pmem/trace.h"
#include "telemetry/contention.h"
#include "telemetry/observer.h"
#include "sim/branch.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/core.h"
#include "sim/polb.h"
#include "sim/pot.h"
#include "sim/vm.h"

namespace poat {
namespace sim {

/** Aggregate run metrics exported after simulation. */
struct MachineMetrics
{
    uint64_t cycles = 0; ///< makespan: max over cores
    uint64_t instructions = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t nv_loads = 0;
    uint64_t nv_stores = 0;
    uint64_t clwbs = 0;
    uint64_t fences = 0;
    uint64_t polb_hits = 0;
    uint64_t polb_misses = 0;
    uint64_t polb_evictions = 0;
    uint64_t polb_shootdowns = 0;
    uint64_t tlb_misses = 0;
    uint64_t l1d_misses = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t pot_walks = 0;
    uint64_t pot_walk_probes = 0;

    double
    polbMissRate() const
    {
        const uint64_t n = polb_hits + polb_misses;
        return n ? static_cast<double>(polb_misses) / n : 0.0;
    }

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }
};

/** N simulated cores plus their memory system and translation hardware. */
class Machine : public TraceSink
{
  public:
    explicit Machine(const MachineConfig &cfg);

    /// @name TraceSink interface
    /// @{
    void alu(uint32_t count, uint64_t dep) override;
    void branch(bool taken, uint64_t pc, uint64_t dep) override;
    uint64_t load(uint64_t vaddr, uint64_t dep, uint64_t dep2) override;
    void store(uint64_t vaddr, uint64_t dep) override;
    uint64_t nvLoad(ObjectID oid, uint64_t dep, uint64_t dep2) override;
    void nvStore(ObjectID oid, uint64_t dep) override;
    void clwb(uint64_t vaddr) override;
    void nvClwb(ObjectID oid) override;
    void fence() override;
    void poolMapped(uint32_t pool_id, uint64_t vbase,
                    uint64_t size) override;
    void poolUnmapped(uint32_t pool_id) override;
    void coreSwitch(uint32_t core) override;
    void swTranslateBegin() override;
    void swTranslateEnd() override;
    /** Hand the note to the profiler with the active core's clocks. */
    void note(const Note &n) override;
    /// @}

    /** Collected metrics for the run so far. */
    MachineMetrics metrics() const;

    /** Makespan: cycles elapsed on the furthest-ahead core. */
    uint64_t cycles() const;

    /** Dynamic instructions observed, summed over cores. */
    uint64_t instructions() const;

    /** Number of simulated cores. */
    uint32_t numCores() const
    {
        return static_cast<uint32_t>(cores_.size());
    }

    /**
     * Core @p core's CPI stack. Components sum exactly to that core's
     * cycles — both core models maintain the invariant per instruction,
     * and syncStats() asserts it for every core on every stats access.
     */
    const CpiStack &cpi(uint32_t core = 0) const
    {
        return cores_[core]->model->cpi();
    }

    /**
     * The machine's hierarchical statistics registry, with every scalar
     * counter synced to the components' current values. Histograms
     * (e.g. "pot.walk_latency") accumulate live during simulation.
     */
    const StatsRegistry &stats() const;

    /**
     * Write every counter the machine tracks as "name value" lines
     * (Sniper sim.out style), histogram summaries and formula stats
     * included.
     */
    void dumpStats(std::ostream &os) const;

    /** Emit the full registry as hierarchical JSON. */
    void dumpStatsJson(std::ostream &os, int indent = 0) const;

    /**
     * Add @p observer (not owned; it must outlive the run) to the list
     * that sees every retired instruction and core switch, in the
     * order added.
     */
    void addObserver(telemetry::Observer *observer);

    /** The note consumer (blocked-cycle lanes, tx and lock stats). */
    const telemetry::ContentionProfiler &contention() const
    {
        return contention_;
    }

    Polb &polb(uint32_t core = 0) { return cores_[core]->polb; }
    Pot &pot() { return pot_; }

  private:
    /**
     * Resolved translation of one nv access, with the pre-access
     * cycles kept per source so the core can attribute them.
     */
    struct NvXlat
    {
        uint32_t polb = 0; ///< POLB lookup latency
        uint32_t pot = 0;  ///< POT walk cycles (on a POLB miss)
        uint32_t tlb = 0;  ///< TLB-miss walk cycles
        uint64_t paddr = 0;
        bool polbHit = false;

        uint32_t preStall() const { return polb + pot + tlb; }
    };

    /** Everything private to one simulated core. */
    struct CoreState
    {
        explicit CoreState(const MachineConfig &cfg);

        std::unique_ptr<CoreModel> model;
        Tlb tlb;
        Polb polb;
        BranchPredictor bp;

        uint64_t instructions = 0;
        uint32_t swDepth = 0; ///< software-translation region nesting
        uint64_t loads = 0;
        uint64_t stores = 0;
        uint64_t nvLoads = 0;
        uint64_t nvStores = 0;
        uint64_t clwbs = 0;
        uint64_t fences = 0;
    };

    /** Physical region where the in-memory POT walk reads its slots. */
    static constexpr uint64_t kPotPhysBase = 1ull << 46;

    CoreState &cur() { return *cores_[active_]; }
    const CoreState &cur() const { return *cores_[active_]; }

    /** TLB charge for a virtual access on the active core (0 on hit). */
    uint32_t tlbPenalty(uint64_t vaddr);

    /** Cycles a resolved POT walk costs under the configured model. */
    uint32_t potWalkCharge(const PotWalk &walk, bool parallel);

    /** Run @p oid through the configured POLB/POT design. */
    NvXlat translateNv(ObjectID oid);

    /** Sync every component counter and formula into stats_. */
    void syncStats() const;

    /**
     * Report the instruction of @p kind the active core just retired
     * to the observers, if any. nv accesses pass their oid, translation
     * and data cycles.
     */
    void
    retired(telemetry::Retired::Kind kind, uint64_t oid = 0,
            const NvXlat *x = nullptr, uint32_t data_cycles = 0)
    {
        if (!observers_.empty())
            notifyRetired(kind, oid, x, data_cycles);
    }

    /**
     * Build retired()'s record and hand it out. Out of line, so the
     * unobserved path of every handler stays one branch.
     */
    [[gnu::noinline]] void notifyRetired(telemetry::Retired::Kind kind,
                                         uint64_t oid, const NvXlat *x,
                                         uint32_t data_cycles);

    MachineConfig cfg_;
    std::vector<std::unique_ptr<CoreState>> cores_;
    uint32_t active_ = 0; ///< core the next instruction retires on
    CacheHierarchy caches_;
    PageTable pageTable_;
    Pot pot_;
    std::vector<telemetry::Observer *> observers_;

    /**
     * Each core's clock after its last observed instruction: the
     * start clock of its next one. Only instructions move a core's
     * clock, and every instruction after the first addObserver() is
     * observed, so this equals the clock before the charge.
     */
    std::vector<uint64_t> observedClock_;

    mutable StatsRegistry stats_;
    // Hot-path histogram handles (stable: std::map nodes don't move).
    Histogram *hXlatLat_;    ///< polb.lookup_latency
    Histogram *hPotProbes_;  ///< pot.walk_probes
    Histogram *hPotLat_;     ///< pot.walk_latency
    Histogram *hNvLoadLat_;  ///< mem.nv_load_latency
    Histogram *hNvStoreLat_; ///< mem.nv_store_latency

    /**
     * Every note's consumer (tx.*, lock.*, sched.*, commit.batch.*,
     * tx.abort.*, cp.* stats). Always-on and purely observational;
     * syncStats() has it export the concurrency subtrees only for
     * multi-core machines or once concurrency events were seen, so
     * sequential runs keep their exact stats schema. Mutable:
     * exportInto settles attribution from const stats accessors.
     */
    mutable telemetry::ContentionProfiler contention_;

    uint64_t polbShootdowns_ = 0; ///< remote invalidations broadcast
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_MACHINE_H
