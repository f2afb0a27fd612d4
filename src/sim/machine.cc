#include "sim/machine.h"

#include <algorithm>

#include "sim/core_inorder.h"
#include "sim/core_ooo.h"

namespace poat {
namespace sim {

namespace {

using Kind = telemetry::Retired::Kind;

/** CPI component of the cache level that serviced an access. */
CpiComponent
levelComp(CacheHierarchy::Level level)
{
    switch (level) {
      case CacheHierarchy::Level::L1:
        return CpiComponent::L1D;
      case CacheHierarchy::Level::L2:
        return CpiComponent::L2;
      case CacheHierarchy::Level::L3:
        return CpiComponent::L3;
      case CacheHierarchy::Level::Memory:
        break;
    }
    return CpiComponent::Mem;
}

} // namespace

Machine::CoreState::CoreState(const MachineConfig &cfg)
    : tlb(cfg.dtlb_entries),
      polb(cfg.polb_entries, cfg.polb_assoc, cfg.polb_replacement)
{
    if (cfg.core == CoreType::InOrder)
        model = std::make_unique<InOrderCore>(cfg);
    else
        model = std::make_unique<OooCore>(cfg);
}

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), caches_(cfg), pot_(cfg.pot_entries)
{
    const uint32_t n = cfg.cores ? cfg.cores : 1;
    cores_.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        cores_.push_back(std::make_unique<CoreState>(cfg));

    hXlatLat_ = &stats_.histogram("polb.lookup_latency");
    hPotProbes_ = &stats_.histogram("pot.walk_probes");
    hPotLat_ = &stats_.histogram("pot.walk_latency");
    hNvLoadLat_ = &stats_.histogram("mem.nv_load_latency");
    hNvStoreLat_ = &stats_.histogram("mem.nv_store_latency");

    stats_.formula("polb.miss_rate", "polb.misses", "polb.accesses");
    stats_.formula("tlb.miss_rate", "tlb.misses", "tlb.accesses");
    stats_.formula("cache.l1d.miss_rate", "cache.l1d.misses",
                   "cache.l1d.accesses");
    stats_.formula("cache.l2.miss_rate", "cache.l2.misses",
                   "cache.l2.accesses");
    stats_.formula("cache.l3.miss_rate", "cache.l3.misses",
                   "cache.l3.accesses");
    stats_.formula("branch.mispredict_rate", "branch.mispredicts",
                   "branch.lookups");
    stats_.formula("core.ipc", "core.instructions", "core.cycles");
}

uint64_t
Machine::cycles() const
{
    uint64_t makespan = 0;
    for (const auto &c : cores_)
        makespan = std::max(makespan, c->model->cycles());
    return makespan;
}

uint64_t
Machine::instructions() const
{
    uint64_t n = 0;
    for (const auto &c : cores_)
        n += c->instructions;
    return n;
}

uint32_t
Machine::tlbPenalty(uint64_t vaddr)
{
    return cur().tlb.access(vaddr) ? 0 : cfg_.tlb_miss_penalty;
}

void
Machine::addObserver(telemetry::Observer *observer)
{
    if (observers_.empty())
        for (const auto &c : cores_)
            observedClock_.push_back(c->model->cycles());
    observers_.push_back(observer);
}

void
Machine::notifyRetired(Kind kind, uint64_t oid, const NvXlat *x,
                       uint32_t data_cycles)
{
    telemetry::Retired r;
    r.core = active_;
    r.kind = kind;
    r.start_cycle = observedClock_[active_];
    r.end_cycle = observedClock_[active_] = cur().model->cycles();
    if (x) {
        r.oid = oid;
        r.polb_hit = x->polbHit;
        r.polb_cycles = x->polb;
        r.pot_cycles = x->pot;
        r.tlb_cycles = x->tlb;
        r.data_cycles = data_cycles;
    }
    for (telemetry::Observer *o : observers_)
        o->retired(r);
}

void
Machine::coreSwitch(uint32_t core)
{
    POAT_ASSERT(core < cores_.size(), "coreSwitch to a core beyond N");
    const uint32_t prev = active_;
    contention_.coreSwitchIn(core, prev, cycles());
    active_ = core;
    for (telemetry::Observer *o : observers_)
        o->coreSwitched(core);
}

void
Machine::alu(uint32_t count, uint64_t dep)
{
    CoreState &c = cur();
    c.instructions += count;
    c.model->alu(count, dep);
    retired(Kind::Alu);
}

void
Machine::branch(bool taken, uint64_t pc, uint64_t dep)
{
    CoreState &c = cur();
    ++c.instructions;
    const bool mispredict = c.bp.predictAndUpdate(pc, taken);
    c.model->branch(mispredict, dep);
    retired(Kind::Branch);
}

uint64_t
Machine::load(uint64_t vaddr, uint64_t dep, uint64_t dep2)
{
    CoreState &c = cur();
    ++c.instructions;
    ++c.loads;
    AccessCosts costs;
    costs.tlb = tlbPenalty(vaddr);
    const uint64_t pa = pageTable_.translate(vaddr);
    const auto acc = caches_.accessClassified(active_, pa, false);
    costs.mem = acc.latency;
    costs.mem_comp = levelComp(acc.level);
    const uint64_t tag = c.model->load(costs, dep, dep2);
    retired(Kind::Load);
    return tag;
}

void
Machine::store(uint64_t vaddr, uint64_t dep)
{
    CoreState &c = cur();
    ++c.instructions;
    ++c.stores;
    AccessCosts costs;
    costs.tlb = tlbPenalty(vaddr);
    const uint64_t pa = pageTable_.translate(vaddr);
    const auto acc = caches_.accessClassified(active_, pa, true);
    costs.mem = acc.latency;
    costs.mem_comp = levelComp(acc.level);
    c.model->store(costs, dep);
    retired(Kind::Store);
}

uint32_t
Machine::potWalkCharge(const PotWalk &walk, bool parallel)
{
    if (!cfg_.pot_walk_in_memory)
        return parallel ? cfg_.pot_walk_parallel
                        : cfg_.pot_walk_pipelined;
    // Memory-mode walk: each probe reads its 16-byte POT slot through
    // the cache hierarchy (the POT is ordinary cacheable memory at a
    // dedicated physical region), plus per-probe compare logic.
    uint32_t cycles = 0;
    const uint32_t recorded =
        std::min(walk.probes, PotWalk::kMaxRecorded);
    for (uint32_t i = 0; i < recorded; ++i) {
        const uint64_t pa = kPotPhysBase + 16ull * walk.slots[i];
        cycles += caches_.access(active_, pa, false) +
            cfg_.pot_probe_logic_cycles;
    }
    if (parallel)
        cycles += cfg_.page_walk_cycles;
    return cycles;
}

Machine::NvXlat
Machine::translateNv(ObjectID oid)
{
    const bool ideal = cfg_.ideal_translation;
    CoreState &c = cur();
    NvXlat x;

    if (cfg_.polb_design == PolbDesign::Pipelined) {
        // POLB lookup happens in AGEN, before the TLB/L1 access. The
        // in-order pipeline sees only the residual bubble of this
        // extra (pipelined) stage; the OoO core adds the full latency
        // to address generation.
        x.polb = ideal ? 0
                 : cfg_.core == CoreType::InOrder
                     ? cfg_.polb_inorder_hit_charge
                     : cfg_.polb_latency;
        uint64_t base;
        if (auto hit = c.polb.lookup(oid.poolId())) {
            base = *hit;
            x.polbHit = true;
        } else {
            const PotWalk w = pot_.walk(oid.poolId());
            if (!w.found)
                POAT_PANIC("POT miss: nv access to an unmapped pool");
            x.pot = ideal ? 0 : potWalkCharge(w, /*parallel=*/false);
            hPotProbes_->record(w.probes);
            hPotLat_->record(x.pot);
            base = w.base;
            c.polb.insert(oid.poolId(), base);
        }
        hXlatLat_->record(x.polb + x.pot);
        const uint64_t vaddr = base + oid.offset();
        x.tlb = tlbPenalty(vaddr);
        x.paddr = pageTable_.translate(vaddr);
        return x;
    }

    // Parallel: the POLB maps the upper 52 ObjectID bits straight to a
    // physical frame; the low 12 bits index the VIPT L1 in parallel, so
    // a hit costs nothing extra and the TLB is not consulted.
    const uint64_t key = oid.raw >> 12;
    if (auto hit = c.polb.lookup(key)) {
        x.paddr = (*hit) * kPageSize + oid.offset() % kPageSize;
        x.polbHit = true;
        hXlatLat_->record(0);
        return x;
    }
    const PotWalk w = pot_.walk(oid.poolId());
    if (!w.found)
        POAT_PANIC("POT miss: nv access to an unmapped pool");
    if (!ideal)
        x.pot = potWalkCharge(w, /*parallel=*/true);
    hPotProbes_->record(w.probes);
    hPotLat_->record(x.pot);
    hXlatLat_->record(x.pot);
    const uint64_t vaddr = w.base + oid.offset();
    const uint64_t pfn = pageTable_.frameOf(vaddr);
    c.polb.insert(key, pfn);
    x.paddr = pfn * kPageSize + oid.offset() % kPageSize;
    return x;
}

uint64_t
Machine::nvLoad(ObjectID oid, uint64_t dep, uint64_t dep2)
{
    CoreState &c = cur();
    ++c.instructions;
    ++c.nvLoads;
    const NvXlat x = translateNv(oid);
    const auto acc = caches_.accessClassified(active_, x.paddr, false);
    hNvLoadLat_->record(x.preStall() + acc.latency);
    AccessCosts costs{x.polb, x.pot, x.tlb, acc.latency,
                      levelComp(acc.level)};
    const uint64_t tag = c.model->load(costs, dep, dep2);
    retired(Kind::NvLoad, oid.raw, &x, acc.latency);
    return tag;
}

void
Machine::nvStore(ObjectID oid, uint64_t dep)
{
    CoreState &c = cur();
    ++c.instructions;
    ++c.nvStores;
    const NvXlat x = translateNv(oid);
    const auto acc = caches_.accessClassified(active_, x.paddr, true);
    hNvStoreLat_->record(x.preStall() + acc.latency);
    AccessCosts costs{x.polb, x.pot, x.tlb, acc.latency,
                      levelComp(acc.level)};
    c.model->store(costs, dep);
    retired(Kind::NvStore, oid.raw, &x, acc.latency);
}

void
Machine::clwb(uint64_t vaddr)
{
    CoreState &c = cur();
    ++c.instructions;
    ++c.clwbs;
    AccessCosts costs;
    costs.tlb = tlbPenalty(vaddr);
    const uint64_t pa = pageTable_.translate(vaddr);
    caches_.flushLine(pa);
    c.model->clwb(costs, cfg_.clwb_latency);
    retired(Kind::Clwb);
}

void
Machine::nvClwb(ObjectID oid)
{
    CoreState &c = cur();
    ++c.instructions;
    ++c.clwbs;
    const NvXlat x = translateNv(oid);
    caches_.flushLine(x.paddr);
    AccessCosts costs{x.polb, x.pot, x.tlb, 0, CpiComponent::L1D};
    c.model->clwb(costs, cfg_.clwb_latency);
    retired(Kind::NvClwb, oid.raw, &x, cfg_.clwb_latency);
}

void
Machine::fence()
{
    CoreState &c = cur();
    ++c.instructions;
    ++c.fences;
    c.model->fence();
    retired(Kind::Fence);
}

void
Machine::poolMapped(uint32_t pool_id, uint64_t vbase, uint64_t)
{
    pot_.insert(pool_id, vbase);
}

void
Machine::swTranslateBegin()
{
    CoreState &c = cur();
    if (c.swDepth++ == 0)
        c.model->setSwTranslate(true);
}

void
Machine::swTranslateEnd()
{
    CoreState &c = cur();
    POAT_ASSERT(c.swDepth > 0, "unbalanced swTranslateEnd");
    if (--c.swDepth == 0)
        c.model->setSwTranslate(false);
}

void
Machine::note(const Note &n)
{
    const CoreState &c = cur();
    contention_.note(n, {active_, c.model->cycles(), cycles(),
                         c.clwbs + c.fences});
}

void
Machine::poolUnmapped(uint32_t pool_id)
{
    pot_.remove(pool_id);
    // POLB shootdown: every core's POLB drops its entries for the
    // pool, the hardware analogue of a TLB shootdown IPI. The
    // initiating core's invalidation is local; remote cores count as
    // broadcast shootdowns.
    for (auto &c : cores_) {
        if (cfg_.polb_design == PolbDesign::Pipelined) {
            c->polb.invalidateIf(
                [pool_id](uint64_t key) { return key == pool_id; });
        } else {
            c->polb.invalidateIf([pool_id](uint64_t key) {
                return (key >> 20) == pool_id;
            });
        }
    }
    polbShootdowns_ += cores_.size() - 1;
}

void
Machine::syncStats() const
{
    StatsRegistry &reg = stats_;
    const bool multi = cores_.size() > 1;

    uint64_t cyc_max = 0, ins = 0, uops = 0;
    uint64_t loads = 0, stores = 0, nv_loads = 0, nv_stores = 0;
    uint64_t clwbs = 0, fences = 0;
    uint64_t tlb_hits = 0, tlb_misses = 0;
    uint64_t polb_hits = 0, polb_misses = 0, polb_accesses = 0;
    uint64_t polb_evictions = 0, polb_capacity = 0;
    uint64_t br_lookups = 0, br_mispredicts = 0;
    uint64_t l1_hits = 0, l1_misses = 0, l1_wbs = 0;
    uint64_t l2_hits = 0, l2_misses = 0, l2_wbs = 0;

    for (size_t i = 0; i < cores_.size(); ++i) {
        const CoreState &c = *cores_[i];
        const CpiStack &cpi = c.model->cpi();
        POAT_ASSERT(cpi.total() == c.model->cycles(),
                    "CPI stack does not sum to total cycles");
        if (multi) {
            const std::string p = "core." + std::to_string(i) + ".";
            reg.counter(p + "cycles") = c.model->cycles();
            reg.counter(p + "instructions") = c.instructions;
            reg.counter(p + "uops") = c.model->uopCount();
            reg.cpiStack(p + "cpi") = cpi;
        }
        cyc_max = std::max(cyc_max, c.model->cycles());
        ins += c.instructions;
        uops += c.model->uopCount();
        loads += c.loads;
        stores += c.stores;
        nv_loads += c.nvLoads;
        nv_stores += c.nvStores;
        clwbs += c.clwbs;
        fences += c.fences;
        tlb_hits += c.tlb.hits();
        tlb_misses += c.tlb.misses();
        polb_hits += c.polb.hits();
        polb_misses += c.polb.misses();
        polb_accesses += c.polb.accesses();
        polb_evictions += c.polb.evictions();
        polb_capacity += c.polb.capacity();
        br_lookups += c.bp.branches();
        br_mispredicts += c.bp.mispredicts();
        const uint32_t ci = static_cast<uint32_t>(i);
        l1_hits += caches_.l1(ci).hits();
        l1_misses += caches_.l1(ci).misses();
        l1_wbs += caches_.l1(ci).writebacks();
        l2_hits += caches_.l2(ci).hits();
        l2_misses += caches_.l2(ci).misses();
        l2_wbs += caches_.l2(ci).writebacks();
    }

    // Flat machine-wide keys: identical to the single-core naming when
    // N == 1 (the aggregates degenerate to core 0's counters), so
    // golden baselines and stats_diff gates survive unchanged.
    reg.counter("core.cycles") = cyc_max;
    reg.counter("core.instructions") = ins;
    reg.counter("core.uops") = uops;
    if (!multi) {
        reg.cpiStack("core.cpi") = cores_[0]->model->cpi();
    } else {
        // An aggregate stack would sum to total core-cycles, not the
        // makespan "core.cycles" reports; per-core stacks above are
        // the truth, and a machine-wide one would break the
        // sum == cycles contract, so none is emitted.
        reg.counter("core.count") = cores_.size();
        reg.counter("polb.shootdowns") = polbShootdowns_;
    }
    reg.counter("mem.loads") = loads;
    reg.counter("mem.stores") = stores;
    reg.counter("mem.nv_loads") = nv_loads;
    reg.counter("mem.nv_stores") = nv_stores;
    reg.counter("mem.clwbs") = clwbs;
    reg.counter("mem.fences") = fences;
    reg.counter("cache.l1d.hits") = l1_hits;
    reg.counter("cache.l1d.misses") = l1_misses;
    reg.counter("cache.l1d.accesses") = l1_hits + l1_misses;
    reg.counter("cache.l1d.writebacks") = l1_wbs;
    reg.counter("cache.l2.hits") = l2_hits;
    reg.counter("cache.l2.misses") = l2_misses;
    reg.counter("cache.l2.accesses") = l2_hits + l2_misses;
    reg.counter("cache.l2.writebacks") = l2_wbs;
    reg.counter("cache.l3.hits") = caches_.l3().hits();
    reg.counter("cache.l3.misses") = caches_.l3().misses();
    reg.counter("cache.l3.accesses") =
        caches_.l3().hits() + caches_.l3().misses();
    reg.counter("cache.l3.writebacks") = caches_.l3().writebacks();
    reg.counter("cache.mem_accesses") = caches_.memAccesses();
    reg.counter("tlb.hits") = tlb_hits;
    reg.counter("tlb.misses") = tlb_misses;
    reg.counter("tlb.accesses") = tlb_hits + tlb_misses;
    reg.counter("polb.hits") = polb_hits;
    reg.counter("polb.misses") = polb_misses;
    reg.counter("polb.accesses") = polb_accesses;
    reg.counter("polb.evictions") = polb_evictions;
    reg.counter("polb.capacity") = polb_capacity;
    reg.counter("pot.walks") = pot_.walks();
    reg.counter("pot.probes") = pot_.probesTotal();
    reg.counter("pot.live_entries") = pot_.liveEntries();
    reg.counter("branch.lookups") = br_lookups;
    reg.counter("branch.mispredicts") = br_mispredicts;
    reg.counter("vm.mapped_pages") = pageTable_.mappedPages();
    contention_.exportInto(reg, cyc_max, multi);
}

const StatsRegistry &
Machine::stats() const
{
    syncStats();
    return stats_;
}

void
Machine::dumpStats(std::ostream &os) const
{
    stats().dump(os);
}

void
Machine::dumpStatsJson(std::ostream &os, int indent) const
{
    stats().dumpJson(os, indent);
}

MachineMetrics
Machine::metrics() const
{
    MachineMetrics m;
    m.cycles = cycles();
    for (const auto &cp : cores_) {
        const CoreState &c = *cp;
        m.instructions += c.instructions;
        m.loads += c.loads;
        m.stores += c.stores;
        m.nv_loads += c.nvLoads;
        m.nv_stores += c.nvStores;
        m.clwbs += c.clwbs;
        m.fences += c.fences;
        m.polb_hits += c.polb.hits();
        m.polb_misses += c.polb.misses();
        m.polb_evictions += c.polb.evictions();
        m.tlb_misses += c.tlb.misses();
        m.branch_mispredicts += c.bp.mispredicts();
    }
    for (uint32_t i = 0; i < caches_.cores(); ++i)
        m.l1d_misses += caches_.l1(i).misses();
    m.polb_shootdowns = polbShootdowns_;
    m.pot_walks = pot_.walks();
    m.pot_walk_probes = pot_.probesTotal();
    return m;
}

} // namespace sim
} // namespace poat
