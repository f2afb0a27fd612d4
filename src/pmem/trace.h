/**
 * @file
 * Dynamic-instruction trace interface: poat's substitute for the paper's
 * Pin front-end.
 *
 * Workloads and the pmem library execute natively (real data structures,
 * real allocator, real undo log) and report each dynamic instruction to a
 * TraceSink as it happens. A timing model (sim::Machine) implements the
 * sink and simulates the stream online; a NullTraceSink lets the library
 * run standalone (examples, functional tests) at full host speed.
 *
 * Dependence model. Load-like events (load, nvLoad) return a nonzero
 * *value tag* identifying the produced value. Any later event whose
 * address (loads/stores) or first input (alu) is computed from that
 * value passes the tag as its @p dep argument; kNoDep means the operand
 * is ready at dispatch. This is enough to reconstruct the critical paths
 * the paper's analysis relies on — pointer-chasing chains and
 * translation-before-use ordering — without a full register-renaming
 * front end.
 */
#ifndef POAT_PMEM_TRACE_H
#define POAT_PMEM_TRACE_H

#include <cstdint>

#include "common/note.h"
#include "pmem/oid.h"

namespace poat {

/** Dependence tag meaning "no producer; ready at dispatch". */
inline constexpr uint64_t kNoDep = 0;

/**
 * Receiver of the dynamic instruction stream.
 *
 * Typed virtuals cover the events that change simulated state: the
 * nine instructions, pool map/unmap, core switches, and the
 * software-translation brackets. Everything else — transaction spans,
 * op tags, lock and commit contention — arrives as one note() call.
 * Every virtual method has a benign default so sinks only override what
 * they model. `pc` parameters are synthetic call-site identifiers used
 * to index the branch predictor; they need only be stable per static
 * branch site.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * @p count generic single-cycle ALU instructions. Only the first
     * waits on the value tagged @p dep (if nonzero); the rest wait on
     * nothing, and none produces a tag (SIMULATOR.md, "Value tags").
     */
    virtual void alu(uint32_t count, uint64_t dep = kNoDep)
    {
        (void)count;
        (void)dep;
    }

    /** A conditional branch that resolved @p taken, at site @p pc. */
    virtual void branch(bool taken, uint64_t pc = 0, uint64_t dep = kNoDep)
    {
        (void)taken;
        (void)pc;
        (void)dep;
    }

    /**
     * A regular load from simulated virtual address @p vaddr whose
     * address was computed from the values tagged @p dep and @p dep2.
     * @return the value tag of the loaded value (nonzero).
     */
    virtual uint64_t load(uint64_t vaddr, uint64_t dep = kNoDep,
                          uint64_t dep2 = kNoDep)
    {
        (void)vaddr;
        (void)dep;
        (void)dep2;
        return ++fallbackTag_;
    }

    /** A regular store to @p vaddr (address produced by @p dep). */
    virtual void store(uint64_t vaddr, uint64_t dep = kNoDep)
    {
        (void)vaddr;
        (void)dep;
    }

    /**
     * An nvld: load through an ObjectID, translated in hardware.
     * @return the value tag of the loaded value (nonzero).
     */
    virtual uint64_t nvLoad(ObjectID oid, uint64_t dep = kNoDep,
                            uint64_t dep2 = kNoDep)
    {
        (void)oid;
        (void)dep;
        (void)dep2;
        return ++fallbackTag_;
    }

    /** An nvst: store through an ObjectID, translated in hardware. */
    virtual void nvStore(ObjectID oid, uint64_t dep = kNoDep)
    {
        (void)oid;
        (void)dep;
    }

    /** CLWB of the cache line containing virtual address @p vaddr. */
    virtual void clwb(uint64_t vaddr) { (void)vaddr; }

    /** CLWB addressed via ObjectID (OPT-mode persist path). */
    virtual void nvClwb(ObjectID oid) { (void)oid; }

    /** SFENCE: orders stores and retires pending CLWBs. */
    virtual void fence() {}

    /**
     * System event: pool @p pool_id was mapped at virtual base @p vbase
     * with @p size bytes. The OS updates the process's POT here (paper
     * section 3.3).
     */
    virtual void poolMapped(uint32_t pool_id, uint64_t vbase, uint64_t size)
    {
        (void)pool_id;
        (void)vbase;
        (void)size;
    }

    /** System event: pool @p pool_id was unmapped (pool_close). */
    virtual void poolUnmapped(uint32_t pool_id) { (void)pool_id; }

    /**
     * Scheduling event: subsequent instructions execute on simulated
     * core @p core (deterministic multi-core interleaving). Sinks that
     * model one core ignore it; sinks that wrap another sink must
     * forward it so replays interleave identically. Never emitted by
     * single-threaded runs, which keeps their traces and stats
     * byte-identical to the pre-multi-core format.
     */
    virtual void coreSwitch(uint32_t core) { (void)core; }

    /**
     * Region markers bracketing the software translator's emitted
     * instructions (SoftwareTranslator::translate). Timing sinks use
     * them to charge every cycle of the enclosed instructions to the
     * sw_translate CPI component — the cost the paper's hardware
     * removes (Table 2, Figure 12). Regions may nest; sinks that wrap
     * another sink must forward both markers (the trace recorder
     * persists them so replays attribute identically).
     */
    virtual void swTranslateBegin() {}

    /** End of a software-translation region (see swTranslateBegin). */
    virtual void swTranslateEnd() {}

    /**
     * An observation-only event (common/note.h): transaction spans, op
     * interning and switches, lock and commit-window contention, worker
     * lifecycle. Notes carry no instructions and no cycles, so sinks
     * that model no observer ignore them; a sink that wraps another
     * must forward every note so replays observe identically.
     */
    virtual void note(const Note &n) { (void)n; }

  private:
    uint64_t fallbackTag_ = 0;
};

/** Sink that ignores everything: native-speed library execution. */
class NullTraceSink : public TraceSink
{
};

/**
 * Sink that counts dynamic instructions but models no timing. Used by
 * the Table 2 experiment and by tests that pin down the exact
 * instruction expansion of library operations.
 */
class CountingTraceSink : public TraceSink
{
  public:
    void alu(uint32_t count, uint64_t) override { instructions += count; }

    void
    branch(bool, uint64_t, uint64_t) override
    {
        ++instructions;
        ++branches;
    }

    uint64_t
    load(uint64_t, uint64_t, uint64_t) override
    {
        ++instructions;
        return ++loads;
    }

    void store(uint64_t, uint64_t) override { ++instructions; ++stores; }

    uint64_t
    nvLoad(ObjectID, uint64_t, uint64_t) override
    {
        ++instructions;
        return ++nvLoads;
    }

    void nvStore(ObjectID, uint64_t) override { ++instructions; ++nvStores; }
    void clwb(uint64_t) override { ++instructions; ++clwbs; }
    void nvClwb(ObjectID) override { ++instructions; ++clwbs; }
    void fence() override { ++instructions; ++fences; }

    void
    reset()
    {
        instructions = branches = loads = stores = 0;
        nvLoads = nvStores = clwbs = fences = 0;
    }

    uint64_t instructions = 0;
    uint64_t branches = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t nvLoads = 0;
    uint64_t nvStores = 0;
    uint64_t clwbs = 0;
    uint64_t fences = 0;
};

} // namespace poat

#endif // POAT_PMEM_TRACE_H
