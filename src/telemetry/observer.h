/**
 * @file
 * The one interface through which sim::Machine hands its per-access
 * outcomes to optional observers (the interval timeline, the Chrome
 * trace exporter, test probes).
 *
 * The machine calls retired() once per instruction event of the
 * TraceSink stream, after the core model charged it, and
 * coreSwitched() when the active core changes. For nv accesses the
 * record carries the resolved translation: whether the POLB hit or the
 * POT was walked, and the cycles of each step. Observers only read: a
 * run's metrics and stats are byte-identical with any set of observers
 * attached. With none attached the machine builds no record at all.
 *
 * Telemetry does not depend on sim, so the record uses plain integers
 * (the ObjectID travels as its raw 64-bit value).
 */
#ifndef POAT_TELEMETRY_OBSERVER_H
#define POAT_TELEMETRY_OBSERVER_H

#include <cstdint>

namespace poat {
namespace telemetry {

/** One retired instruction event, as the machine resolved it. */
struct Retired
{
    /** The TraceSink instruction event that retired. */
    enum class Kind : uint8_t
    {
        Alu,
        Branch,
        Load,
        Store,
        NvLoad,
        NvStore,
        Clwb,
        NvClwb,
        Fence,
    };

    uint32_t core = 0;
    Kind kind = Kind::Alu;
    uint64_t start_cycle = 0; ///< core clock before the charge
    uint64_t end_cycle = 0;   ///< core clock after the charge

    /// @name nv accesses only (NvLoad, NvStore, NvClwb)
    /// @{
    uint64_t oid = 0;      ///< raw ObjectID
    bool polb_hit = false; ///< false: the POT was walked
    uint32_t polb_cycles = 0;
    uint32_t pot_cycles = 0;
    uint32_t tlb_cycles = 0;  ///< TLB-miss walk; 0 on a hit
    uint32_t data_cycles = 0; ///< cache access, or the flush cost
    /// @}

    bool isNv() const
    {
        return kind == Kind::NvLoad || kind == Kind::NvStore ||
            kind == Kind::NvClwb;
    }
};

/** Receiver of a machine's retired instructions and core switches. */
class Observer
{
  public:
    virtual ~Observer() = default;

    /** One instruction event, after the core model charged it. */
    virtual void retired(const Retired &r) = 0;

    /** The next instructions retire on @p core. */
    virtual void coreSwitched(uint32_t core) { (void)core; }
};

} // namespace telemetry
} // namespace poat

#endif // POAT_TELEMETRY_OBSERVER_H
