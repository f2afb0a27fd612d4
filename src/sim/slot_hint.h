/**
 * @file
 * SlotHint: a direct-mapped key -> slot memo in front of the
 * associative scans of the TLB and POLB models.
 *
 * A hint is only a guess. The caller checks that the hinted slot holds
 * the key before using it and falls back to its scan otherwise, so a
 * stale or colliding hint costs one scan, never a different answer.
 * This speeds up the host only: it models no hardware structure and
 * changes no simulated statistic.
 */
#ifndef POAT_SIM_SLOT_HINT_H
#define POAT_SIM_SLOT_HINT_H

#include <cstdint>
#include <vector>

namespace poat {
namespace sim {

class SlotHint
{
  public:
    /** Size the table for a structure of @p slots entries. */
    explicit SlotHint(uint32_t slots)
    {
        // At least 4 buckets per slot keeps collisions rare.
        unsigned bits = 1;
        while ((uint64_t{1} << bits) < uint64_t{4} * slots)
            ++bits;
        shift_ = 64 - bits;
        hint_.assign(size_t{1} << bits, 0);
    }

    /** The slot last recorded for @p key's bucket (assignable). */
    uint32_t &
    operator[](uint64_t key)
    {
        // Fibonacci hashing: the top bits of the product mix every
        // key bit, so neither page runs nor pool ids cluster.
        return hint_[(key * 0x9e3779b97f4a7c15ull) >> shift_];
    }

  private:
    std::vector<uint32_t> hint_;
    unsigned shift_;
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_SLOT_HINT_H
