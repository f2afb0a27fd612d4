/**
 * @file
 * Set-associative cache model and the three-level hierarchy of the
 * paper's Table 4 (L1D 32 KB/8-way/3cy, L2 256 KB/8-way/8cy, L3
 * 8 MB/16-way/27cy, 64 B lines, write-back write-allocate, LRU).
 *
 * The model tracks tag state only (no data): enough for hit/miss timing
 * and dirty-line bookkeeping. Caches are indexed and tagged with
 * physical addresses; writeback traffic is tracked statistically but
 * charged no extra latency, matching the paper's fixed per-level hit
 * costs.
 *
 * Only the L1s ever hold dirty lines. A store dirties its line in the
 * L1; the L2 and L3 are filled clean on an L1 miss, and an L1 dirty
 * eviction is counted as an L1 writeback without writing the lower
 * levels. So a CLWB (CacheHierarchy::flushLine) needs to clean the L1s
 * alone: probing the L2s and the L3 could never find a dirty line.
 */
#ifndef POAT_SIM_CACHE_H
#define POAT_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "sim/config.h"

namespace poat {
namespace sim {

/** One set-associative, write-back, true-LRU cache. */
class Cache
{
  public:
    static constexpr uint32_t kLineBytes = 64;

    Cache(std::string name, const CacheConfig &cfg);

    /**
     * Look up (and on miss, fill) the line containing @p paddr.
     * @param is_write marks the line dirty on hit/fill.
     * @return true on hit.
     */
    bool access(uint64_t paddr, bool is_write);

    /** Probe without fill or LRU update. */
    bool contains(uint64_t paddr) const;

    /**
     * CLWB semantics: if present and dirty, write the line back (clean
     * it) but keep it resident.
     * @return true iff a writeback happened.
     */
    bool flushLine(uint64_t paddr);

    /** Invalidate everything (between experiment phases). */
    void reset();

    const std::string &name() const { return name_; }
    uint32_t latency() const { return latency_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }

    double
    missRate() const
    {
        const uint64_t n = hits_ + misses_;
        return n ? static_cast<double>(misses_) / n : 0.0;
    }

  private:
    /** One way: 16 bytes, so a 16-way set spans four host cache lines. */
    struct Line
    {
        /** tag << 2 | kDirty | kValid; 0 while the way is invalid. */
        uint64_t meta = 0;
        /** Recency stamp; 0 exactly while invalid (stamps start at 1). */
        uint64_t lru = 0;
    };

    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kDirty = 2;
    static constexpr unsigned kLineShift = 6; ///< log2(kLineBytes)

    /** Index in lines_ of the first way of @p paddr's set. */
    size_t
    setStart(uint64_t paddr) const
    {
        return ((paddr >> kLineShift) & setMask_) * assoc_;
    }

    /** Valid, clean meta word of @p paddr's line. */
    uint64_t
    metaOf(uint64_t paddr) const
    {
        return (paddr >> tagShift_) << 2 | kValid;
    }

    std::string name_;
    uint64_t setMask_;  ///< sets - 1 (the set count is a power of two)
    unsigned tagShift_; ///< kLineShift + log2(sets)
    uint32_t assoc_;
    uint32_t latency_;
    std::vector<Line> lines_; ///< sets * assoc_, set-major
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

/**
 * The L1D/L2/L3 + memory stack; returns end-to-end access latency.
 *
 * With cfg.cores > 1 the hierarchy holds one private L1/L2 pair per
 * core in front of the shared L3. The model is tag-only and the
 * multi-core scheduler interleaves cores one at a time, so no coherence
 * protocol is modeled: a line can be resident in several private
 * caches, and CLWB cleans it in every core's L1 (a real CLWB is
 * coherent).
 */
class CacheHierarchy
{
  public:
    /** The level that ultimately serviced an access. */
    enum class Level : uint8_t { L1, L2, L3, Memory };

    /** Latency of one access plus who serviced it (CPI attribution). */
    struct AccessResult
    {
        uint32_t latency;
        Level level;
    };

    explicit CacheHierarchy(const MachineConfig &cfg);

    /**
     * Perform a data access through core @p core's private L1/L2.
     * @return the hit latency of the first level that hits (or memory
     *         latency on a full miss), tagged with that level.
     */
    AccessResult accessClassified(uint32_t core, uint64_t paddr,
                                  bool is_write);

    /** Single-core convenience (core 0). */
    AccessResult
    accessClassified(uint64_t paddr, bool is_write)
    {
        return accessClassified(0, paddr, is_write);
    }

    /** accessClassified() for callers that only need the latency. */
    uint32_t
    access(uint64_t paddr, bool is_write)
    {
        return accessClassified(0, paddr, is_write).latency;
    }

    /** Per-core access() for callers that only need the latency. */
    uint32_t
    access(uint32_t core, uint64_t paddr, bool is_write)
    {
        return accessClassified(core, paddr, is_write).latency;
    }

    /**
     * CLWB: clean the line in every core's L1 and keep it resident
     * (only L1s hold dirty lines; see the file comment).
     */
    void flushLine(uint64_t paddr);

    void reset();

    uint32_t cores() const { return static_cast<uint32_t>(l1s_.size()); }

    Cache &l1(uint32_t core = 0) { return l1s_[core]; }
    Cache &l2(uint32_t core = 0) { return l2s_[core]; }
    Cache &l3() { return l3_; }
    const Cache &l1(uint32_t core = 0) const { return l1s_[core]; }
    const Cache &l2(uint32_t core = 0) const { return l2s_[core]; }
    const Cache &l3() const { return l3_; }
    uint64_t memAccesses() const { return memAccesses_; }

  private:
    std::vector<Cache> l1s_; ///< one private L1D per core
    std::vector<Cache> l2s_; ///< one private L2 per core
    Cache l3_;               ///< shared
    uint32_t memLatency_;
    uint64_t memAccesses_ = 0;
};

} // namespace sim
} // namespace poat

#endif // POAT_SIM_CACHE_H
