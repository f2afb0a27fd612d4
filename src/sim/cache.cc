#include "sim/cache.h"

#include "common/bits.h"

namespace poat {
namespace sim {

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), assoc_(cfg.assoc), latency_(cfg.latency)
{
    static_assert(kLineBytes == 1u << kLineShift);
    static_assert(sizeof(Line) == 16);
    const uint32_t lines = cfg.size_bytes / kLineBytes;
    POAT_ASSERT(lines % cfg.assoc == 0, "cache geometry mismatch");
    const uint32_t sets = lines / cfg.assoc;
    POAT_ASSERT(isPow2(sets), "cache set count must be a power of two");
    setMask_ = sets - 1;
    tagShift_ = kLineShift + floorLog2(sets);
    lines_.resize(lines);
}

bool
Cache::access(uint64_t paddr, bool is_write)
{
    Line *base = &lines_[setStart(paddr)];
    const uint64_t want = metaOf(paddr) | kDirty;
    const uint64_t dirty = is_write ? kDirty : 0;
    ++tick_;

    for (uint32_t w = 0; w < assoc_; ++w) {
        Line &line = base[w];
        if ((line.meta | kDirty) == want) {
            line.meta |= dirty;
            line.lru = tick_;
            ++hits_;
            return true;
        }
    }

    // Miss. Stamps of valid ways are distinct and nonzero, so this
    // picks the last invalid way if there is one, else the LRU way.
    Line *victim = base;
    for (uint32_t w = 1; w < assoc_; ++w) {
        if (base[w].lru <= victim->lru)
            victim = &base[w];
    }
    ++misses_;
    if (victim->meta & kDirty)
        ++writebacks_;
    victim->meta = (want & ~kDirty) | dirty;
    victim->lru = tick_;
    return false;
}

bool
Cache::contains(uint64_t paddr) const
{
    const Line *base = &lines_[setStart(paddr)];
    const uint64_t want = metaOf(paddr) | kDirty;
    for (uint32_t w = 0; w < assoc_; ++w) {
        if ((base[w].meta | kDirty) == want)
            return true;
    }
    return false;
}

bool
Cache::flushLine(uint64_t paddr)
{
    Line *base = &lines_[setStart(paddr)];
    const uint64_t clean = metaOf(paddr);
    for (uint32_t w = 0; w < assoc_; ++w) {
        Line &line = base[w];
        if (line.meta == (clean | kDirty)) {
            line.meta = clean;
            ++writebacks_;
            return true;
        }
    }
    return false;
}

void
Cache::reset()
{
    for (Line &line : lines_)
        line = Line{};
    tick_ = 0;
}

CacheHierarchy::CacheHierarchy(const MachineConfig &cfg)
    : l3_("L3", cfg.l3), memLatency_(cfg.mem_latency)
{
    const uint32_t n = cfg.cores ? cfg.cores : 1;
    l1s_.reserve(n);
    l2s_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        l1s_.emplace_back("L1D", cfg.l1d);
        l2s_.emplace_back("L2", cfg.l2);
    }
}

CacheHierarchy::AccessResult
CacheHierarchy::accessClassified(uint32_t core, uint64_t paddr,
                                 bool is_write)
{
    // Lower levels are filled (and LRU-touched) only when the upper
    // level misses, mimicking a mostly-inclusive hierarchy. They are
    // filled clean: only the L1s ever hold dirty lines.
    if (l1s_[core].access(paddr, is_write))
        return {l1s_[core].latency(), Level::L1};
    if (l2s_[core].access(paddr, false))
        return {l2s_[core].latency(), Level::L2};
    if (l3_.access(paddr, false))
        return {l3_.latency(), Level::L3};
    ++memAccesses_;
    return {memLatency_, Level::Memory};
}

void
CacheHierarchy::flushLine(uint64_t paddr)
{
    for (Cache &c : l1s_)
        c.flushLine(paddr);
}

void
CacheHierarchy::reset()
{
    for (Cache &c : l1s_)
        c.reset();
    for (Cache &c : l2s_)
        c.reset();
    l3_.reset();
}

} // namespace sim
} // namespace poat
