#include "pmem/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace poat {

void
PoolRegistry::attach(OpenPool &op)
{
    op.pool.setVbase(space_.mapRandom(op.pool.size()));
    op.pool.setDurabilityHook(hook_);
    op.pool.setDurabilityPolicy(policy_);
    op.pool.setChecksumCounters(&counters_);
}

OpenPool &
PoolRegistry::create(const std::string &name, uint64_t size,
                     uint32_t log_size, uint32_t log_slots)
{
    if (idByName_.count(name))
        POAT_FATAL("pool_create: name already exists");
    const uint32_t id = takeId();
    auto op = std::make_unique<OpenPool>(name, id, size, log_size,
                                         log_slots);
    attach(*op);
    idByName_[name] = id;
    open_[id] = std::move(op);
    return *open_[id];
}

OpenPool &
PoolRegistry::open(const std::string &name)
{
    auto it = idByName_.find(name);
    if (it == idByName_.end())
        POAT_FATAL("pool_open: unknown pool name");
    const uint32_t id = it->second;
    if (find(id))
        POAT_FATAL("pool_open: pool is already open");
    auto disk_it = disk_.find(name);
    POAT_ASSERT(disk_it != disk_.end(), "pool known but image missing");

    auto op = std::make_unique<OpenPool>(name, id, disk_it->second);
    attach(*op);
    lastScrub_ = op->open_scrub;
    op->forEachLog([](UndoLog &log) { log.recover(); });
    disk_.erase(disk_it);
    open_[id] = std::move(op);
    return *open_[id];
}

void
PoolRegistry::close(uint32_t pool_id)
{
    OpenPool *op = find(pool_id);
    if (!op)
        POAT_FATAL("pool_close: pool is not open");
    POAT_ASSERT(!op->anyLogActive(), "pool_close with a live transaction");
    // Close semantics mirror closing a file: dirty cache lines are
    // written back before the mapping goes away.
    op->pool.persistAll();
    disk_.insert_or_assign(op->pool.name(), op->pool.durableImage());
    space_.unmap(op->pool.vbase());
    open_[pool_id].reset();
}

void
PoolRegistry::exportPool(const std::string &name, const std::string &path)
{
    std::vector<uint8_t> image;
    auto id_it = idByName_.find(name);
    const OpenPool *op =
        id_it == idByName_.end() ? nullptr : find(id_it->second);
    if (op) {
        image = op->pool.durableImage().dense();
    } else if (auto it = disk_.find(name); it != disk_.end()) {
        image = it->second.dense();
    } else {
        POAT_FATAL("exportPool: unknown pool name");
    }

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        POAT_FATAL("exportPool: cannot open output file");
    const size_t written = std::fwrite(image.data(), 1, image.size(), f);
    std::fclose(f);
    if (written != image.size())
        POAT_FATAL("exportPool: short write");
}

void
PoolRegistry::importPool(const std::string &name, const std::string &path)
{
    if (idByName_.count(name))
        POAT_FATAL("importPool: name already exists");

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        POAT_FATAL("importPool: cannot open input file");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    auto invalid = [&](const std::string &why) {
        return MediaError(name, 0, MediaStructure::Superblock,
                          "not a valid pool image: " + why);
    };
    if (size < static_cast<long>(Pool::kHeaderSize)) {
        std::fclose(f);
        throw invalid("file of " + std::to_string(size) +
                      " bytes is smaller than the pool header");
    }
    std::vector<uint8_t> image(static_cast<size_t>(size));
    const size_t got = std::fread(image.data(), 1, image.size(), f);
    std::fclose(f);
    if (got != image.size())
        POAT_FATAL("importPool: short read");

    PoolHeader h{};
    std::memcpy(&h, image.data(), sizeof(h));
    if (h.magic != PoolHeader::kMagic)
        throw invalid("bad magic");
    if (h.pool_size != image.size()) {
        throw invalid("header says " + std::to_string(h.pool_size) +
                      " bytes, file has " + std::to_string(image.size()));
    }

    // Assign a fresh system-wide id on import: the image may come from
    // a different process whose ids collide with ours. ObjectIDs inside
    // the pool are offsets relative to *its own* id, which external
    // references must re-derive anyway (same contract as NVML pools
    // moved between systems).
    idByName_[name] = takeId();
    disk_.insert_or_assign(name, PoolImage(image));
}

void
PoolRegistry::crashAll()
{
    // Pool-id order so machine-wide crash and recovery emit their
    // durability events in a reproducible sequence (the crash-point
    // explorer indexes events by position in this stream).
    for (const auto &op : open_) {
        if (!op)
            continue;
        op->pool.crash();
        // No allocator rescan here: the post-crash image may carry
        // media faults, and only recoverAll's scrub pass may read it.
        op->forEachLog([](UndoLog &log) { log.markCrashed(); });
    }
}

void
PoolRegistry::recoverAll()
{
    lastScrub_ = ScrubStats{};
    for (const auto &op : open_) {
        if (!op)
            continue;
        // Order matters: scrub repairs (or diagnoses) media faults
        // first, the allocator rescan then trusts every block header,
        // and undo replay finally trusts the log entries.
        lastScrub_.merge(scrubPool(op->pool));
        op->alloc.rescan();
        // Each slot recovers independently: a crash can freeze several
        // concurrent transactions mid-flight, some active (undo), some
        // committing (redo of deferred frees), in the same pool.
        op->forEachLog([](UndoLog &log) { log.recover(); });
    }
}

void
PoolRegistry::setDurabilityHook(DurabilityHook *hook)
{
    hook_ = hook;
    for (const auto &op : open_)
        if (op)
            op->pool.setDurabilityHook(hook);
}

void
PoolRegistry::setDurabilityPolicy(DurabilityPolicy policy)
{
    policy_ = policy;
    for (const auto &op : open_)
        if (op)
            op->pool.setDurabilityPolicy(policy);
}

size_t
PoolRegistry::openCount() const
{
    return static_cast<size_t>(
        std::count_if(open_.begin(), open_.end(),
                      [](const auto &op) { return op != nullptr; }));
}

std::vector<uint32_t>
PoolRegistry::openIds() const
{
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < open_.size(); ++id)
        if (open_[id])
            ids.push_back(id);
    return ids;
}

} // namespace poat
