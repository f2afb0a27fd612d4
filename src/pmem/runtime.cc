#include "pmem/runtime.h"

#include <vector>

namespace poat {

namespace {

/** Branch-site id for the persist/copy loops (predictable loops). */
constexpr uint64_t kPcLibLoop = 0x5000;

} // namespace

PmemRuntime::PmemRuntime(const RuntimeOptions &opts, TraceSink *sink)
    : opts_(opts), sink_(sink ? sink : &nullSink_),
      registry_(opts.aslr_seed), translator_(registry_.addressSpace())
{
    translator_.setPredictorEnabled(opts.base_predictor);
}

OpenPool &
PmemRuntime::poolOf(const ObjectRef &ref)
{
    return registry_.get(ref.oid.poolId());
}

OpenPool &
PmemRuntime::poolOf(ObjectID oid)
{
    return registry_.get(oid.poolId());
}

// --------------------------------------------------------------------
// Pool management
// --------------------------------------------------------------------

uint32_t
PmemRuntime::poolCreate(const std::string &name, uint64_t size,
                        uint32_t log_size)
{
    OpenPool &op = registry_.create(name, size, log_size,
                                    opts_.log_slots);
    translator_.addPool(op.pool.id(), op.pool.vbase());
    sink_->alu(costs::kPoolOpen);
    sink_->poolMapped(op.pool.id(), op.pool.vbase(), op.pool.size());
    return op.pool.id();
}

uint32_t
PmemRuntime::poolOpen(const std::string &name)
{
    OpenPool &op = registry_.open(name);
    translator_.addPool(op.pool.id(), op.pool.vbase());
    sink_->alu(costs::kPoolOpen);
    sink_->poolMapped(op.pool.id(), op.pool.vbase(), op.pool.size());
    return op.pool.id();
}

void
PmemRuntime::poolClose(uint32_t pool_id)
{
    sink_->alu(costs::kPoolClose);
    sink_->poolUnmapped(pool_id);
    translator_.removePool(pool_id);
    registry_.close(pool_id);
}

ObjectID
PmemRuntime::poolRoot(uint32_t pool_id, uint32_t size)
{
    OpenPool &op = registry_.get(pool_id);
    sink_->alu(costs::kPoolRoot);
    // The library reads the root descriptor from the pool header, which
    // it addresses directly through its own mapping.
    sink_->load(op.pool.vbase() + offsetof(PoolHeader, root_off));

    PoolHeader h = op.pool.header();
    if (h.root_off != 0) {
        POAT_ASSERT(h.root_size >= size, "pool_root: size grew");
        return ObjectID(pool_id, h.root_off);
    }

    // First use: allocate and zero the root object, then publish it in
    // the header.
    const ObjectID root = pmalloc(pool_id, size);
    std::vector<uint8_t> zeros(size, 0);
    op.pool.writeRaw(root.offset(), zeros.data(), size);
    const uint64_t base = op.pool.vbase() + root.offset();
    for (uint32_t w = 0; w < size; w += 8)
        sink_->store(base + w);
    op.pool.persist(root.offset(), size);

    h = op.pool.header();
    h.root_off = root.offset();
    h.root_size = size;
    op.pool.storeHeader(h); // seals + writes primary and mirror copies
    op.pool.persistHeader();
    sink_->alu(costs::crcCost(offsetof(PoolHeader, crc)));
    sink_->store(op.pool.vbase() + offsetof(PoolHeader, root_off));
    sink_->store(op.pool.vbase() + PoolHeader::kMirrorOff +
                 offsetof(PoolHeader, root_off));
    if (opts_.durability) {
        sink_->clwb(op.pool.vbase() + root.offset());
        sink_->clwb(op.pool.vbase());
        sink_->clwb(op.pool.vbase() + PoolHeader::kMirrorOff);
        sink_->fence();
    }
    return root;
}

// --------------------------------------------------------------------
// Object management
// --------------------------------------------------------------------

void
PmemRuntime::emitAllocatorTouches(OpenPool &op)
{
    // Each touched header is a read-modify-write the allocator performs
    // through its own mapping (Software mode) or through nv instructions
    // (Hardware mode, paper section 3.3).
    const bool hw = opts_.mode == TranslationMode::Hardware;
    // Each header write reseals its crc (costs::kCrcHeader ALU apiece).
    if (!op.alloc.lastTouched().empty()) {
        sink_->alu(costs::kCrcHeader *
                   static_cast<uint32_t>(op.alloc.lastTouched().size()));
    }
    for (uint32_t t : op.alloc.lastTouched()) {
        if (hw) {
            sink_->nvLoad(ObjectID(op.pool.id(), t));
            sink_->nvStore(ObjectID(op.pool.id(), t));
            sink_->nvStore(ObjectID(op.pool.id(), t + 8));
        } else {
            const uint64_t va = op.pool.vbase() + t;
            sink_->load(va);
            sink_->store(va);
            sink_->store(va + 8);
        }
    }
    if (opts_.durability && !op.alloc.lastTouched().empty()) {
        for (uint32_t t : op.alloc.lastTouched()) {
            if (hw)
                sink_->nvClwb(ObjectID(op.pool.id(), t));
            else
                sink_->clwb(op.pool.vbase() + t);
        }
        sink_->fence();
    }
}

ObjectID
PmemRuntime::pmalloc(uint32_t pool_id, uint32_t size)
{
    OpenPool &op = registry_.get(pool_id);
    sink_->alu(costs::kPmalloc);
    const uint32_t off = op.alloc.alloc(size);
    if (off == 0)
        POAT_FATAL("pmalloc: pool exhausted");
    emitAllocatorTouches(op);
    return ObjectID(pool_id, off);
}

void
PmemRuntime::pfree(ObjectID oid)
{
    OpenPool &op = poolOf(oid);
    // NVML's by-oid entry points locate the pool from the oid: that is
    // a software translation in the BASE system.
    if (opts_.mode == TranslationMode::Software)
        translator_.translate(oid, *sink_);
    sink_->alu(costs::kPfree);
    op.alloc.free(oid.offset());
    emitAllocatorTouches(op);
}

// --------------------------------------------------------------------
// Translation and data access
// --------------------------------------------------------------------

ObjectRef
PmemRuntime::deref(ObjectID oid, uint64_t oid_tag)
{
    POAT_ASSERT(!oid.isNull(), "deref of OID_NULL");
    if (opts_.mode == TranslationMode::Software) {
        uint64_t vtag = kNoDep;
        const uint64_t va = translator_.translate(oid, *sink_, &vtag);
        return ObjectRef{oid, va, vtag, oid_tag};
    }
    return ObjectRef{oid, 0, kNoDep, oid_tag};
}

void
PmemRuntime::emitRead(const ObjectRef &ref, uint32_t off, size_t size)
{
    const uint32_t words = static_cast<uint32_t>((size + 7) / 8);
    for (uint32_t w = 0; w < words; ++w) {
        if (opts_.mode == TranslationMode::Software) {
            cur().lastLoadTag = sink_->load(ref.vaddr + off + 8ull * w,
                                            ref.dep_a, ref.dep_b);
        } else {
            cur().lastLoadTag = sink_->nvLoad(ref.oid.plus(off + 8 * w),
                                              ref.dep_a, ref.dep_b);
        }
    }
}

void
PmemRuntime::emitWrite(const ObjectRef &ref, uint32_t off, size_t size)
{
    const uint32_t words = static_cast<uint32_t>((size + 7) / 8);
    for (uint32_t w = 0; w < words; ++w) {
        if (opts_.mode == TranslationMode::Software)
            sink_->store(ref.vaddr + off + 8ull * w, ref.dep_a);
        else
            sink_->nvStore(ref.oid.plus(off + 8 * w), ref.dep_a);
    }
}

void
PmemRuntime::readBytes(const ObjectRef &ref, uint32_t off, void *dst,
                       size_t n)
{
    emitRead(ref, off, n);
    poolOf(ref).pool.readRaw(ref.oid.offset() + off, dst, n);
}

void
PmemRuntime::writeBytes(const ObjectRef &ref, uint32_t off, const void *src,
                        size_t n)
{
    emitWrite(ref, off, n);
    poolOf(ref).pool.writeRaw(ref.oid.offset() + off, src, n);
}

// --------------------------------------------------------------------
// Durability
// --------------------------------------------------------------------

void
PmemRuntime::emitPersist(ObjectID oid, uint32_t size, uint64_t vaddr)
{
    sink_->alu(costs::kPersistSetup);
    const uint32_t lines = Pool::lineSpan(oid.offset(), size);
    const uint32_t first = alignDown(oid.offset(), kLineSize);
    for (uint32_t i = 0; i < lines; ++i) {
        if (opts_.mode == TranslationMode::Software)
            sink_->clwb(alignDown(vaddr, kLineSize) + kLineSize * i);
        else
            sink_->nvClwb(ObjectID(oid.poolId(), first + kLineSize * i));
        sink_->branch(i + 1 < lines, kPcLibLoop);
    }
    sink_->fence();
}

void
PmemRuntime::persist(ObjectID oid, uint32_t size)
{
    OpenPool &op = poolOf(oid);
    op.pool.persist(oid.offset(), size);

    uint64_t vaddr = 0;
    if (opts_.mode == TranslationMode::Software)
        vaddr = translator_.translate(oid, *sink_);
    emitPersist(oid, size, vaddr);
}

// --------------------------------------------------------------------
// Failure safety
// --------------------------------------------------------------------

void
PmemRuntime::emitLogAppend(OpenPool &op, UndoLog &log)
{
    const uint32_t pool_id = op.pool.id();
    const uint32_t entry = log.lastEntryOff();
    const uint32_t entry_bytes = log.lastEntryBytes();
    const uint32_t hdr = log.headerOff();
    const uint32_t mirror = hdr + LogHeader::kMirrorLineOff;
    const bool hw = opts_.mode == TranslationMode::Hardware;
    // Sealing the entry checksums the payload + 28 header bytes; the
    // header publish reseals the log header and stores both copies.
    sink_->alu(costs::crcCost(entry_bytes) + costs::kCrcHeader);
    if (hw) {
        sink_->nvStore(ObjectID(pool_id, entry));
        for (uint32_t l = 0; l < Pool::lineSpan(entry, entry_bytes); ++l)
            sink_->nvClwb(ObjectID(pool_id, entry + kLineSize * l));
        sink_->fence();
        sink_->nvStore(ObjectID(pool_id, hdr));
        sink_->nvClwb(ObjectID(pool_id, hdr));
        sink_->nvStore(ObjectID(pool_id, mirror));
        sink_->nvClwb(ObjectID(pool_id, mirror));
        sink_->fence();
    } else {
        sink_->store(op.pool.vbase() + entry);
        for (uint32_t l = 0; l < Pool::lineSpan(entry, entry_bytes); ++l)
            sink_->clwb(op.pool.vbase() + entry + kLineSize * l);
        sink_->fence();
        sink_->store(op.pool.vbase() + hdr);
        sink_->clwb(op.pool.vbase() + hdr);
        sink_->store(op.pool.vbase() + mirror);
        sink_->clwb(op.pool.vbase() + mirror);
        sink_->fence();
    }
}

void
PmemRuntime::txBegin(uint32_t pool_id)
{
    POAT_ASSERT(!cur().txPools.count(pool_id),
                "nested transaction on the same pool");
    OpenPool &op = registry_.get(pool_id);
    UndoLog &log = logFor(op);
    log.begin();
    cur().txPools.insert(pool_id);

    sink_->note({NoteKind::TxBegin, {pool_id, cur().currentOp}});
    sink_->alu(costs::kTxBegin + costs::kCrcHeader);
    const uint32_t hdr = log.headerOff();
    const uint32_t mirror = hdr + LogHeader::kMirrorLineOff;
    if (opts_.mode == TranslationMode::Hardware) {
        sink_->nvStore(ObjectID(pool_id, hdr));
        sink_->nvClwb(ObjectID(pool_id, hdr));
        sink_->nvStore(ObjectID(pool_id, mirror));
        sink_->nvClwb(ObjectID(pool_id, mirror));
    } else {
        sink_->store(op.pool.vbase() + hdr);
        sink_->clwb(op.pool.vbase() + hdr);
        sink_->store(op.pool.vbase() + mirror);
        sink_->clwb(op.pool.vbase() + mirror);
    }
    sink_->fence();
}

void
PmemRuntime::txAddRange(ObjectID oid, uint32_t size)
{
    POAT_ASSERT(cur().txPools.count(oid.poolId()),
                "tx_add_range on a pool without an open transaction");
    OpenPool &op = registry_.get(oid.poolId());
    UndoLog &log = logFor(op);
    log.addRange(oid.offset(), size);

    sink_->alu(costs::kTxAddRange);
    const bool hw = opts_.mode == TranslationMode::Hardware;
    const uint32_t payload = log.lastEntryOff() +
        static_cast<uint32_t>(sizeof(LogEntryHeader));

    uint64_t src_va = 0;
    if (!hw)
        src_va = translator_.translate(oid, *sink_);

    // Copy loop: snapshot the range into the log entry.
    for (uint32_t w = 0; w < (size + 7) / 8; ++w) {
        if (hw) {
            const uint64_t t = sink_->nvLoad(oid.plus(8 * w));
            sink_->nvStore(ObjectID(oid.poolId(), payload + 8 * w), t);
        } else {
            const uint64_t t = sink_->load(src_va + 8ull * w);
            sink_->store(op.pool.vbase() + payload + 8ull * w, t);
        }
        sink_->branch(8u * (w + 1) < size, kPcLibLoop);
    }
    emitLogAppend(op, log);
}

ObjectID
PmemRuntime::txPmalloc(uint32_t pool_id, uint32_t size)
{
    POAT_ASSERT(cur().txPools.count(pool_id),
                "tx_pmalloc on a pool without an open transaction");
    OpenPool &op = registry_.get(pool_id);
    UndoLog &log = logFor(op);

    sink_->alu(costs::kPmalloc);

    // The ALLOC undo record must be durable before the allocation is:
    // a crash between a durably-allocated header and its log record
    // would leak the block forever. So allocate with header persistence
    // deferred, log, then persist the headers.
    const uint32_t off = op.alloc.alloc(size, /*persist_now=*/false);
    if (off == 0)
        POAT_FATAL("tx_pmalloc: pool exhausted");

    try {
        log.logAlloc(off, size);
    } catch (...) {
        // Exhausted log: give the block back before surfacing the
        // error, otherwise the failed tx_pmalloc would leak it.
        op.alloc.free(off);
        throw;
    }
    emitLogAppend(op, log);

    op.alloc.persistTouched();
    emitAllocatorTouches(op);
    return ObjectID(pool_id, off);
}

void
PmemRuntime::txPfree(ObjectID oid)
{
    POAT_ASSERT(cur().txPools.count(oid.poolId()),
                "tx_pfree on a pool without an open transaction");
    OpenPool &op = registry_.get(oid.poolId());
    UndoLog &log = logFor(op);
    if (opts_.mode == TranslationMode::Software)
        translator_.translate(oid, *sink_);
    log.logFree(oid.offset());

    sink_->alu(costs::kPfree / 2); // deferred: only the log append now
    emitLogAppend(op, log);
}

void
PmemRuntime::commitFence()
{
    // A group-commit window withholds commit-path fences; the window
    // close (flushCommitFences) emits one fence standing for all of
    // them. Timing-side only — see setCommitFenceBatching().
    if (fenceBatch_)
        ++pendingFences_;
    else
        sink_->fence();
}

uint64_t
PmemRuntime::flushCommitFences()
{
    if (pendingFences_ == 0)
        return 0;
    const uint64_t elided = pendingFences_ - 1;
    pendingFences_ = 0;
    sink_->fence();
    return elided;
}

void
PmemRuntime::setWorker(uint32_t worker)
{
    POAT_ASSERT(worker < 4096, "worker id out of range");
    if (worker >= workers_.size())
        workers_.resize(worker + 1);
    worker_ = worker;
}

void
PmemRuntime::emitCommit(OpenPool &op, UndoLog &log,
                        const std::vector<UndoLog::Record> &records)
{
    const bool hw = opts_.mode == TranslationMode::Hardware;
    const uint32_t pool_id = op.pool.id();
    const uint32_t hdr = log.headerOff();
    const uint32_t mirror = hdr + LogHeader::kMirrorLineOff;

    auto flush_header = [&] {
        sink_->alu(costs::kCrcHeader);
        if (hw) {
            sink_->nvStore(ObjectID(pool_id, hdr));
            sink_->nvClwb(ObjectID(pool_id, hdr));
            sink_->nvStore(ObjectID(pool_id, mirror));
            sink_->nvClwb(ObjectID(pool_id, mirror));
        } else {
            sink_->store(op.pool.vbase() + hdr);
            sink_->clwb(op.pool.vbase() + hdr);
            sink_->store(op.pool.vbase() + mirror);
            sink_->clwb(op.pool.vbase() + mirror);
        }
        commitFence();
    };

    // Phase 1: flush every modified data range.
    for (const auto &r : records) {
        if (r.type != LogEntryHeader::kData)
            continue;
        const uint32_t first = alignDown(r.target_off, kLineSize);
        for (uint32_t l = 0; l < Pool::lineSpan(r.target_off, r.size); ++l) {
            if (hw)
                sink_->nvClwb(ObjectID(pool_id, first + kLineSize * l));
            else
                sink_->clwb(op.pool.vbase() + first + kLineSize * l);
        }
    }
    commitFence();

    // Commit point, deferred frees, then log reset.
    flush_header();
    for (const auto &r : records) {
        if (r.type != LogEntryHeader::kFree)
            continue;
        sink_->alu(costs::kPfree);
        const uint32_t block = r.target_off -
            static_cast<uint32_t>(sizeof(BlockHeader));
        if (hw) {
            sink_->nvLoad(ObjectID(pool_id, block));
            sink_->nvStore(ObjectID(pool_id, block));
            sink_->nvClwb(ObjectID(pool_id, block));
        } else {
            const uint64_t va = op.pool.vbase() + block;
            sink_->load(va);
            sink_->store(va);
            sink_->clwb(va);
        }
        commitFence();
    }
    flush_header();
}

void
PmemRuntime::txEnd()
{
    POAT_ASSERT(!cur().txPools.empty(), "tx_end outside a transaction");
    sink_->alu(costs::kTxEnd);
    for (const uint32_t pool_id : cur().txPools) {
        OpenPool &op = registry_.get(pool_id);
        UndoLog &log = logFor(op);
        const auto records = log.records();
        log.commit();
        emitCommit(op, log, records);
        sink_->note({NoteKind::TxCommit, {pool_id}});
    }
    cur().txPools.clear();
}

void
PmemRuntime::txAbort()
{
    POAT_ASSERT(!cur().txPools.empty(), "tx_abort outside a transaction");
    sink_->alu(costs::kTxEnd);
    const bool hw = opts_.mode == TranslationMode::Hardware;
    for (const uint32_t pool_id : cur().txPools) {
        OpenPool &op = registry_.get(pool_id);
        UndoLog &log = logFor(op);
        const auto records = log.records();
        log.abort();

        // Undo copy-back loops, newest entry first.
        for (auto it = records.rbegin(); it != records.rend(); ++it) {
            if (it->type != LogEntryHeader::kData)
                continue;
            abortUndoBytes_ += it->size;
            const uint32_t payload = it->entry_off +
                static_cast<uint32_t>(sizeof(LogEntryHeader));
            for (uint32_t w = 0; w < (it->size + 7) / 8; ++w) {
                if (hw) {
                    const uint64_t t =
                        sink_->nvLoad(ObjectID(pool_id, payload + 8 * w));
                    sink_->nvStore(
                        ObjectID(pool_id, it->target_off + 8 * w), t);
                } else {
                    const uint64_t t =
                        sink_->load(op.pool.vbase() + payload + 8ull * w);
                    sink_->store(
                        op.pool.vbase() + it->target_off + 8ull * w, t);
                }
                sink_->branch(8u * (w + 1) < it->size, kPcLibLoop);
            }
        }
        sink_->fence();
        sink_->note({NoteKind::TxAbort, {pool_id}});
    }
    cur().txPools.clear();
}

void
PmemRuntime::setOp(const char *name)
{
    auto [it, fresh] =
        opIds_.emplace(name, static_cast<uint32_t>(opIds_.size()) + 1);
    if (fresh)
        sink_->note(Note::opName(it->second, name));
    cur().currentOp = it->second;
    sink_->note({NoteKind::OpSet, {it->second}});
}

// --------------------------------------------------------------------
// Workload support
// --------------------------------------------------------------------

uint64_t
PmemRuntime::mapVolatile(uint64_t size)
{
    return registry_.addressSpace().mapRandom(size);
}

void
PmemRuntime::crashAndRecover()
{
    registry_.crashAll();
    registry_.recoverAll();
    translator_.invalidatePredictor();
    for (WorkerCtx &w : workers_)
        w.txPools.clear();
    pendingFences_ = 0;
}

} // namespace poat
