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
    // The library reaches the pool header, and zeroes a fresh root,
    // through its own mapping in both modes: these plain accesses do
    // not go through the BASE/OPT emitters.
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
    // through its own mapping (BASE) or through nv instructions (OPT,
    // paper section 3.3).
    const std::vector<uint32_t> &touched = op.alloc.lastTouched();
    if (touched.empty())
        return;
    // Each header write reseals its crc (costs::kCrcHeader ALU apiece).
    sink_->alu(costs::kCrcHeader * static_cast<uint32_t>(touched.size()));
    for (uint32_t t : touched) {
        emitLoad(op.pool, t);
        emitStore(op.pool, t);
        emitStore(op.pool, t + 8);
    }
    if (opts_.durability) {
        for (uint32_t t : touched)
            emitClwb(op.pool, t);
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
    emitTranslate(oid);
    sink_->alu(costs::kPfree);
    op.alloc.free(oid.offset());
    emitAllocatorTouches(op);
}

// --------------------------------------------------------------------
// Translation and data access
// --------------------------------------------------------------------

uint64_t
PmemRuntime::emitTranslate(ObjectID oid)
{
    if (opts_.mode == TranslationMode::Hardware)
        return kNoDep;
    uint64_t vtag = kNoDep;
    translator_.translate(oid, *sink_, &vtag);
    return vtag;
}

// BASE addresses an access through the pool's mapped base, which is
// exactly what oid_direct returns for it (SoftwareTranslator::translate).
uint64_t
PmemRuntime::emitLoad(const Pool &pool, uint32_t off, uint64_t dep,
                      uint64_t dep2)
{
    if (opts_.mode == TranslationMode::Hardware)
        return sink_->nvLoad(ObjectID(pool.id(), off), dep, dep2);
    return sink_->load(pool.vaddrOf(off), dep, dep2);
}

void
PmemRuntime::emitStore(const Pool &pool, uint32_t off, uint64_t dep)
{
    if (opts_.mode == TranslationMode::Hardware)
        sink_->nvStore(ObjectID(pool.id(), off), dep);
    else
        sink_->store(pool.vaddrOf(off), dep);
}

void
PmemRuntime::emitClwb(const Pool &pool, uint32_t off)
{
    if (opts_.mode == TranslationMode::Hardware)
        sink_->nvClwb(ObjectID(pool.id(), off));
    else
        sink_->clwb(pool.vaddrOf(off));
}

ObjectRef
PmemRuntime::deref(ObjectID oid, uint64_t oid_tag)
{
    POAT_ASSERT(!oid.isNull(), "deref of OID_NULL");
    return ObjectRef{oid, emitTranslate(oid), oid_tag};
}

void
PmemRuntime::emitRead(const Pool &pool, const ObjectRef &ref, uint32_t off,
                      size_t size)
{
    const uint32_t words = static_cast<uint32_t>((size + 7) / 8);
    for (uint32_t w = 0; w < words; ++w) {
        cur().lastLoadTag = emitLoad(pool, ref.oid.offset() + off + 8 * w,
                                     ref.dep_a, ref.dep_b);
    }
}

void
PmemRuntime::emitWrite(const Pool &pool, const ObjectRef &ref, uint32_t off,
                       size_t size)
{
    const uint32_t words = static_cast<uint32_t>((size + 7) / 8);
    for (uint32_t w = 0; w < words; ++w)
        emitStore(pool, ref.oid.offset() + off + 8 * w, ref.dep_a);
}

void
PmemRuntime::readBytes(const ObjectRef &ref, uint32_t off, void *dst,
                       size_t n)
{
    Pool &pool = poolOf(ref).pool;
    emitRead(pool, ref, off, n);
    pool.readRaw(ref.oid.offset() + off, dst, n);
}

void
PmemRuntime::writeBytes(const ObjectRef &ref, uint32_t off, const void *src,
                        size_t n)
{
    Pool &pool = poolOf(ref).pool;
    emitWrite(pool, ref, off, n);
    pool.writeRaw(ref.oid.offset() + off, src, n);
}

// --------------------------------------------------------------------
// Durability
// --------------------------------------------------------------------

void
PmemRuntime::persist(ObjectID oid, uint32_t size)
{
    OpenPool &op = poolOf(oid);
    op.pool.persist(oid.offset(), size);

    emitTranslate(oid);
    sink_->alu(costs::kPersistSetup);
    const uint32_t lines = Pool::lineSpan(oid.offset(), size);
    const uint32_t first = alignDown(oid.offset(), kLineSize);
    for (uint32_t i = 0; i < lines; ++i) {
        emitClwb(op.pool, first + kLineSize * i);
        sink_->branch(i + 1 < lines, kPcLibLoop);
    }
    sink_->fence();
}

// --------------------------------------------------------------------
// Failure safety
// --------------------------------------------------------------------

void
PmemRuntime::emitLogHeader(const Pool &pool, const UndoLog &log)
{
    const uint32_t hdr = log.headerOff();
    const uint32_t mirror = hdr + LogHeader::kMirrorLineOff;
    emitStore(pool, hdr);
    emitClwb(pool, hdr);
    emitStore(pool, mirror);
    emitClwb(pool, mirror);
}

void
PmemRuntime::emitCopy(const Pool &pool, uint32_t from, uint32_t to,
                      uint32_t size)
{
    for (uint32_t w = 0; w < (size + 7) / 8; ++w) {
        const uint64_t t = emitLoad(pool, from + 8 * w);
        emitStore(pool, to + 8 * w, t);
        sink_->branch(8u * (w + 1) < size, kPcLibLoop);
    }
}

void
PmemRuntime::emitLogAppend(OpenPool &op, UndoLog &log)
{
    const uint32_t entry = log.lastEntryOff();
    const uint32_t entry_bytes = log.lastEntryBytes();
    // Sealing the entry checksums the payload + 28 header bytes; the
    // header publish reseals the log header and stores both copies.
    sink_->alu(costs::crcCost(entry_bytes) + costs::kCrcHeader);
    emitStore(op.pool, entry);
    for (uint32_t l = 0; l < Pool::lineSpan(entry, entry_bytes); ++l)
        emitClwb(op.pool, entry + kLineSize * l);
    sink_->fence();
    emitLogHeader(op.pool, log);
    sink_->fence();
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
    emitLogHeader(op.pool, log);
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
    emitTranslate(oid);
    // Copy loop: snapshot the range into the log entry.
    emitCopy(op.pool, oid.offset(),
             log.lastEntryOff() +
                 static_cast<uint32_t>(sizeof(LogEntryHeader)),
             size);
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
    emitTranslate(oid);
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
    auto flush_header = [&] {
        sink_->alu(costs::kCrcHeader);
        emitLogHeader(op.pool, log);
        commitFence();
    };

    // Phase 1: flush every modified data range.
    for (const auto &r : records) {
        if (r.type != LogEntryHeader::kData)
            continue;
        const uint32_t first = alignDown(r.target_off, kLineSize);
        for (uint32_t l = 0; l < Pool::lineSpan(r.target_off, r.size); ++l)
            emitClwb(op.pool, first + kLineSize * l);
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
        emitLoad(op.pool, block);
        emitStore(op.pool, block);
        emitClwb(op.pool, block);
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
            emitCopy(op.pool,
                     it->entry_off +
                         static_cast<uint32_t>(sizeof(LogEntryHeader)),
                     it->target_off, it->size);
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
// Recovery
// --------------------------------------------------------------------

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
