/** @file Integration tests for PmemRuntime (the paper's Table 1 API). */
#include <gtest/gtest.h>

#include <vector>

#include "pmem/runtime.h"

namespace poat {
namespace {

RuntimeOptions
softwareOpts()
{
    RuntimeOptions o;
    o.mode = TranslationMode::Software;
    return o;
}

RuntimeOptions
hardwareOpts()
{
    RuntimeOptions o;
    o.mode = TranslationMode::Hardware;
    return o;
}

TEST(Runtime, CreateWriteReadRoundTrip)
{
    for (const auto &opts : {softwareOpts(), hardwareOpts()}) {
        PmemRuntime rt(opts);
        const uint32_t pool = rt.poolCreate("p", 1 << 20);
        const ObjectID oid = rt.pmalloc(pool, 64);
        ObjectRef ref = rt.deref(oid);
        rt.write<uint64_t>(ref, 0, 0xdead);
        rt.write<uint32_t>(ref, 8, 0xbeef);
        EXPECT_EQ(rt.read<uint64_t>(ref, 0), 0xdeadu);
        EXPECT_EQ(rt.read<uint32_t>(ref, 8), 0xbeefu);
    }
}

TEST(Runtime, RootObjectIsStableAcrossCalls)
{
    PmemRuntime rt(softwareOpts());
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID r1 = rt.poolRoot(pool, 128);
    const ObjectID r2 = rt.poolRoot(pool, 128);
    EXPECT_EQ(r1, r2);
    // Root starts zeroed.
    ObjectRef ref = rt.deref(r1);
    EXPECT_EQ(rt.read<uint64_t>(ref, 0), 0u);
    EXPECT_EQ(rt.read<uint64_t>(ref, 120), 0u);
}

TEST(Runtime, RootSurvivesCloseAndReopen)
{
    PmemRuntime rt(softwareOpts());
    uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID root = rt.poolRoot(pool, 64);
    ObjectRef ref = rt.deref(root);
    rt.write<uint64_t>(ref, 0, 42);
    rt.persist(root, 8);
    rt.poolClose(pool);

    pool = rt.poolOpen("p");
    const ObjectID root2 = rt.poolRoot(pool, 64);
    EXPECT_EQ(root2.offset(), root.offset());
    EXPECT_EQ(rt.read<uint64_t>(rt.deref(root2), 0), 42u);
}

TEST(Runtime, SoftwareModeEmitsTranslationOnDeref)
{
    CountingTraceSink sink;
    PmemRuntime rt(softwareOpts(), &sink);
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID oid = rt.pmalloc(pool, 64);

    sink.reset();
    ObjectRef ref = rt.deref(oid);
    EXPECT_GE(sink.instructions, 17u); // at least the fast path
    EXPECT_EQ(sink.nvLoads, 0u);

    sink.reset();
    rt.read<uint64_t>(ref, 0);
    EXPECT_EQ(sink.loads, 1u);
    EXPECT_EQ(sink.nvLoads, 0u);
}

TEST(Runtime, HardwareModeDerefIsFreeAndAccessesAreNv)
{
    CountingTraceSink sink;
    PmemRuntime rt(hardwareOpts(), &sink);
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID oid = rt.pmalloc(pool, 64);

    sink.reset();
    ObjectRef ref = rt.deref(oid);
    EXPECT_EQ(sink.instructions, 0u);

    rt.read<uint64_t>(ref, 0);
    rt.write<uint64_t>(ref, 8, 5);
    EXPECT_EQ(sink.nvLoads, 1u);
    EXPECT_EQ(sink.nvStores, 1u);
    EXPECT_EQ(sink.loads, 0u);
    EXPECT_EQ(sink.stores, 0u);
}

TEST(Runtime, WideAccessesEmitOneEventPerWord)
{
    CountingTraceSink sink;
    PmemRuntime rt(hardwareOpts(), &sink);
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID oid = rt.pmalloc(pool, 256);
    ObjectRef ref = rt.deref(oid);

    std::vector<uint8_t> buf(100, 7);
    sink.reset();
    rt.writeBytes(ref, 0, buf.data(), buf.size());
    EXPECT_EQ(sink.nvStores, 13u); // ceil(100/8)
    sink.reset();
    rt.readBytes(ref, 0, buf.data(), buf.size());
    EXPECT_EQ(sink.nvLoads, 13u);
}

TEST(Runtime, PersistEmitsClwbPerLinePlusFence)
{
    CountingTraceSink sink;
    PmemRuntime rt(hardwareOpts(), &sink);
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID oid = rt.pmalloc(pool, 256);
    sink.reset();
    rt.persist(oid, 200); // 200 bytes from a 16-aligned offset
    const uint32_t lines = Pool::lineSpan(oid.offset(), 200);
    EXPECT_EQ(sink.clwbs, lines);
    EXPECT_EQ(sink.fences, 1u);
}

TEST(Runtime, TransactionalUpdateIsCrashAtomic)
{
    for (const auto &opts : {softwareOpts(), hardwareOpts()}) {
        PmemRuntime rt(opts);
        const uint32_t pool = rt.poolCreate("p", 1 << 20);
        const ObjectID oid = rt.pmalloc(pool, 64);
        ObjectRef ref = rt.deref(oid);
        rt.write<uint64_t>(ref, 0, 1);
        rt.persist(oid, 8);

        rt.txBegin(pool);
        rt.txAddRange(oid, 8);
        rt.write<uint64_t>(ref, 0, 2);
        // Crash before tx_end: must roll back to 1.
        rt.crashAndRecover();
        EXPECT_EQ(rt.read<uint64_t>(rt.deref(oid), 0), 1u);

        rt.txBegin(pool);
        rt.txAddRange(oid, 8);
        rt.write<uint64_t>(rt.deref(oid), 0, 2);
        rt.txEnd();
        rt.crashAndRecover();
        EXPECT_EQ(rt.read<uint64_t>(rt.deref(oid), 0), 2u);
    }
}

TEST(Runtime, TxPmallocRollsBackOnCrash)
{
    PmemRuntime rt(softwareOpts());
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    rt.txBegin(pool);
    const ObjectID obj = rt.txPmalloc(pool, 64);
    rt.crashAndRecover();
    EXPECT_FALSE(
        rt.registry().get(pool).alloc.isAllocated(obj.offset()));
}

TEST(Runtime, TxPfreeTakesEffectOnlyAtCommit)
{
    PmemRuntime rt(softwareOpts());
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID obj = rt.pmalloc(pool, 64);
    rt.txBegin(pool);
    rt.txPfree(obj);
    EXPECT_TRUE(rt.registry().get(pool).alloc.isAllocated(obj.offset()));
    rt.txEnd();
    EXPECT_FALSE(rt.registry().get(pool).alloc.isAllocated(obj.offset()));
}

TEST(Runtime, BaseAndOptProduceIdenticalDurableImages)
{
    // The two systems differ only in *how* translation happens; the
    // persistent state a program produces must be byte-identical.
    auto run = [](TranslationMode mode) {
        RuntimeOptions o;
        o.mode = mode;
        o.aslr_seed = 12345;
        PmemRuntime rt(o);
        const uint32_t pool = rt.poolCreate("p", 1 << 20);
        const ObjectID root = rt.poolRoot(pool, 64);
        rt.txBegin(pool);
        rt.txAddRange(root, 64);
        ObjectRef ref = rt.deref(root);
        for (uint32_t i = 0; i < 8; ++i)
            rt.write<uint64_t>(ref, 8 * i, 100 + i);
        const ObjectID extra = rt.txPmalloc(pool, 48);
        ObjectRef eref = rt.deref(extra);
        rt.write<uint64_t>(eref, 0, 777);
        rt.txAddRange(extra, 8);
        rt.txEnd();
        return rt.registry().get(pool).pool.durableImage().dense();
    };
    EXPECT_EQ(run(TranslationMode::Software),
              run(TranslationMode::Hardware));
}

TEST(Runtime, NtxModeSkipsLibraryFlushEvents)
{
    RuntimeOptions o = hardwareOpts();
    o.durability = false;
    CountingTraceSink sink;
    PmemRuntime rt(o, &sink);
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    sink.reset();
    rt.pmalloc(pool, 64);
    EXPECT_EQ(sink.clwbs, 0u);
    EXPECT_EQ(sink.fences, 0u);
}

TEST(Runtime, PointerChaseTagsFlowThroughHandles)
{
    CountingTraceSink sink;
    PmemRuntime rt(hardwareOpts(), &sink);
    const uint32_t pool = rt.poolCreate("p", 1 << 20);
    const ObjectID a = rt.pmalloc(pool, 16);
    const ObjectID b = rt.pmalloc(pool, 16);
    rt.write<uint64_t>(rt.deref(a), 0, b.raw);

    const uint64_t next_raw = rt.read<uint64_t>(rt.deref(a), 0);
    const uint64_t tag = rt.lastLoadTag();
    EXPECT_NE(tag, kNoDep);
    ObjectRef bref = rt.deref(ObjectID(next_raw), tag);
    EXPECT_EQ(bref.dep_b, tag);
    EXPECT_EQ(rt.read<uint64_t>(bref, 0), 0u);
}

} // namespace
} // namespace poat
