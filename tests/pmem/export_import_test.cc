/** @file Tests for file-backed pool export/import. */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "pmem/registry.h"
#include "pmem/runtime.h"

namespace poat {
namespace {

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

void
writeFile(const std::string &path, const void *bytes, size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (n > 0) {
        ASSERT_EQ(std::fwrite(bytes, 1, n, f), n);
    }
    std::fclose(f);
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::vector<uint8_t> out;
    if (!f)
        return out;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

/** importPool(@p bytes) must throw a superblock MediaError. */
void
expectImportRejected(const std::vector<uint8_t> &bytes, const char *why)
{
    const std::string path = tmpPath("poat_bad.pool");
    writeFile(path, bytes.data(), bytes.size());
    PmemRuntime rt;
    try {
        rt.registry().importPool("bad", path);
        ADD_FAILURE() << "import accepted: " << why;
    } catch (const MediaError &e) {
        EXPECT_EQ(e.kind(), MediaStructure::Superblock) << why;
        EXPECT_NE(std::string(e.what()).find("not a valid pool image"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(ExportImport, RoundTripsPoolContents)
{
    const std::string path = tmpPath("poat_roundtrip.pool");

    // Producer process: build and export.
    {
        PmemRuntime rt;
        const uint32_t pool = rt.poolCreate("src", 1 << 20);
        const ObjectID root = rt.poolRoot(pool, 32);
        ObjectRef r = rt.deref(root);
        rt.write<uint64_t>(r, 0, 0xfeedface);
        rt.write<uint64_t>(r, 8, 0xcafe);
        rt.persist(root, 16);
        rt.registry().exportPool("src", path);
    }

    // Consumer process: import under a new name and read back.
    {
        PmemRuntime rt;
        rt.registry().importPool("dst", path);
        const uint32_t pool = rt.poolOpen("dst");
        const ObjectID root = rt.poolRoot(pool, 32);
        ObjectRef r = rt.deref(root);
        EXPECT_EQ(rt.read<uint64_t>(r, 0), 0xfeedfaceu);
        EXPECT_EQ(rt.read<uint64_t>(r, 8), 0xcafeu);
    }
    std::remove(path.c_str());
}

TEST(ExportImport, ExportReflectsOnlyDurableState)
{
    const std::string path = tmpPath("poat_durable.pool");
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("src", 1 << 20);
    const ObjectID root = rt.poolRoot(pool, 16);
    rt.write<uint64_t>(rt.deref(root), 0, 111);
    rt.persist(root, 8);
    rt.write<uint64_t>(rt.deref(root), 0, 222); // dirty, not flushed
    rt.registry().exportPool("src", path);

    PmemRuntime rt2;
    rt2.registry().importPool("dst", path);
    const uint32_t p2 = rt2.poolOpen("dst");
    EXPECT_EQ(rt2.read<uint64_t>(rt2.deref(rt2.poolRoot(p2, 16)), 0),
              111u);
    std::remove(path.c_str());
}

TEST(ExportImport, ImportRunsLogRecovery)
{
    const std::string path = tmpPath("poat_recovery.pool");
    {
        PmemRuntime rt;
        const uint32_t pool = rt.poolCreate("src", 1 << 20);
        const ObjectID root = rt.poolRoot(pool, 16);
        rt.write<uint64_t>(rt.deref(root), 0, 1);
        rt.persist(root, 8);
        rt.txBegin(pool);
        rt.txAddRange(root, 8);
        rt.write<uint64_t>(rt.deref(root), 0, 2);
        rt.persist(root, 8);
        // Export mid-transaction: the image carries an ACTIVE log.
        rt.registry().exportPool("src", path);
    }
    PmemRuntime rt;
    rt.registry().importPool("dst", path);
    const uint32_t pool = rt.poolOpen("dst"); // recovery rolls back
    EXPECT_EQ(rt.read<uint64_t>(rt.deref(rt.poolRoot(pool, 16)), 0), 1u);
    std::remove(path.c_str());
}

TEST(ExportImport, ClosedPoolCanBeExported)
{
    const std::string path = tmpPath("poat_closed.pool");
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("src", 1 << 20);
    const ObjectID root = rt.poolRoot(pool, 16);
    rt.write<uint64_t>(rt.deref(root), 0, 77);
    rt.poolClose(pool); // close flushes
    rt.registry().exportPool("src", path);

    PmemRuntime rt2;
    rt2.registry().importPool("dst", path);
    const uint32_t p2 = rt2.poolOpen("dst");
    EXPECT_EQ(rt2.read<uint64_t>(rt2.deref(rt2.poolRoot(p2, 16)), 0),
              77u);
    std::remove(path.c_str());
}

TEST(ExportImport, SparsePoolRoundTripsByteIdentically)
{
    // An 8 MB pool that touches a few pages far apart: the file is the
    // dense on-media layout, and importing and opening it reproduces
    // the durable image byte for byte.
    const std::string path = tmpPath("poat_sparse.pool");
    PmemRuntime rt;
    const uint32_t pool = rt.poolCreate("src", 8ull << 20);
    const ObjectID root = rt.poolRoot(pool, 64);
    rt.write<uint64_t>(rt.deref(root), 0, 0x5eed);
    rt.persist(root, 8);
    std::vector<ObjectID> objs;
    for (uint32_t i = 0; i < 3; ++i) {
        objs.push_back(rt.pmalloc(pool, 1u << 20));
        rt.write<uint64_t>(rt.deref(objs.back()), (1u << 20) - 8, i + 1);
        rt.persist(objs.back(), 1u << 20);
    }
    const std::vector<uint8_t> before =
        rt.registry().get(pool).pool.durableImage().dense();
    rt.registry().exportPool("src", path);
    EXPECT_EQ(readFile(path), before);

    PmemRuntime rt2;
    rt2.registry().importPool("dst", path);
    const uint32_t p2 = rt2.poolOpen("dst");
    EXPECT_EQ(rt2.registry().get(p2).pool.durableImage().dense(), before);
    for (uint32_t i = 0; i < 3; ++i) {
        const ObjectID o(p2, objs[i].offset());
        EXPECT_EQ(rt2.read<uint64_t>(rt2.deref(o), (1u << 20) - 8), i + 1);
    }
    std::remove(path.c_str());
}

TEST(ExportImport, ImportOfGarbageFileThrowsMediaError)
{
    std::vector<uint8_t> junk(4096);
    std::memcpy(junk.data(), "not a pool image", 16);
    expectImportRejected(junk, "bad magic");
}

TEST(ExportImport, ImportOfTruncatedImageThrowsMediaError)
{
    // A real pool image cut short: too small for the header region,
    // and (longer) a size the header does not record.
    const std::string path = tmpPath("poat_trunc_src.pool");
    {
        PmemRuntime rt;
        rt.poolCreate("src", 1 << 20);
        rt.registry().exportPool("src", path);
    }
    const std::vector<uint8_t> image = readFile(path);
    std::remove(path.c_str());
    ASSERT_EQ(image.size(), 1u << 20);
    expectImportRejected({image.begin(), image.begin() + 100}, "100 bytes");
    expectImportRejected({image.begin(), image.begin() + 8192}, "8 KB");
    expectImportRejected({}, "empty file");
}

/** Run tools/pool_inspect on @p image: its stdout, then its exit code. */
std::pair<std::string, int>
poolInspect(const std::string &image)
{
    const std::string cmd =
        std::string(POAT_POOL_INSPECT) + " '" + image + "'";
    std::FILE *p = popen(cmd.c_str(), "r");
    std::string out;
    if (!p)
        return {out, -1};
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    const int status = pclose(p);
    return {out, WIFEXITED(status) ? WEXITSTATUS(status) : -1};
}

/** pool_inspect's text for one undo-log slot (see tools/pool_inspect). */
std::string
slotSection(const std::string &name, const UndoLog &log, const char *state)
{
    std::string s = name + ": " + state + "\n  entries    " +
        std::to_string(log.entryCount()) + " (" +
        std::to_string(log.usedBytes()) + " bytes used)\n";
    for (const auto &rec : log.records()) {
        const char *kind = rec.type == LogEntryHeader::kData ? "data "
            : rec.type == LogEntryHeader::kAlloc             ? "alloc"
                                                             : "free ";
        s += std::string("    ") + kind + " target=" +
            std::to_string(rec.target_off) +
            " size=" + std::to_string(rec.size) + "\n";
    }
    return s;
}

TEST(ExportImport, PoolInspectDecodesEveryLogSlot)
{
    // A 2-slot pool (one slot per engine worker) exported while slot 1
    // holds an open transaction and slot 0 is idle: the inspector
    // prints both slots, in order, each with its state and records.
    const std::string path = tmpPath("poat_two_slots.pool");
    PoolRegistry r;
    OpenPool &p = r.create("two", 1 << 20, Pool::kDefaultLogSize, 2);
    const uint32_t a = p.alloc.alloc(64);
    const uint32_t b = p.alloc.alloc(32);
    UndoLog &tx = p.logSlot(1);
    tx.begin();
    tx.addRange(a, 24);
    tx.logFree(b);
    r.exportPool("two", path);
    ASSERT_EQ(tx.entryCount(), 2u);

    const auto [out, code] = poolInspect(path);
    EXPECT_EQ(code, 0) << out;
    const std::string want =
        slotSection("undo log slot 0", p.logSlot(0), "idle") +
        slotSection("undo log slot 1", tx,
                    "ACTIVE (undo pending on recovery)");
    EXPECT_NE(out.find(want), std::string::npos) << out;
    EXPECT_NE(want.find("data  target=" + std::to_string(a) + " size=24"),
              std::string::npos);
    EXPECT_NE(want.find("free  target=" + std::to_string(b)),
              std::string::npos);
    EXPECT_EQ(out.find("undo log:"), std::string::npos) << out;
    std::remove(path.c_str());

    // A single-slot pool keeps the classic one-section layout.
    const std::string path1 = tmpPath("poat_one_log.pool");
    PoolRegistry r1;
    OpenPool &q = r1.create("one", 1 << 20);
    q.log.begin();
    q.log.addRange(q.alloc.alloc(16), 8);
    r1.exportPool("one", path1);
    const auto [out1, code1] = poolInspect(path1);
    EXPECT_EQ(code1, 0) << out1;
    EXPECT_NE(out1.find(slotSection("undo log", q.log,
                                    "ACTIVE (undo pending on recovery)")),
              std::string::npos)
        << out1;
    EXPECT_EQ(out1.find("undo log slot"), std::string::npos) << out1;
    std::remove(path1.c_str());
}

} // namespace
} // namespace poat
