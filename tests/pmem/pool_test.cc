/** @file Unit and property tests for Pool storage and durability. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pmem/pool.h"
#include "pmem/runtime.h"
#include "pmem/scrub.h"
#include "workloads/harness.h"

namespace poat {
namespace {

Pool
makePool(uint64_t size = 1 << 20)
{
    return Pool("p", 1, size);
}

TEST(Pool, FreshPoolHasSaneHeader)
{
    Pool p = makePool();
    const PoolHeader &h = p.header();
    EXPECT_EQ(h.magic, PoolHeader::kMagic);
    EXPECT_EQ(h.pool_id, 1u);
    EXPECT_EQ(h.pool_size, p.size());
    EXPECT_EQ(h.root_off, 0u);
    EXPECT_EQ(h.heap_off, Pool::kHeaderSize);
    EXPECT_EQ(h.heap_off + h.heap_size, h.log_off);
    EXPECT_EQ(h.log_off + h.log_size, p.size());
}

TEST(Pool, SizeIsClampedToMinimum)
{
    Pool p("tiny", 2, 16);
    EXPECT_GE(p.size(), Pool::kMinSize);
}

TEST(Pool, ReadBackWhatWasWritten)
{
    Pool p = makePool();
    const uint64_t v = 0xfeedfacecafebeefull;
    p.writeAs<uint64_t>(4096, v);
    EXPECT_EQ(p.readAs<uint64_t>(4096), v);
}

TEST(Pool, WritesAreNotDurableUntilFlushed)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(4096, 77);
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 0u);
}

TEST(Pool, PersistSurvivesCrash)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(4096, 77);
    p.persist(4096, 8);
    p.writeAs<uint64_t>(4096, 88); // dirty again, not persisted
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 77u);
}

TEST(Pool, ClwbWithoutFenceUnderStrictPolicyIsNotDurable)
{
    Pool p = makePool();
    p.setDurabilityPolicy(DurabilityPolicy::Strict);
    p.writeAs<uint64_t>(4096, 55);
    p.clwb(4096);
    p.crash(); // no fence: line may not have reached media
    EXPECT_EQ(p.readAs<uint64_t>(4096), 0u);
}

TEST(Pool, ClwbThenFenceUnderStrictPolicyIsDurable)
{
    Pool p = makePool();
    p.setDurabilityPolicy(DurabilityPolicy::Strict);
    p.writeAs<uint64_t>(4096, 55);
    p.clwb(4096);
    p.fence();
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 55u);
}

TEST(Pool, StrictPolicyStoreAfterClwbReDirtiesLine)
{
    Pool p = makePool();
    p.setDurabilityPolicy(DurabilityPolicy::Strict);
    p.writeAs<uint64_t>(4096, 55);
    p.clwb(4096);
    p.writeAs<uint64_t>(4096, 66); // re-dirty before the fence
    p.fence();
    p.crash();
    // The line was unstaged by the second store, so nothing is durable.
    EXPECT_EQ(p.readAs<uint64_t>(4096), 0u);
}

TEST(Pool, EagerClwbIsImmediatelyDurable)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(4096, 99);
    p.clwb(4096);
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(4096), 99u);
}

TEST(Pool, PersistSpanningMultipleLines)
{
    Pool p = makePool();
    std::vector<uint8_t> buf(300, 0xab);
    p.writeRaw(4090, buf.data(), buf.size()); // straddles line boundaries
    p.persist(4090, buf.size());
    p.crash();
    std::vector<uint8_t> out(300);
    p.readRaw(4090, out.data(), out.size());
    EXPECT_EQ(out, buf);
}

TEST(Pool, LineSpanCounts)
{
    EXPECT_EQ(Pool::lineSpan(0, 0), 0u);
    EXPECT_EQ(Pool::lineSpan(0, 1), 1u);
    EXPECT_EQ(Pool::lineSpan(0, 64), 1u);
    EXPECT_EQ(Pool::lineSpan(0, 65), 2u);
    EXPECT_EQ(Pool::lineSpan(63, 2), 2u);
    EXPECT_EQ(Pool::lineSpan(60, 200), 5u);
}

TEST(Pool, DirtyLineTracking)
{
    Pool p = makePool();
    const size_t base = p.dirtyLineCount();
    p.writeAs<uint64_t>(8192, 1);
    EXPECT_EQ(p.dirtyLineCount(), base + 1);
    p.writeAs<uint64_t>(8192 + 8, 2); // same line
    EXPECT_EQ(p.dirtyLineCount(), base + 1);
    p.writeAs<uint64_t>(8192 + 64, 3); // next line
    EXPECT_EQ(p.dirtyLineCount(), base + 2);
    p.persist(8192, 128);
    EXPECT_EQ(p.dirtyLineCount(), base);
}

TEST(Pool, RandomEvictionMakesSomeLinesDurable)
{
    Pool p = makePool();
    Rng rng(3);
    for (uint32_t i = 0; i < 64; ++i)
        p.writeAs<uint64_t>(4096 + 64 * i, i + 1);
    p.evictRandomLines(rng, 1, 2); // ~half evicted
    p.crash();
    int durable = 0;
    for (uint32_t i = 0; i < 64; ++i)
        durable += (p.readAs<uint64_t>(4096 + 64 * i) == i + 1);
    EXPECT_GT(durable, 10);
    EXPECT_LT(durable, 54);
}

TEST(Pool, ReopenFromDurableImage)
{
    Pool p = makePool();
    p.writeAs<uint64_t>(5000, 1234);
    p.persist(5000, 8);
    Pool q("p", 1, p.durableImage());
    EXPECT_EQ(q.readAs<uint64_t>(5000), 1234u);
    EXPECT_EQ(q.header().pool_size, p.size());
}

TEST(Pool, ReopenRejectsSealedHeaderWithRegionsOutsideImage)
{
    // A crc-valid superblock whose log runs past the image end must be
    // refused before any allocator or log scan trusts its geometry.
    Pool p = makePool();
    std::vector<uint8_t> bytes = p.durableImage().dense();
    PoolHeader h = p.header();
    h.log_size += kPageSize;
    h.seal();
    std::memcpy(bytes.data(), &h, sizeof(h));
    std::memcpy(bytes.data() + PoolHeader::kMirrorOff, &h, sizeof(h));
    EXPECT_THROW(Pool("p", 1, PoolImage(bytes)), MediaError);
}

TEST(Pool, DamagedSlotCountIsRepairedFromTheMirror)
{
    // The slot count sits outside the superblock crc. A bit flip there
    // must not win over the intact mirror: a 2-slot pool read as one
    // slot would drop slot 1's in-flight transaction from scrub and
    // recovery. Reopen and scrub both take the mirror's geometry.
    Pool p("p", 1, 1 << 20, Pool::kDefaultLogSize, 2);
    ASSERT_EQ(p.logSlots(), 2u);
    uint32_t pad = p.header().pad ^ 1u;
    p.corruptDurable(offsetof(PoolHeader, pad), &pad, sizeof(pad));
    EXPECT_EQ(Pool("q", 1, p.durableImage()).logSlots(), 2u);

    p.crash();
    EXPECT_EQ(p.logSlots(), 1u) << "the damaged primary, before scrub";
    scrubPool(p);
    EXPECT_EQ(p.logSlots(), 2u);
    PoolHeader mirror{};
    p.readRaw(PoolHeader::kMirrorOff, &mirror, sizeof(mirror));
    EXPECT_EQ(PoolHeader::decodeLogSlots(mirror.pad), 2u);

    // With the mirror gone too, no copy can vouch for the geometry.
    uint8_t junk = 0xff;
    p.corruptDurable(offsetof(PoolHeader, pad), &pad, sizeof(pad));
    p.corruptDurable(PoolHeader::kMirrorOff, &junk, 1);
    EXPECT_THROW(Pool("r", 1, p.durableImage()), MediaError);
}

TEST(Pool, VaddrAndOidHelpers)
{
    Pool p = makePool();
    p.setVbase(0x7000000000ull);
    EXPECT_EQ(p.vaddrOf(0x123), 0x7000000123ull);
    EXPECT_EQ(p.oidOf(0x123), ObjectID(1u, 0x123u));
}

/** Property: any interleaving of writes/evictions/crashes only ever
 *  exposes either the old or the new value of each 8-byte cell. */
TEST(Pool, CrashExposesOnlyOldOrNewValues)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        Pool p = makePool(1 << 16);
        // Old values, fully persisted.
        for (uint32_t i = 0; i < 32; ++i)
            p.writeAs<uint64_t>(1024 + 8 * i, 1000 + i);
        p.persist(1024, 8 * 32);
        // New values, partially persisted via random eviction.
        for (uint32_t i = 0; i < 32; ++i)
            p.writeAs<uint64_t>(1024 + 8 * i, 2000 + i);
        p.evictRandomLines(rng, 1, 3);
        p.crash();
        for (uint32_t i = 0; i < 32; ++i) {
            const uint64_t v = p.readAs<uint64_t>(1024 + 8 * i);
            EXPECT_TRUE(v == 1000 + i || v == 2000 + i)
                << "cell " << i << " saw torn value " << v;
        }
    }
}

TEST(Pool, ReadDurableSeesOnlyWrittenBackBytes)
{
    Pool p = makePool();
    const uint64_t v = 0xfeedfacecafebeefull;
    uint64_t got = 1;
    // Straddles the page boundary at 8192; both pages still absent.
    p.readDurable(8188, &got, 8);
    EXPECT_EQ(got, 0u);

    p.writeAs<uint64_t>(8188, v);
    p.readDurable(8188, &got, 8);
    EXPECT_EQ(got, 0u) << "a dirty line is not durable";

    p.persist(8188, 8);
    p.readDurable(8188, &got, 8);
    EXPECT_EQ(got, v);

    // Media faults land in the durable image only, until a crash.
    const uint8_t junk = 0x5a;
    p.corruptDurable(8188, &junk, 1);
    p.readDurable(8188, &got, 8);
    EXPECT_EQ(got, (v & ~0xffull) | junk);
    EXPECT_EQ(p.readAs<uint64_t>(8188), v);
    p.crash();
    EXPECT_EQ(p.readAs<uint64_t>(8188), got);
    EXPECT_EQ(p.durableImage().dense().size(), p.size());
}

TEST(Pool, FreshRandomPoolSetKeepsFewResidentPages)
{
    // Table 6's RANDOM pattern: 32 x 8 MB pools, created and formatted.
    PmemRuntime rt;
    workloads::PoolSet set(rt, workloads::PoolPattern::Random, "r");
    ASSERT_EQ(rt.registry().openCount(), 32u);
    for (uint32_t id : rt.registry().openIds()) {
        const Pool &p = rt.registry().get(id).pool;
        ASSERT_EQ(p.size(), 8ull << 20);
        size_t resident = 0;
        for (uint64_t off = 0; off < p.size(); off += kPageSize)
            resident += p.pageResident(static_cast<uint32_t>(off));
        EXPECT_GE(resident, 1u) << p.name();
        EXPECT_LE(resident, 4u) << p.name();
    }
}

/**
 * Durability hook that records every write-back it is asked about and
 * answers with a seeded mix of whole, vetoed and torn word masks. Two
 * instances with one seed answer identically to identical call
 * sequences, so the reference model below drives its own twin.
 */
class TearingRecorder : public DurabilityHook
{
  public:
    explicit TearingRecorder(uint64_t seed) : rng_(seed) {}

    uint8_t
    decide(uint32_t line, WriteBackCause cause)
    {
        events.emplace_back(line, cause);
        switch (rng_.below(4)) {
          case 0:
            return 0;
          case 1:
            return static_cast<uint8_t>(rng_.next());
          default:
            return kFullLineMask;
        }
    }

    uint8_t
    onWriteBack(Pool &, uint32_t line, WriteBackCause cause) override
    {
        return decide(line, cause);
    }

    void
    onFenceDrainBegin(Pool &, const std::vector<uint32_t> &pending) override
    {
        drains.push_back(pending);
    }

    std::vector<std::pair<uint32_t, WriteBackCause>> events;
    std::vector<std::vector<uint32_t>> drains;

  private:
    Rng rng_;
};

/**
 * Dense reference model of Pool's storage and durability semantics:
 * two flat byte images plus the dirty and staged line sets, written
 * the obvious way.
 */
struct DenseModel
{
    DenseModel(const Pool &pool, DurabilityPolicy p, uint64_t hook_seed)
        : data(pool.durableImage().dense()), durable(data), policy(p),
          hook(hook_seed)
    {}

    static std::vector<uint32_t>
    sorted(const std::unordered_set<uint32_t> &lines)
    {
        std::vector<uint32_t> out(lines.begin(), lines.end());
        std::sort(out.begin(), out.end());
        return out;
    }

    void
    writeBack(uint32_t line, WriteBackCause cause)
    {
        const uint8_t mask = hook.decide(line, cause);
        for (uint32_t w = 0; w < 8; ++w) {
            const size_t off = size_t(line) * kLineSize + 8 * w;
            if ((mask & (1u << w)) && off < data.size()) {
                std::memcpy(durable.data() + off, data.data() + off,
                            std::min<size_t>(8, data.size() - off));
            }
        }
    }

    void
    write(uint32_t off, const uint8_t *src, size_t n)
    {
        std::memcpy(data.data() + off, src, n);
        for (size_t b = off; b < off + n; b += 1) {
            dirty.insert(static_cast<uint32_t>(b / kLineSize));
            staged.erase(static_cast<uint32_t>(b / kLineSize));
        }
    }

    void
    clwb(uint32_t line)
    {
        if (!dirty.count(line))
            return;
        if (policy == DurabilityPolicy::Eager) {
            writeBack(line, WriteBackCause::Clwb);
            dirty.erase(line);
        } else {
            staged.insert(line);
        }
    }

    void
    fence()
    {
        if (staged.empty())
            return;
        const std::vector<uint32_t> lines = sorted(staged);
        hook.drains.push_back(lines);
        for (uint32_t line : lines) {
            writeBack(line, WriteBackCause::Fence);
            dirty.erase(line);
        }
        staged.clear();
    }

    void
    persist(uint32_t off, size_t n)
    {
        for (size_t line = off / kLineSize; line <= (off + n - 1) / kLineSize;
             ++line)
            clwb(static_cast<uint32_t>(line));
        fence();
    }

    void
    crash()
    {
        data = durable;
        dirty.clear();
        staged.clear();
    }

    std::vector<uint8_t> data;
    std::vector<uint8_t> durable;
    std::unordered_set<uint32_t> dirty;
    std::unordered_set<uint32_t> staged;
    DurabilityPolicy policy;
    TearingRecorder hook;
};

/**
 * A 1-64 byte access placed where PoolImage's page-local case and its
 * page loop meet: ending exactly at a page end, starting at a page's
 * last byte, straddling a page boundary, or inside one page. Half the
 * time the page is one whose successor is absent (so a straddle reads
 * into an absent page) or, for the in-page kind, an absent page itself
 * (so a write is a first touch).
 */
std::pair<uint32_t, uint32_t>
pageEdgeAccess(Rng &rng, const Pool &pool)
{
    const uint32_t size = static_cast<uint32_t>(pool.size());
    const uint32_t pages = (size + kPageSize - 1) / kPageSize;
    std::vector<uint32_t> edges, absent;
    for (uint32_t p = 0; p < pages; ++p) {
        if (!pool.pageResident(p * kPageSize))
            absent.push_back(p);
        else if (p + 1 < pages && !pool.pageResident((p + 1) * kPageSize))
            edges.push_back(p);
    }
    const uint64_t kind = rng.below(4);
    const std::vector<uint32_t> &bias = kind == 3 ? absent : edges;
    const uint32_t page = !bias.empty() && rng.chance(1, 2)
        ? bias[rng.below(bias.size())]
        : static_cast<uint32_t>(rng.below(pages));
    const uint32_t start = page * kPageSize;
    const uint32_t end = std::min<uint32_t>(start + kPageSize, size);
    uint32_t n = static_cast<uint32_t>(rng.range(1, 64));
    uint32_t off;
    switch (kind) {
      case 0: // ends exactly at the page end
        off = end - n;
        break;
      case 1: // starts at the page's last byte
        off = end - 1;
        break;
      case 2: // straddles the boundary at a random split
        off = end - static_cast<uint32_t>(rng.range(1, n));
        break;
      default: // inside the page
        off = start + static_cast<uint32_t>(rng.below(end - start - n + 1));
        break;
    }
    return {off, std::min(n, size - off)};
}

/** Which page-edge cases a differential run exercised (see below). */
struct EdgeCoverage
{
    size_t read_at_page_end = 0;   ///< single-page read ending at its end
    size_t read_from_last_byte = 0; ///< straddle from a page's last byte
    size_t read_into_absent = 0;   ///< resident page into an absent one
    size_t write_at_page_end = 0;  ///< page-local write ending at its end
    size_t write_first_touch = 0;  ///< page-local write to an absent page
    size_t write_straddle = 0;     ///< write across a page boundary
};

void
runDifferential(DurabilityPolicy policy, uint64_t seed)
{
    // 26 pages and 3 lines: the last page is partial.
    Pool pool("d", 1, 26 * kPageSize + 3 * kLineSize);
    const uint32_t size = static_cast<uint32_t>(pool.size());
    ASSERT_EQ(size % kPageSize, 3 * kLineSize);
    DenseModel model(pool, policy, seed);
    TearingRecorder hook(seed);
    pool.setDurabilityPolicy(policy);
    pool.setDurabilityHook(&hook);

    Rng rng(seed * 7919 + 1);
    std::vector<uint8_t> bytes(512), seen(size);
    EdgeCoverage cover;
    for (int step = 0; step < 600; ++step) {
        const uint64_t op = rng.below(100);
        if (op < 40) {
            // Random range, a page-straddling range, the last line, or
            // a 1-64 byte access at a page edge.
            uint32_t off = 0, n = 0;
            switch (rng.below(4)) {
              case 0:
                n = static_cast<uint32_t>(rng.range(1, 300));
                off = static_cast<uint32_t>(rng.below(size - n + 1));
                break;
              case 1:
                off = static_cast<uint32_t>(
                    rng.range(1, size / kPageSize) * kPageSize -
                    rng.range(1, 64));
                n = static_cast<uint32_t>(rng.range(2, 200));
                n = std::min(n, size - off);
                break;
              case 2:
                off = size - kLineSize +
                    static_cast<uint32_t>(rng.below(kLineSize));
                n = size - off;
                break;
              default: {
                std::tie(off, n) = pageEdgeAccess(rng, pool);
                const uint32_t in_page = off % kPageSize;
                cover.write_straddle += in_page + n > kPageSize;
                cover.write_at_page_end += in_page + n == kPageSize;
                cover.write_first_touch +=
                    in_page + n <= kPageSize && !pool.pageResident(off);
                break;
              }
            }
            for (uint32_t b = 0; b < n; ++b)
                bytes[b] = static_cast<uint8_t>(rng.next());
            pool.writeRaw(off, bytes.data(), n);
            model.write(off, bytes.data(), n);
        } else if (op < 55) {
            // CLWB a dirty line most of the time, any line otherwise.
            uint32_t line = static_cast<uint32_t>(
                rng.below(size / kLineSize));
            const std::vector<uint32_t> dirty = model.sorted(model.dirty);
            if (!dirty.empty() && rng.chance(3, 4))
                line = dirty[rng.below(dirty.size())];
            pool.clwb(line * kLineSize);
            model.clwb(line);
        } else if (op < 63) {
            pool.fence();
            model.fence();
        } else if (op < 73) {
            const uint32_t n = static_cast<uint32_t>(rng.range(1, 5000));
            const uint32_t off =
                static_cast<uint32_t>(rng.below(size - n + 1));
            pool.persist(off, n);
            model.persist(off, n);
        } else if (op < 83) {
            // Which lines a random eviction picks follows the pool's own
            // dirty-set order; the model checks each pick is legal and
            // that the pool drew once per unstaged dirty line, then
            // applies the same write-backs.
            Rng pool_rng(seed + step), model_rng(seed + step);
            size_t unstaged = 0;
            for (uint32_t line : model.dirty)
                unstaged += !model.staged.count(line);
            const size_t before = hook.events.size();
            pool.evictRandomLines(pool_rng, 1, 3);
            for (size_t e = before; e < hook.events.size(); ++e) {
                const uint32_t line = hook.events[e].first;
                ASSERT_EQ(hook.events[e].second, WriteBackCause::Evict);
                ASSERT_TRUE(model.dirty.count(line));
                ASSERT_FALSE(model.staged.count(line));
                model.writeBack(line, WriteBackCause::Evict);
                model.dirty.erase(line);
            }
            for (size_t d = 0; d < unstaged; ++d)
                model_rng.chance(1, 3);
            ASSERT_EQ(pool_rng.next(), model_rng.next());
        } else if (op < 87) {
            pool.crash();
            model.crash();
        } else if (op < 93) {
            const uint32_t n = static_cast<uint32_t>(rng.range(1, 16));
            const uint32_t off =
                static_cast<uint32_t>(rng.below(size - n + 1));
            for (uint32_t b = 0; b < n; ++b)
                bytes[b] = static_cast<uint8_t>(rng.next());
            pool.corruptDurable(off, bytes.data(), n);
            std::memcpy(model.durable.data() + off, bytes.data(), n);
        } else {
            pool.persistAll();
            for (uint32_t line : model.sorted(model.dirty))
                model.clwb(line);
            model.fence();
        }

        pool.readRaw(0, seen.data(), size);
        ASSERT_EQ(seen, model.data) << "working image, step " << step;
        ASSERT_EQ(pool.durableImage().dense(), model.durable)
            << "durable image, step " << step;
        // Small reads at page edges, of both images.
        for (int probe = 0; probe < 4; ++probe) {
            const auto [off, n] = pageEdgeAccess(rng, pool);
            const uint32_t in_page = off % kPageSize;
            cover.read_at_page_end += in_page + n == kPageSize;
            cover.read_from_last_byte +=
                in_page == kPageSize - 1 && n > 1;
            cover.read_into_absent += in_page + n > kPageSize &&
                pool.pageResident(off) && !pool.pageResident(off + n - 1);
            std::vector<uint8_t> got(n);
            pool.readRaw(off, got.data(), n);
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   model.data.begin() + off))
                << "working read of " << n << " at " << off << ", step "
                << step;
            pool.readDurable(off, got.data(), n);
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   model.durable.begin() + off))
                << "durable read of " << n << " at " << off << ", step "
                << step;
        }
        ASSERT_EQ(hook.events, model.hook.events) << "step " << step;
        ASSERT_EQ(hook.drains, model.hook.drains) << "step " << step;
        ASSERT_EQ(pool.dirtyLineCount(), model.dirty.size());
        ASSERT_EQ(pool.stagedLines(), model.sorted(model.staged));
    }
    pool.setDurabilityHook(nullptr);
    EXPECT_GT(cover.read_at_page_end, 0u);
    EXPECT_GT(cover.read_from_last_byte, 0u);
    EXPECT_GT(cover.read_into_absent, 0u);
    EXPECT_GT(cover.write_at_page_end, 0u);
    EXPECT_GT(cover.write_first_touch, 0u);
    EXPECT_GT(cover.write_straddle, 0u);
}

TEST(Pool, PagedImagesMatchDenseModelEager)
{
    for (uint64_t seed : {1, 2, 3})
        runDifferential(DurabilityPolicy::Eager, seed);
}

TEST(Pool, PagedImagesMatchDenseModelStrict)
{
    for (uint64_t seed : {1, 2, 3})
        runDifferential(DurabilityPolicy::Strict, seed);
}

} // namespace
} // namespace poat
