/** @file Unit tests for the pool registry (create/open/close cycle). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pmem/registry.h"

namespace poat {
namespace {

/** Records every write-back and drain announcement; vetoes nothing. */
struct WriteBackRecorder : DurabilityHook
{
    bool
    onWriteBack(Pool &, uint32_t line, WriteBackCause cause) override
    {
        events.emplace_back(line, cause);
        return true;
    }

    void
    onFenceDrainBegin(Pool &, const std::vector<uint32_t> &pending) override
    {
        drains.push_back(pending);
    }

    std::vector<std::pair<uint32_t, WriteBackCause>> events;
    std::vector<std::vector<uint32_t>> drains;
};

TEST(Registry, CreateAssignsSequentialIdsFromOne)
{
    PoolRegistry r;
    EXPECT_EQ(r.create("a", 1 << 20).pool.id(), 1u);
    EXPECT_EQ(r.create("b", 1 << 20).pool.id(), 2u);
    EXPECT_EQ(r.openCount(), 2u);
}

TEST(Registry, PoolsGetDistinctPageAlignedVbases)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    auto &b = r.create("b", 1 << 20);
    EXPECT_NE(a.pool.vbase(), b.pool.vbase());
    EXPECT_EQ(a.pool.vbase() % kPageSize, 0u);
    EXPECT_EQ(b.pool.vbase() % kPageSize, 0u);
}

TEST(Registry, AslrSeedChangesPlacementDeterministically)
{
    PoolRegistry r1(7), r2(7), r3(8);
    EXPECT_EQ(r1.create("a", 1 << 20).pool.vbase(),
              r2.create("a", 1 << 20).pool.vbase());
    EXPECT_NE(r1.create("b", 1 << 20).pool.vbase(),
              r3.create("b", 1 << 20).pool.vbase());
}

TEST(Registry, FindAndGet)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    EXPECT_EQ(r.find(a.pool.id()), &a);
    EXPECT_EQ(r.find(999), nullptr);
    EXPECT_EQ(&r.get(a.pool.id()), &a);
}

TEST(Registry, CloseThenReopenPreservesDataAndId)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t id = a.pool.id();
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 123);
    // No explicit persist: close must flush dirty lines like a file
    // close writes back page-cache contents.
    r.close(id);
    EXPECT_EQ(r.openCount(), 0u);

    auto &b = r.open("a");
    EXPECT_EQ(b.pool.id(), id);
    EXPECT_EQ(b.pool.readAs<uint64_t>(off), 123u);
    EXPECT_TRUE(b.alloc.isAllocated(off));
}

TEST(Registry, ReopenGetsAFreshRandomizedMapping)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint64_t vbase1 = a.pool.vbase();
    r.close(a.pool.id());
    auto &b = r.open("a");
    // ASLR: a reopened pool (almost surely) lands elsewhere, which is
    // exactly why ObjectIDs rather than raw pointers are needed.
    EXPECT_NE(b.pool.vbase(), vbase1);
}

TEST(Registry, OpenRunsLogRecovery)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t id = a.pool.id();
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 1);
    a.pool.persist(off, 8);

    a.log.begin();
    a.log.addRange(off, 8);
    a.pool.writeAs<uint64_t>(off, 2);
    a.pool.persist(off, 8);
    // Crash with the transaction still active, then close-less reopen
    // via crashAll + recoverAll.
    r.crashAll();
    r.recoverAll();
    EXPECT_EQ(r.get(id).pool.readAs<uint64_t>(off), 1u);
}

TEST(Registry, CrashAllRevertsUnpersistedWrites)
{
    PoolRegistry r;
    auto &a = r.create("a", 1 << 20);
    const uint32_t off = a.alloc.alloc(64);
    a.pool.writeAs<uint64_t>(off, 55);
    r.crashAll();
    EXPECT_EQ(a.pool.readAs<uint64_t>(off), 0u);
    EXPECT_TRUE(a.alloc.validate());
}

TEST(Registry, OpenIdsAreSorted)
{
    PoolRegistry r;
    r.create("a", 1 << 20);
    r.create("b", 1 << 20);
    r.create("c", 1 << 20);
    r.close(2);
    const auto ids = r.openIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(ids[1], 3u);
}

TEST(Registry, ManyPoolsCoexist)
{
    PoolRegistry r;
    for (int i = 0; i < 200; ++i)
        r.create("pool" + std::to_string(i), Pool::kMinSize);
    EXPECT_EQ(r.openCount(), 200u);
    EXPECT_EQ(r.addressSpace().regionCount(), 200u);
}

TEST(Registry, CloseWritesBackExactlyWhatAWholePoolWalkWould)
{
    // close() visits only the dirty lines; its write-back sequence must
    // equal the CLWB-every-line walk it replaced, under both policies.
    for (DurabilityPolicy policy :
         {DurabilityPolicy::Eager, DurabilityPolicy::Strict}) {
        auto dirtyUp = [&](PoolRegistry &r) -> Pool & {
            r.setDurabilityPolicy(policy);
            Pool &p = r.create("a", 1 << 20).pool;
            // Dirty lines across several pages, written out of order,
            // one straddling two lines, one in the pool's last line; a
            // CLWB without a fence leaves 9000's line staged (Strict).
            for (uint32_t off : {700000u, 9000u, 64u, 12348u, 200000u})
                p.writeAs<uint64_t>(off, off + 1);
            p.writeAs<uint64_t>(static_cast<uint32_t>(p.size()) - 8, 7);
            p.clwb(9000);
            return p;
        };
        PoolRegistry closed, walked;
        Pool &c = dirtyUp(closed);
        Pool &w = dirtyUp(walked);
        WriteBackRecorder by_close, by_walk;
        closed.setDurabilityHook(&by_close);
        walked.setDurabilityHook(&by_walk);

        closed.close(c.id());
        for (uint64_t off = 0; off < w.size(); off += kLineSize)
            w.clwb(static_cast<uint32_t>(off));
        w.fence();

        EXPECT_EQ(by_close.events, by_walk.events);
        EXPECT_EQ(by_close.drains, by_walk.drains);
        EXPECT_GE(by_close.events.size(), 6u);
        EXPECT_TRUE(std::is_sorted(by_close.events.begin(),
                                   by_close.events.end()));
        const WriteBackCause want = policy == DurabilityPolicy::Eager
            ? WriteBackCause::Clwb
            : WriteBackCause::Fence;
        for (const auto &e : by_close.events)
            EXPECT_EQ(e.second, want);

        // The closed image on "disk" is the walked pool's durable image.
        closed.setDurabilityHook(nullptr);
        walked.setDurabilityHook(nullptr);
        EXPECT_EQ(closed.open("a").pool.durableImage().dense(),
                  w.durableImage().dense());
    }
}

/** Records the id of the pool behind every write-back, in order. */
struct PoolOrderRecorder : DurabilityHook
{
    bool
    onWriteBack(Pool &pool, uint32_t, WriteBackCause) override
    {
        if (ids.empty() || ids.back() != pool.id())
            ids.push_back(pool.id());
        return true;
    }

    std::vector<uint32_t> ids;
};

/**
 * Random create/close/open/import sequences against a reference model:
 * a std::map of open ids to names, plus the name of every id ever
 * assigned. After each step find(), get(), openIds() and openCount()
 * must agree with the model, for every id ever assigned and a few
 * beyond; a machine-wide crash, with a transaction open in every open
 * pool, must recover the pools in ascending id order.
 */
TEST(Registry, TableMatchesReferenceModel)
{
    const std::string path =
        std::string(::testing::TempDir()) + "poat_registry_model.pool";
    for (uint64_t seed : {1, 2, 3}) {
        PoolRegistry r(seed);
        Rng rng(seed * 104729);
        std::map<uint32_t, std::string> open;  // model: id -> name
        std::vector<std::string> name_of{""}; // every id ever assigned
        std::vector<std::string> closed;      // names on "disk"

        auto fresh_name = [&] {
            std::string name = "p";
            name += std::to_string(name_of.size());
            return name;
        };
        auto check = [&](int step) {
            const PoolRegistry &cr = r;
            for (uint32_t id = 0; id < name_of.size() + 3; ++id) {
                auto it = open.find(id);
                OpenPool *op = r.find(id);
                ASSERT_EQ(cr.find(id), op) << "step " << step;
                if (it == open.end()) {
                    ASSERT_EQ(op, nullptr)
                        << "id " << id << " step " << step;
                    continue;
                }
                ASSERT_NE(op, nullptr) << "id " << id << " step " << step;
                ASSERT_EQ(&r.get(id), op);
                ASSERT_EQ(op->pool.id(), id);
                ASSERT_EQ(op->pool.name(), it->second);
            }
            std::vector<uint32_t> ids;
            for (const auto &kv : open)
                ids.push_back(kv.first);
            ASSERT_EQ(r.openIds(), ids) << "step " << step;
            ASSERT_EQ(r.openCount(), open.size()) << "step " << step;
        };

        for (int step = 0; step < 150; ++step) {
            const uint64_t op = rng.below(100);
            if (op < 30 || open.empty()) {
                const std::string name = fresh_name();
                OpenPool &p = r.create(name, Pool::kMinSize);
                ASSERT_EQ(p.pool.id(), name_of.size());
                open[p.pool.id()] = name;
                name_of.push_back(name);
            } else if (op < 55) {
                auto it = std::next(open.begin(),
                                    static_cast<long>(
                                        rng.below(open.size())));
                r.close(it->first);
                closed.push_back(it->second);
                open.erase(it);
            } else if (op < 75 && !closed.empty()) {
                const size_t pick = rng.below(closed.size());
                const std::string name = closed[pick];
                closed.erase(closed.begin() + static_cast<long>(pick));
                const uint32_t id = static_cast<uint32_t>(
                    std::find(name_of.begin(), name_of.end(), name) -
                    name_of.begin());
                ASSERT_EQ(r.open(name).pool.id(), id);
                open[id] = name;
            } else if (op < 88) {
                // Import a copy of any known pool: it takes the next id
                // and stays closed until opened.
                const std::string src =
                    name_of[1 + rng.below(name_of.size() - 1)];
                r.exportPool(src, path);
                const std::string name = fresh_name();
                r.importPool(name, path);
                name_of.push_back(name);
                closed.push_back(name);
            } else {
                // A transaction in flight in every open pool, then a
                // machine-wide crash: recovery rolls each one back.
                std::map<uint32_t, uint32_t> cell;
                for (const auto &kv : open) {
                    OpenPool &p = r.get(kv.first);
                    const uint32_t off = p.alloc.alloc(16);
                    p.pool.writeAs<uint64_t>(off, kv.first);
                    p.pool.persist(off, 8);
                    p.log.begin();
                    p.log.addRange(off, 8);
                    p.pool.writeAs<uint64_t>(off, ~uint64_t{0});
                    p.pool.persist(off, 8);
                    cell[kv.first] = off;
                }
                PoolOrderRecorder order;
                r.setDurabilityHook(&order);
                r.crashAll();
                r.recoverAll();
                r.setDurabilityHook(nullptr);
                std::vector<uint32_t> ids;
                for (const auto &kv : open) {
                    ids.push_back(kv.first);
                    ASSERT_EQ(r.get(kv.first).pool.readAs<uint64_t>(
                                  cell[kv.first]),
                              kv.first);
                }
                ASSERT_EQ(order.ids, ids) << "step " << step;
            }
            check(step);
            if (HasFatalFailure())
                return;
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace poat
