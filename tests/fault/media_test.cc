/**
 * @file
 * Media-fault exploration tests: the corruption-recovery matrix
 * (workloads x fault modes x structure kinds), outcome classification
 * (repaired / diagnosed / benign — never an undetected corruption),
 * determinism, fault-site enumeration, and the self-contained
 * reproducer grammar round trip.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/stats.h"
#include "fault/media.h"
#include "fault/injector.h"
#include "pmem/runtime.h"
#include "pmem/tx.h"
#include "workloads/crash_support.h"

namespace poat {
namespace {

using fault::ExploreOptions;
using fault::MediaOptions;
using fault::MediaReport;
using fault::MediaSite;

MediaOptions
smallRun(const std::string &workload)
{
    MediaOptions o;
    o.base.workload = workload;
    o.base.steps = 6;
    o.base.seed = 3;
    o.base.jobs = 2;
    return o;
}

std::string
firstFailure(const MediaReport &rep)
{
    if (rep.failures.empty())
        return "";
    return rep.failures[0].repro() + "  " + rep.failures[0].why;
}

/** Every trial must land in exactly one of the three sanctioned bins. */
void
expectClassified(const MediaReport &rep)
{
    EXPECT_TRUE(rep.ok()) << firstFailure(rep);
    EXPECT_EQ(rep.repaired + rep.diagnosed + rep.benign, rep.trials);
}

// ---- the matrix: every micro workload, single and double faults ------

class MediaMatrix : public ::testing::TestWithParam<const char *>
{};

TEST_P(MediaMatrix, ExhaustiveSingleAndDoubleFaultsSurvive)
{
    MediaOptions o = smallRun(GetParam());
    o.doubles = 3; // three seeded double-fault trials per crash point
    const MediaReport rep = fault::exploreMedia(o);
    expectClassified(rep);
    EXPECT_GT(rep.total_events, 0u);
    EXPECT_EQ(rep.points, 5u) << "default five-point spread";
    EXPECT_GT(rep.sites, 0u);
    // Exhaustive singles (flip + tear per site) plus the doubles.
    EXPECT_GT(rep.trials, 0u);
    EXPECT_GT(rep.injected, rep.trials) << "doubles inject two faults";
    // The mirror-repair paths must actually exercise: at least one
    // trial per workload repairs instead of fail-stopping.
    EXPECT_GT(rep.repaired, 0u);
    EXPECT_GT(rep.diagnosed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMicroWorkloads, MediaMatrix,
                         ::testing::Values("LL", "BST", "SPS", "RBT",
                                           "BT", "B+T"),
                         [](const auto &info) {
                             std::string n = info.param;
                             if (n == "B+T")
                                 return std::string("BplusT");
                             return n;
                         });

TEST(Media, TpccSampledMatrixSurvives)
{
    // TPC-C has tens of thousands of fault sites; the matrix samples.
    MediaOptions o;
    o.base.workload = "TPCC";
    o.base.steps = 3;
    o.base.seed = 1;
    o.sample = 8;
    o.doubles = 2;
    o.points = {0}; // one frozen image keeps the test fast
    const MediaReport rep = fault::exploreMedia(o);
    expectClassified(rep);
    EXPECT_EQ(rep.trials, 10u); // 8 sampled singles + 2 doubles
}

// ---- structure-kind and block filters --------------------------------

TEST(Media, PerKindFaultsAreRepairedOrDiagnosed)
{
    struct Case
    {
        MediaStructure kind;
        bool expect_repairs; // mirror-backed kinds must repair
    };
    const Case cases[] = {
        {MediaStructure::Superblock, true},
        {MediaStructure::LogHeader, true},
        {MediaStructure::LogEntry, false},
        {MediaStructure::BlockHeader, false},
    };
    for (const Case &c : cases) {
        MediaOptions o = smallRun("B+T");
        o.kinds = {c.kind};
        const MediaReport rep = fault::exploreMedia(o);
        expectClassified(rep);
        EXPECT_GT(rep.trials, 0u) << mediaStructureName(c.kind);
        if (c.expect_repairs) {
            // Replicated structures always have an intact copy left
            // after a single fault, so every trial repairs.
            EXPECT_EQ(rep.repaired, rep.trials)
                << mediaStructureName(c.kind);
        }
    }
}

TEST(Media, BlockFilterSelectsAllocatedOrFree)
{
    MediaOptions alloc_only = smallRun("LL");
    alloc_only.kinds = {MediaStructure::BlockHeader};
    alloc_only.block_filter = 1;
    MediaOptions free_only = alloc_only;
    free_only.block_filter = 2;

    const MediaReport a = fault::exploreMedia(alloc_only);
    const MediaReport f = fault::exploreMedia(free_only);
    expectClassified(a);
    expectClassified(f);
    EXPECT_GT(a.trials, 0u);
    EXPECT_GT(f.trials, 0u);

    MediaOptions any = alloc_only;
    any.block_filter = 0;
    const MediaReport all = fault::exploreMedia(any);
    EXPECT_EQ(all.trials, a.trials + f.trials)
        << "allocated + free filters partition the block sites";
}

// ---- determinism and enumeration -------------------------------------

TEST(Media, DeterministicAcrossRuns)
{
    MediaOptions o = smallRun("BST");
    o.doubles = 2;
    const MediaReport a = fault::exploreMedia(o);
    const MediaReport b = fault::exploreMedia(o);
    EXPECT_EQ(a.total_events, b.total_events);
    EXPECT_EQ(a.sites, b.sites);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.repaired, b.repaired);
    EXPECT_EQ(a.diagnosed, b.diagnosed);
    EXPECT_EQ(a.benign, b.benign);
    ASSERT_EQ(a.failures.size(), b.failures.size());
}

TEST(Media, SiteEnumerationCoversEveryStructureKind)
{
    // Freeze a mid-run image by hand and check the site table shape:
    // per pool two superblock copies and two log-header copies, plus
    // block headers for the heap; entry sites appear when the log is
    // non-empty.
    PmemRuntime rt;
    auto driver = workloads::makeCrashDriver("LL", 6, 3);
    driver->setup(rt);
    for (uint64_t i = 0; i < 6; ++i)
        driver->step(rt, i);
    rt.registry().crashAll();

    const std::vector<MediaSite> sites =
        fault::enumerateMediaSites(rt.registry());
    size_t superblocks = 0, log_headers = 0, blocks = 0, allocated = 0;
    for (const MediaSite &s : sites) {
        switch (s.kind) {
        case MediaStructure::Superblock:
            ++superblocks;
            EXPECT_EQ(s.len, sizeof(PoolHeader));
            break;
        case MediaStructure::LogHeader:
            ++log_headers;
            EXPECT_EQ(s.len, sizeof(LogHeader));
            break;
        case MediaStructure::BlockHeader:
            ++blocks;
            allocated += s.allocated_block ? 1 : 0;
            break;
        default:
            break;
        }
    }
    const size_t pools = rt.registry().openIds().size();
    EXPECT_EQ(superblocks, 2 * pools) << "primary + mirror per pool";
    EXPECT_EQ(log_headers, 2 * pools) << "primary + mirror per pool";
    EXPECT_GT(blocks, 0u);
    EXPECT_GT(allocated, 0u);

    // Enumeration is deterministic on a frozen image.
    const std::vector<MediaSite> again =
        fault::enumerateMediaSites(rt.registry());
    ASSERT_EQ(again.size(), sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
        EXPECT_EQ(again[i].pool_id, sites[i].pool_id);
        EXPECT_EQ(again[i].off, sites[i].off);
        EXPECT_EQ(again[i].len, sites[i].len);
    }
}

TEST(Media, SiteEnumerationCoversEveryLogSlot)
{
    // A 2-worker LHT pool carves one undo-log slot per worker, and a
    // crash mid-round can freeze both slots' transactions in flight.
    // Every slot contributes its header pair and then its published
    // entries, in slot order, before the heap's block headers.
    auto freeze = [](PmemRuntime &rt, DurabilityHook *hook) {
        auto driver = workloads::makeCrashDriver("LHT", 4, 1, 2, 1);
        driver->setup(rt);
        rt.registry().setDurabilityHook(hook);
        for (uint64_t i = 0; i < 4; ++i)
            driver->step(rt, i);
        rt.registry().setDurabilityHook(nullptr);
        rt.registry().crashAll();
    };
    RuntimeOptions ro;
    ro.log_slots = 2;
    fault::EventCounter counter;
    {
        PmemRuntime rt(ro);
        freeze(rt, &counter);
    }
    ASSERT_GT(counter.total(), 0u);

    size_t busy_slot1 = 0;
    for (uint64_t k = 0; k <= counter.total(); ++k) {
        PmemRuntime rt(ro);
        fault::CrashAtEvent crash(k);
        freeze(rt, &crash);
        const std::vector<MediaSite> sites =
            fault::enumerateMediaSites(rt.registry());
        for (uint32_t id : rt.registry().openIds()) {
            Pool &pool = rt.registry().get(id).pool;
            const PoolHeader &ph = pool.header();
            ASSERT_EQ(UndoLog::slotCount(ph), 2u);
            // This pool's sites past its superblock pair, in order.
            std::vector<MediaSite> mine;
            for (const MediaSite &s : sites)
                if (s.pool_id == id && s.kind != MediaStructure::Superblock)
                    mine.push_back(s);
            size_t at = 0;
            for (uint32_t slot = 0; slot < 2; ++slot) {
                const uint32_t off = UndoLog::slotOffset(ph, slot);
                ASSERT_LT(at + 1, mine.size());
                EXPECT_EQ(mine[at].kind, MediaStructure::LogHeader);
                EXPECT_EQ(mine[at].off, off);
                EXPECT_EQ(mine[at + 1].kind, MediaStructure::LogHeader);
                EXPECT_EQ(mine[at + 1].off, off + LogHeader::kMirrorLineOff);
                at += 2;
                // One header site (plus a payload site) per entry, all
                // inside this slot.
                const LogHeader lh = pool.readAs<LogHeader>(off);
                size_t entries = 0;
                for (; at < mine.size() &&
                     mine[at].kind == MediaStructure::LogEntry;
                     ++at) {
                    EXPECT_GE(mine[at].off, off + LogHeader::kEntriesOff);
                    EXPECT_LE(mine[at].off + mine[at].len,
                              off + UndoLog::slotSize(ph));
                    entries += 1;
                }
                EXPECT_GE(entries, lh.num_entries) << "k=" << k;
                EXPECT_LE(entries, 2 * lh.num_entries) << "k=" << k;
                if (slot == 1 && lh.num_entries > 0)
                    ++busy_slot1;
            }
            for (; at < mine.size(); ++at)
                EXPECT_EQ(mine[at].kind, MediaStructure::BlockHeader);
        }
    }
    // Some crash point froze slot 1 with entries the table now covers.
    EXPECT_GT(busy_slot1, 0u);
}

TEST(Media, PublishExportsCounters)
{
    StatsRegistry stats;
    fault::exploreMedia(smallRun("LL")).publish(stats);
    EXPECT_GT(stats.counter("fault.media.sites"), 0u);
    EXPECT_GT(stats.counter("fault.media.trials"), 0u);
    EXPECT_GT(stats.counter("fault.media.repaired"), 0u);
    EXPECT_EQ(stats.counter("fault.media.failures"), 0u);
}

// ---- self-contained reproducers --------------------------------------

TEST(Media, ReproStringEncodesMediaAndEviction)
{
    fault::Failure f;
    f.workload = "B+T";
    f.steps = 50;
    f.seed = 1;
    f.k = 7;
    f.media = "17";
    EXPECT_EQ(f.repro(), "B+T:50:1:7:m17");
    f.media = "17+42";
    EXPECT_EQ(f.repro(), "B+T:50:1:7:m17+42");
    f.evict_num = 1;
    f.evict_den = 8;
    EXPECT_EQ(f.repro(), "B+T:50:1:7:m17+42:e1/8");
    f.media.clear();
    EXPECT_EQ(f.repro(), "B+T:50:1:7:e1/8");
}

TEST(Media, ReproRoundTripsThroughReplay)
{
    // A healthy trial replayed from its reproducer string reports
    // nothing — and needs no out-of-band options, the string carries
    // the media fault index and the eviction schedule itself.
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:m0").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:m0+5").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:m0:e1/8").empty());
    EXPECT_TRUE(fault::replayRepro("LL:5:2:3:e1/8").empty());
}

TEST(Media, MalformedReproThrows)
{
    // Media trials have no in-recovery crash point.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:4:m1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m"), std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:mx"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m1+"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m1+2+3"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e1/0"),
                 std::invalid_argument);
    // The eviction token shares --evict's NUM/DEN parser: strict
    // numbers, 0 <= NUM <= DEN.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e1/-4"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e5/4"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:e1/4x"),
                 std::invalid_argument);
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m-1"),
                 std::invalid_argument);
    // A fault index past the image's site space is an error, not UB.
    EXPECT_THROW(fault::replayRepro("LL:5:2:3:m99999999"),
                 std::invalid_argument);
}

} // namespace
} // namespace poat
