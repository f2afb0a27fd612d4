/** @file Unit and crash-matrix property tests for the undo log. */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pmem/alloc.h"
#include "pmem/pool.h"
#include "pmem/tx.h"

namespace poat {
namespace {

struct Fixture
{
    Fixture() : pool("p", 1, 1 << 20), alloc(pool), log(pool, alloc) {}
    Pool pool;
    PoolAllocator alloc;
    UndoLog log;
};

TEST(Tx, CommitMakesDataDurable)
{
    Fixture f;
    const uint32_t off = f.alloc.alloc(64);
    f.log.begin();
    f.log.addRange(off, 8);
    f.pool.writeAs<uint64_t>(off, 42);
    f.log.commit();
    f.pool.crash();
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 42u);
}

TEST(Tx, AbortRestoresOldData)
{
    Fixture f;
    const uint32_t off = f.alloc.alloc(64);
    f.pool.writeAs<uint64_t>(off, 7);
    f.pool.persist(off, 8);
    f.log.begin();
    f.log.addRange(off, 8);
    f.pool.writeAs<uint64_t>(off, 8);
    f.log.abort();
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 7u);
}

TEST(Tx, CrashBeforeCommitRollsBack)
{
    Fixture f;
    const uint32_t off = f.alloc.alloc(64);
    f.pool.writeAs<uint64_t>(off, 7);
    f.pool.persist(off, 8);
    f.log.begin();
    f.log.addRange(off, 8);
    f.pool.writeAs<uint64_t>(off, 8);
    f.pool.persist(off, 8); // even a persisted update must roll back

    f.pool.crash();
    f.alloc.rescan();
    f.log.markCrashed();
    EXPECT_TRUE(f.log.recover());
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 7u);
    // Recovery itself persisted the rollback.
    f.pool.crash();
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 7u);
}

TEST(Tx, RecoverOnIdleLogIsNoop)
{
    Fixture f;
    EXPECT_FALSE(f.log.recover());
}

TEST(Tx, TxAllocIsRolledBackOnCrash)
{
    Fixture f;
    f.log.begin();
    const uint32_t off = f.alloc.alloc(64);
    f.log.logAlloc(off);
    EXPECT_TRUE(f.alloc.isAllocated(off));

    f.pool.crash();
    f.alloc.rescan();
    f.log.markCrashed();
    f.log.recover();
    EXPECT_FALSE(f.alloc.isAllocated(off));
    EXPECT_TRUE(f.alloc.validate());
}

TEST(Tx, TxFreeIsDeferredUntilCommit)
{
    Fixture f;
    const uint32_t off = f.alloc.alloc(64);
    f.log.begin();
    f.log.logFree(off);
    EXPECT_TRUE(f.alloc.isAllocated(off)) << "free must be deferred";
    f.log.commit();
    EXPECT_FALSE(f.alloc.isAllocated(off));
    EXPECT_TRUE(f.alloc.validate());
}

TEST(Tx, AbortedFreeLeavesBlockAllocated)
{
    Fixture f;
    const uint32_t off = f.alloc.alloc(64);
    f.log.begin();
    f.log.logFree(off);
    f.log.abort();
    EXPECT_TRUE(f.alloc.isAllocated(off));
}

TEST(Tx, MultipleRangesUndoInReverseOrder)
{
    Fixture f;
    const uint32_t off = f.alloc.alloc(64);
    f.pool.writeAs<uint64_t>(off, 1);
    f.pool.persist(off, 8);
    f.log.begin();
    // Log the same range twice with an intermediate modification; undo
    // must restore the value from before the *first* snapshot.
    f.log.addRange(off, 8);
    f.pool.writeAs<uint64_t>(off, 2);
    f.log.addRange(off, 8);
    f.pool.writeAs<uint64_t>(off, 3);
    f.log.abort();
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 1u);
}

TEST(Tx, LogCapacityIsTracked)
{
    Fixture f;
    const uint32_t before = f.log.remainingCapacity();
    f.log.begin();
    const uint32_t off = f.alloc.alloc(256);
    f.log.addRange(off, 256);
    EXPECT_LT(f.log.remainingCapacity(), before);
    f.log.commit();
    EXPECT_EQ(f.log.entryCount(), 0u);
}

TEST(Tx, RecordsExposeEntries)
{
    Fixture f;
    const uint32_t a = f.alloc.alloc(64);
    f.log.begin();
    f.log.addRange(a, 16);
    const uint32_t b = f.alloc.alloc(32);
    f.log.logAlloc(b);
    f.log.logFree(a);
    const auto recs = f.log.records();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].type, LogEntryHeader::kData);
    EXPECT_EQ(recs[0].target_off, a);
    EXPECT_EQ(recs[0].size, 16u);
    EXPECT_EQ(recs[1].type, LogEntryHeader::kAlloc);
    EXPECT_EQ(recs[1].target_off, b);
    EXPECT_EQ(recs[2].type, LogEntryHeader::kFree);
    f.log.commit();
}

TEST(Tx, ExhaustionThrowsDescriptiveError)
{
    // 2 KiB log region (128 bytes of it are the mirrored header lines):
    // one big range fits, the second cannot.
    Pool pool("tiny", 1, 1 << 20, 2048);
    PoolAllocator alloc(pool);
    UndoLog log(pool, alloc);

    const uint32_t off = alloc.alloc(2048);
    log.begin();
    log.addRange(off, 1000);
    try {
        log.addRange(off + 1024, 1000);
        FAIL() << "second addRange should exhaust the log";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("undo log exhausted"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'tiny'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("log_size=2048"), std::string::npos) << msg;
        EXPECT_NE(msg.find("requested="), std::string::npos) << msg;
    }
    // The log is untouched by the failed append: abort still works.
    log.abort();
    EXPECT_EQ(log.entryCount(), 0u);
}

TEST(Tx, CommitPersistsTxAllocatedPayload)
{
    // Stores into a freshly tx-allocated object have no kData snapshot;
    // commit must persist them through the kAlloc entry's alloc_size or
    // a crash after commit silently loses the object's contents.
    Fixture f;
    f.log.begin();
    const uint32_t off = f.alloc.alloc(64, /*persist_now=*/false);
    f.log.logAlloc(off, 64);
    f.alloc.persistTouched();
    f.pool.writeAs<uint64_t>(off, 123); // note: no addRange, no persist
    f.log.commit();

    f.pool.crash();
    f.alloc.rescan();
    EXPECT_TRUE(f.alloc.isAllocated(off));
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 123u);
}

TEST(Tx, RecoverTwiceIsIdempotent)
{
    Fixture f;
    const uint32_t off = f.alloc.alloc(64);
    f.pool.writeAs<uint64_t>(off, 7);
    f.pool.persist(off, 8);
    f.log.begin();
    f.log.addRange(off, 8);
    f.pool.writeAs<uint64_t>(off, 8);
    f.pool.persist(off, 8);

    f.pool.crash();
    f.alloc.rescan();
    f.log.markCrashed();
    EXPECT_TRUE(f.log.recover());
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 7u);

    // A second recovery of the now-idle log must be a no-op.
    EXPECT_FALSE(f.log.recover());
    EXPECT_EQ(f.pool.readAs<uint64_t>(off), 7u);
    EXPECT_EQ(f.log.entryCount(), 0u);
    EXPECT_TRUE(f.alloc.validate());
}

/**
 * A crashed image with a kCommitting (or kActive) log header whose
 * trailing entries are garbage or truncated must fail recovery with a
 * descriptive error — never walk the corrupt entries (UB).
 */
class TxCorruptLog : public ::testing::Test
{
  protected:
    TxCorruptLog() : pool("p", 1, 1 << 20), alloc(pool), log(pool, alloc)
    {
        log_off = pool.header().log_off;
    }

    /**
     * Fixtures target the *structural* validation, so headers and
     * entries are correctly crc-sealed — a stale checksum would trip
     * the (earlier) checksum check instead of the message under test.
     */
    void writeLogHeader(uint32_t state, uint32_t entries, uint32_t used)
    {
        LogHeader h{state, entries, used, 0};
        h.seal();
        pool.writeRaw(log_off, &h, sizeof(h));
        pool.writeRaw(log_off + LogHeader::kMirrorLineOff, &h, sizeof(h));
        pool.persist(log_off, LogHeader::kEntriesOff);
    }

    /** A sealed entry header; the fields not named here are 0. */
    void writeEntry(uint32_t at, uint32_t type, uint32_t payload_size,
                    uint32_t target_off)
    {
        LogEntryHeader eh{};
        eh.type = type;
        eh.payload_size = payload_size;
        eh.target_off = target_off;
        eh.seal();
        pool.writeRaw(at, &eh, sizeof(eh));
        pool.persist(at, sizeof(eh));
    }

    std::string recoverError()
    {
        pool.crash();
        alloc.rescan();
        log.markCrashed();
        try {
            log.recover();
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    }

    Pool pool;
    PoolAllocator alloc;
    UndoLog log;
    uint32_t log_off = 0;
};

TEST_F(TxCorruptLog, CommittingWithGarbageEntryTypeFailsClearly)
{
    writeEntry(log_off + LogHeader::kEntriesOff, 77, 16, 4096);
    writeLogHeader(LogHeader::kCommitting, 1,
                   sizeof(LogEntryHeader) + 16);
    const std::string msg = recoverError();
    EXPECT_NE(msg.find("corrupt undo log"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown type"), std::string::npos) << msg;
}

TEST_F(TxCorruptLog, CommittingWithTruncatedEntryFailsClearly)
{
    // One entry whose claimed payload runs past the end of the log
    // region: the walk must stop at the bounds check, not read off the
    // end.
    writeEntry(log_off + LogHeader::kEntriesOff, LogEntryHeader::kData,
               1u << 20, 4096);
    writeLogHeader(LogHeader::kCommitting, 1, 64);
    const std::string msg = recoverError();
    EXPECT_NE(msg.find("corrupt undo log"), std::string::npos) << msg;
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

TEST_F(TxCorruptLog, ActiveWithEntryWalkUsedMismatchFailsClearly)
{
    writeEntry(log_off + LogHeader::kEntriesOff, LogEntryHeader::kFree, 0,
               4096);
    writeLogHeader(LogHeader::kActive, 1, 999);
    const std::string msg = recoverError();
    EXPECT_NE(msg.find("corrupt undo log"), std::string::npos) << msg;
}

TEST_F(TxCorruptLog, UnknownStateMachineValueFailsClearly)
{
    writeLogHeader(9, 0, 0);
    const std::string msg = recoverError();
    EXPECT_NE(msg.find("unknown state machine value"), std::string::npos)
        << msg;
}

/**
 * Crash matrix: run a multi-step transactional update and crash after
 * every possible step (with random early line evictions thrown in);
 * recovery must always land on either the pre-transaction or the
 * post-transaction state — never anything in between.
 */
class TxCrashMatrix
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>>
{
};

TEST_P(TxCrashMatrix, RecoveryIsAtomic)
{
    const auto [crash_step, seed] = GetParam();
    Rng rng(seed);

    Pool pool("p", 1, 1 << 20);
    PoolAllocator alloc(pool);
    UndoLog log(pool, alloc);

    // Committed initial state: three cells = 10, 20, 30.
    const uint32_t off = alloc.alloc(64);
    pool.writeAs<uint64_t>(off, 10);
    pool.writeAs<uint64_t>(off + 8, 20);
    pool.writeAs<uint64_t>(off + 16, 30);
    pool.persist(off, 24);

    // Transaction: cells := 11, 21, 31 plus one tx-alloc and the free
    // of a scratch block. Crash after step `crash_step`.
    const uint32_t scratch = alloc.alloc(48);
    pool.persist(scratch, 8);

    int step = 0;
    auto maybe_crash = [&]() -> bool {
        if (step++ == crash_step) {
            pool.evictRandomLines(rng, 1, 3);
            pool.crash();
            return true;
        }
        return false;
    };

    bool crashed = false;
    uint32_t txblock = 0;
    do {
        log.begin();
        if ((crashed = maybe_crash()))
            break;
        log.addRange(off, 24);
        if ((crashed = maybe_crash()))
            break;
        pool.writeAs<uint64_t>(off, 11);
        pool.writeAs<uint64_t>(off + 8, 21);
        if ((crashed = maybe_crash()))
            break;
        pool.writeAs<uint64_t>(off + 16, 31);
        txblock = alloc.alloc(40);
        log.logAlloc(txblock);
        if ((crashed = maybe_crash()))
            break;
        log.logFree(scratch);
        if ((crashed = maybe_crash()))
            break;
        log.commit();
        crashed = maybe_crash();
    } while (false);

    if (!crashed) {
        // Steps exhausted without a crash: transaction committed.
        EXPECT_EQ(pool.readAs<uint64_t>(off), 11u);
        return;
    }

    alloc.rescan();
    log.markCrashed();
    log.recover();
    ASSERT_TRUE(alloc.validate());

    const uint64_t a = pool.readAs<uint64_t>(off);
    const uint64_t b = pool.readAs<uint64_t>(off + 8);
    const uint64_t c = pool.readAs<uint64_t>(off + 16);
    const bool old_state = (a == 10 && b == 20 && c == 30);
    const bool new_state = (a == 11 && b == 21 && c == 31);
    EXPECT_TRUE(old_state || new_state)
        << "torn state after crash at step " << crash_step << ": "
        << a << "," << b << "," << c;

    if (old_state) {
        // Rolled back: the tx allocation must not survive.
        if (txblock != 0) {
            EXPECT_FALSE(alloc.isAllocated(txblock));
        }
        EXPECT_TRUE(alloc.isAllocated(scratch));
    } else {
        // Committed: the deferred free must have completed.
        EXPECT_FALSE(alloc.isAllocated(scratch));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStepsAndSeeds, TxCrashMatrix,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(1u, 17u, 99u, 1234u)));

} // namespace
} // namespace poat
