/**
 * @file
 * On-media header checksum tests, table-driven over every sealed
 * structure kind (PoolHeader, LogHeader, LogEntryHeader, BlockHeader):
 * every single-bit flip inside a structure's covered extent must fail
 * validation, reseal-after-update must round-trip, and the per-kind
 * seed choices must give a zeroed image the decoding each structure
 * needs. Also pins the MediaError diagnostic contract (pool, offset,
 * structure kind).
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>

#include "pmem/alloc.h"
#include "pmem/checksum.h"
#include "pmem/pool.h"
#include "pmem/tx.h"

namespace poat {
namespace {

/**
 * Flip every bit of @p sealed in [0, covered_end) one at a time and
 * require @p valid to reject each flipped copy. Works on any standard-
 * layout on-media header.
 */
template <typename T, typename Valid>
void
expectEveryFlipDetected(const T &sealed, size_t covered_end, Valid valid)
{
    ASSERT_TRUE(valid(sealed));
    ASSERT_LE(covered_end, sizeof(T));
    for (size_t byte = 0; byte < covered_end; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            T copy = sealed;
            reinterpret_cast<uint8_t *>(&copy)[byte] ^=
                static_cast<uint8_t>(1u << bit);
            EXPECT_FALSE(valid(copy))
                << "undetected flip at byte " << byte << " bit " << bit;
        }
    }
}

PoolHeader
samplePoolHeader()
{
    PoolHeader h{};
    h.magic = PoolHeader::kMagic;
    h.version = PoolHeader::kVersion;
    h.pool_id = 7;
    h.pool_size = 1 << 20;
    h.root_off = 4096;
    h.root_size = 128;
    h.heap_off = Pool::kHeaderSize;
    h.heap_size = (1 << 20) - Pool::kHeaderSize - Pool::kDefaultLogSize;
    h.log_off = (1 << 20) - Pool::kDefaultLogSize;
    h.log_size = Pool::kDefaultLogSize;
    h.seal();
    return h;
}

TEST(HeaderChecksums, PoolHeaderEveryFieldFlipDetected)
{
    const PoolHeader h = samplePoolHeader();
    // Everything up to and including the crc word is covered.
    expectEveryFlipDetected(
        h, offsetof(PoolHeader, crc) + sizeof(h.crc),
        [](const PoolHeader &x) { return x.crcValid(); });
}

TEST(HeaderChecksums, PoolHeaderPadIsCoveredByTheMirrorNotTheCrc)
{
    // The trailing pad sits after the crc and is not summed; a flip
    // there fails the slot count's complement self-check instead, so
    // full validity rejects the copy and the scrub repairs it from the
    // other one.
    PoolHeader h = samplePoolHeader();
    h.pad = PoolHeader::encodeLogSlots(4);
    EXPECT_TRUE(h.valid(1 << 20));
    for (uint32_t bit = 0; bit < 32; ++bit) {
        PoolHeader f = h;
        f.pad ^= 1u << bit;
        EXPECT_TRUE(f.crcValid());
        EXPECT_FALSE(f.valid(1 << 20)) << "bit " << bit;
    }
    h.pad = 0; // the single-slot (legacy) encoding
    h.pad ^= 1u;
    EXPECT_FALSE(h.valid(1 << 20));
}

TEST(HeaderChecksums, PoolHeaderFullValidityChecksMagicAndSize)
{
    PoolHeader h = samplePoolHeader();
    EXPECT_TRUE(h.valid(1 << 20));
    EXPECT_FALSE(h.valid(1 << 19)); // right crc, wrong image size
    h.magic = 0;
    h.seal();
    EXPECT_TRUE(h.crcValid());
    EXPECT_FALSE(h.valid(1 << 20)); // sealed garbage is still garbage
}

TEST(HeaderChecksums, LogHeaderEveryFieldFlipDetected)
{
    LogHeader h{};
    h.state = LogHeader::kActive;
    h.num_entries = 3;
    h.used = 160;
    h.seal();
    expectEveryFlipDetected(
        h, sizeof(LogHeader),
        [](const LogHeader &x) { return x.crcValid(); });
}

TEST(HeaderChecksums, ZeroedLogHeaderIsValidIdle)
{
    // Seed 0: a freshly zeroed log region decodes as a validly sealed
    // idle header — fresh pools have nothing to recover.
    LogHeader h{};
    EXPECT_TRUE(h.crcValid());
    EXPECT_EQ(h.state, LogHeader::kIdle);
}

TEST(HeaderChecksums, LogEntryHeaderEveryFieldFlipDetected)
{
    LogEntryHeader e{};
    e.type = LogEntryHeader::kData;
    e.payload_size = 48;
    e.target_off = 4096;
    e.alloc_size = 0;
    e.data_crc = 0x12345678;
    e.seal();
    // hdr_crc covers every preceding field including the pads, so the
    // whole 32-byte header is covered.
    expectEveryFlipDetected(
        e, sizeof(LogEntryHeader),
        [](const LogEntryHeader &x) { return x.hdrCrcValid(); });
}

TEST(HeaderChecksums, ZeroedLogEntryHeaderIsInvalid)
{
    // kCrcSeed is nonzero so zeroed media past the published entries
    // can never parse as a sealed entry.
    LogEntryHeader e{};
    EXPECT_FALSE(e.hdrCrcValid());
}

TEST(HeaderChecksums, BlockHeaderSealedWordFlipDetected)
{
    BlockHeader b{};
    b.size = 64;
    b.prev_size = 32;
    b.flags = BlockHeader::kAllocated;
    b.seal();
    // The sealed word (size, flags) must reject every flip...
    expectEveryFlipDetected(
        b, offsetof(BlockHeader, prev_size),
        [](const BlockHeader &x) { return x.crcValid(); });
    // ...and so must the crc itself.
    for (size_t byte = offsetof(BlockHeader, crc);
         byte < sizeof(BlockHeader); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            BlockHeader copy = b;
            reinterpret_cast<uint8_t *>(&copy)[byte] ^=
                static_cast<uint8_t>(1u << bit);
            EXPECT_FALSE(copy.crcValid())
                << "undetected flip at byte " << byte << " bit " << bit;
        }
    }
}

TEST(HeaderChecksums, BlockHeaderPrevSizeIsUnsealed)
{
    // prev_size is derivable redundancy, deliberately outside the
    // checksum: a torn neighbour update that only rewrote prev_size
    // must leave the header valid (the chain walk repairs the stale
    // value). This is what makes a bystander block's header
    // tear-proof — see BlockHeader's class comment.
    BlockHeader b{};
    b.size = 64;
    b.prev_size = 32;
    b.flags = BlockHeader::kAllocated;
    b.seal();
    BlockHeader stale = b;
    stale.prev_size = 4096;
    EXPECT_TRUE(stale.crcValid());
    EXPECT_EQ(stale.crc, b.crc);
}

TEST(HeaderChecksums, ZeroedBlockHeaderIsInvalid)
{
    // Seeded with kMagic: a fresh (never-written) heap header fails
    // validation, which is how the allocator detects an unformatted
    // heap instead of trusting garbage.
    BlockHeader b{};
    EXPECT_FALSE(b.crcValid());
}

TEST(HeaderChecksums, ResealAfterUpdateRoundTrips)
{
    // The incremental maintenance pattern every writer uses: mutate a
    // field, reseal, and the structure validates again with a new sum.
    BlockHeader b{};
    b.size = 64;
    b.prev_size = 0;
    b.flags = 0;
    b.seal();
    const uint32_t old_crc = b.crc;
    ASSERT_TRUE(b.crcValid());

    b.flags = BlockHeader::kAllocated;
    EXPECT_FALSE(b.crcValid());
    b.seal();
    EXPECT_TRUE(b.crcValid());
    EXPECT_NE(b.crc, old_crc);
}

TEST(HeaderChecksums, MediaErrorCarriesPreciseDiagnostics)
{
    const MediaError e("accounts", 4096, MediaStructure::BlockHeader,
                       "both copies corrupt");
    EXPECT_EQ(e.poolName(), "accounts");
    EXPECT_EQ(e.offset(), 4096u);
    EXPECT_EQ(e.kind(), MediaStructure::BlockHeader);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("accounts"), std::string::npos);
    EXPECT_NE(msg.find("4096"), std::string::npos);
    EXPECT_NE(msg.find("block header"), std::string::npos);
    EXPECT_NE(msg.find("both copies corrupt"), std::string::npos);
}

TEST(HeaderChecksums, StructureNamesAreStable)
{
    // These names appear in MediaError messages and operator-facing
    // tooling; renaming them is a user-visible change.
    EXPECT_STREQ(mediaStructureName(MediaStructure::Superblock),
                 "superblock");
    EXPECT_STREQ(mediaStructureName(MediaStructure::LogHeader),
                 "log header");
    EXPECT_STREQ(mediaStructureName(MediaStructure::LogEntry),
                 "log entry");
    EXPECT_STREQ(mediaStructureName(MediaStructure::BlockHeader),
                 "block header");
}

} // namespace
} // namespace poat
