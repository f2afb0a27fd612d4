/**
 * @file
 * CRC32C codec tests: known-answer vectors against the published
 * CRC-32C (Castagnoli) check values, the incremental/rolling property
 * every on-media structure relies on for resealing, and the seed
 * conventions that make an all-zero image decode the way each
 * structure needs (valid-idle for the undo log, invalid for heap block
 * headers), and the slicing-by-8 path against a byte-at-a-time
 * reference kept here.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"

namespace poat {
namespace {

/**
 * The byte-at-a-time reference: the classic one-table loop, with its
 * table built here bit by bit so it shares nothing with the slicing
 * tables under test.
 */
uint32_t
bytewiseCrc32c(const uint8_t *p, size_t n, uint32_t c)
{
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int b = 0; b < 8; ++b)
            c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    return c;
}

TEST(Crc32c, KnownAnswerVectors)
{
    // The canonical CRC-32C check value (RFC 3720 appendix, every CRC
    // catalogue): "123456789" -> 0xE3069283.
    EXPECT_EQ(crc32cStd("123456789", 9), 0xE3069283u);

    // iSCSI test vectors from RFC 3720: 32 bytes of zeros and 32 bytes
    // of 0xFF.
    std::vector<uint8_t> buf(32, 0x00);
    EXPECT_EQ(crc32cStd(buf.data(), buf.size()), 0x8A9136AAu);
    buf.assign(32, 0xFF);
    EXPECT_EQ(crc32cStd(buf.data(), buf.size()), 0x62A8AB43u);

    // An ascending byte ramp, also from RFC 3720.
    for (size_t i = 0; i < 32; ++i)
        buf[i] = static_cast<uint8_t>(i);
    EXPECT_EQ(crc32cStd(buf.data(), buf.size()), 0x46DD794Eu);
}

TEST(Crc32c, StdFormIsInvertedRawForm)
{
    const char *msg = "123456789";
    EXPECT_EQ(crc32cStd(msg, 9), ~crc32c(msg, 9, 0xFFFFFFFFu));
}

TEST(Crc32c, EmptyInputReturnsSeed)
{
    EXPECT_EQ(crc32c(nullptr, 0, 0u), 0u);
    EXPECT_EQ(crc32c(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32c, IncrementalMatchesOneShot)
{
    // crc32c(a + b) == crc32c(b, crc32c(a)) for every split point —
    // the rolling property that lets recovery reseal a structure
    // without re-reading what it already summed.
    const std::string data = "hardware supported persistent object "
                             "address translation";
    const uint32_t whole = crc32c(data.data(), data.size(), 0x12345678u);
    for (size_t split = 0; split <= data.size(); ++split) {
        const uint32_t part = crc32c(data.data(), split, 0x12345678u);
        EXPECT_EQ(crc32c(data.data() + split, data.size() - split, part),
                  whole)
            << "split at " << split;
    }
}

TEST(Crc32c, ZeroSeedMakesAllZerosSelfConsistent)
{
    // Seed 0 over zeros stays 0: a freshly zeroed undo-log header
    // (state/num_entries/used/crc all zero) is validly sealed, which is
    // exactly the "nothing to recover" a fresh pool means.
    std::vector<uint8_t> zeros(64, 0);
    EXPECT_EQ(crc32c(zeros.data(), zeros.size(), 0u), 0u);
}

TEST(Crc32c, NonzeroSeedRejectsAllZeros)
{
    // A nonzero seed (BlockHeader::kMagic style) makes the all-zero
    // image checksum to something nonzero, so a never-written header
    // cannot masquerade as valid.
    std::vector<uint8_t> zeros(12, 0);
    EXPECT_NE(crc32c(zeros.data(), zeros.size(), 0xb10cb10cu), 0u);
}

TEST(Crc32c, EveryBitFlipChangesTheSum)
{
    uint8_t block[24];
    for (size_t i = 0; i < sizeof(block); ++i)
        block[i] = static_cast<uint8_t>(0xA5 ^ i);
    const uint32_t ref = crc32c(block, sizeof(block), 7u);
    for (size_t byte = 0; byte < sizeof(block); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            block[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_NE(crc32c(block, sizeof(block), 7u), ref)
                << "undetected flip at byte " << byte << " bit " << bit;
            block[byte] ^= static_cast<uint8_t>(1u << bit);
        }
    }
    EXPECT_EQ(crc32c(block, sizeof(block), 7u), ref);
}

TEST(Crc32c, SlicingMatchesBytewiseReference)
{
    // Every length 0-300 (the 8-byte blocks and each 0-7 byte tail),
    // at every start alignment, from random seeds, over random data.
    Rng rng(0xc5c32c);
    std::vector<uint8_t> buf(300 + 8);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (size_t align = 0; align < 8; ++align) {
        for (size_t n = 0; n <= 300; ++n) {
            const uint32_t seed = static_cast<uint32_t>(rng.next());
            ASSERT_EQ(crc32c(buf.data() + align, n, seed),
                      bytewiseCrc32c(buf.data() + align, n, seed))
                << "length " << n << " alignment " << align;
        }
    }

    // Incremental sums split at every point of a 300-byte message,
    // each half starting at any alignment the split leaves it.
    const uint32_t seed = static_cast<uint32_t>(rng.next());
    const uint32_t whole = bytewiseCrc32c(buf.data() + 3, 300, seed);
    for (size_t split = 0; split <= 300; ++split) {
        const uint32_t part = crc32c(buf.data() + 3, split, seed);
        ASSERT_EQ(crc32c(buf.data() + 3 + split, 300 - split, part), whole)
            << "split at " << split;
    }

    // A single set bit at each position of a block, so every lane of
    // every slicing table is read with a nonzero index.
    for (size_t bit = 0; bit < 64 * 8; ++bit) {
        uint8_t block[64] = {};
        block[bit / 8] = static_cast<uint8_t>(1u << (bit % 8));
        ASSERT_EQ(crc32c(block, sizeof(block), 0u),
                  bytewiseCrc32c(block, sizeof(block), 0u))
            << "bit " << bit;
    }
}

} // namespace
} // namespace poat
