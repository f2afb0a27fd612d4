/**
 * @file
 * The shared LEB128 codec: roundtrips, and the same answer whether the
 * varint ends well before the buffer does or right at its end, where
 * the one bounds check per varint has to stop the decoder.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/varint.h"

namespace poat {
namespace {

const uint64_t kEdgeValues[] = {0,
                                1,
                                0x7f,
                                0x80,
                                0x3fff,
                                0x4000,
                                1ull << 32,
                                (1ull << 63) - 1,
                                ~0ull};

TEST(Varint, RoundtripsEdgeValues)
{
    std::vector<uint8_t> buf;
    for (const uint64_t v : kEdgeValues)
        appendVarint(buf, v);
    size_t pos = 0;
    for (const uint64_t v : kEdgeValues) {
        uint64_t got = 0;
        ASSERT_EQ(readVarint(buf.data(), buf.size(), &pos, &got),
                  VarintStatus::Ok);
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(pos, buf.size());
}

TEST(Varint, EveryLengthDecodesAtAndBeforeTheBufferEnd)
{
    // One value per encoded length 1..10, followed by 0..11 spare
    // bytes, so the varint ends at, near, or well before the buffer's
    // end.
    for (unsigned bits = 0; bits <= 63; bits += 7) {
        const uint64_t v = (1ull << bits) | 1;
        for (size_t spare = 0; spare <= kMaxVarintBytes + 1; ++spare) {
            std::vector<uint8_t> buf;
            appendVarint(buf, v);
            const size_t len = buf.size();
            buf.resize(len + spare, 0xff);
            size_t pos = 0;
            uint64_t got = 0;
            ASSERT_EQ(readVarint(buf.data(), buf.size(), &pos, &got),
                      VarintStatus::Ok)
                << bits << "/" << spare;
            EXPECT_EQ(got, v);
            EXPECT_EQ(pos, len);
        }
    }
}

TEST(Varint, TruncationIsReportedAtEveryCut)
{
    std::vector<uint8_t> buf;
    appendVarint(buf, ~0ull);
    ASSERT_EQ(buf.size(), kMaxVarintBytes);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
        size_t pos = 0;
        uint64_t got = 0;
        EXPECT_EQ(readVarint(buf.data(), cut, &pos, &got),
                  VarintStatus::Truncated)
            << cut;
    }
}

TEST(Varint, OverlongIsReportedAtAndBeforeTheBufferEnd)
{
    // kMaxVarintBytes continuation bytes, at the very end of the buffer
    // and with more bytes after them.
    for (const size_t size : {kMaxVarintBytes, kMaxVarintBytes + 6}) {
        const std::vector<uint8_t> buf(size, 0x80);
        size_t pos = 0;
        uint64_t got = 0;
        EXPECT_EQ(readVarint(buf.data(), buf.size(), &pos, &got),
                  VarintStatus::TooLong)
            << size;
    }
    // One continuation byte fewer at the end is a truncation instead.
    const std::vector<uint8_t> short_run(kMaxVarintBytes - 1, 0x80);
    size_t pos = 0;
    uint64_t got = 0;
    EXPECT_EQ(readVarint(short_run.data(), short_run.size(), &pos, &got),
              VarintStatus::Truncated);
}

} // namespace
} // namespace poat
