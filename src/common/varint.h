/**
 * @file
 * The LEB128 varint codec shared by poat's binary formats (poat-itrace
 * records, poat-timeline rows): 7 value bits per byte, low group
 * first, high bit set on every byte but the last.
 *
 * Decoding reports a defect as a status rather than throwing, so each
 * format raises its own error naming the file and the defect. The
 * decoder is inline and checks bounds once per varint, not per byte.
 */
#ifndef POAT_COMMON_VARINT_H
#define POAT_COMMON_VARINT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace poat {

/** Longest encoding of a 64-bit value (ceil(64 / 7) bytes). */
inline constexpr size_t kMaxVarintBytes = 10;

/** Outcome of decoding one varint. */
enum class VarintStatus : uint8_t
{
    Ok,
    Truncated, ///< the buffer ended inside the varint
    TooLong,   ///< no terminating byte within kMaxVarintBytes
};

/** Append @p v LEB128-encoded to @p buf. */
inline void
appendVarint(std::vector<uint8_t> &buf, uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf.push_back(static_cast<uint8_t>(v));
}

/**
 * Decode one varint from @p data[*pos, size) into @p *value, advancing
 * @p *pos past it. On a defect, @p *pos and @p *value are unspecified.
 */
inline VarintStatus
readVarint(const uint8_t *data, size_t size, size_t *pos, uint64_t *value)
{
    // One bounds check per varint: the loop stops at whichever comes
    // first, the buffer's end or the longest encoding.
    const size_t avail = size - *pos;
    const size_t limit = avail < kMaxVarintBytes ? avail : kMaxVarintBytes;
    const uint8_t *p = data + *pos;
    uint64_t v = 0;
    for (size_t i = 0; i < limit; ++i) {
        const uint8_t byte = p[i];
        v |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
        if ((byte & 0x80) == 0) {
            *pos += i + 1;
            *value = v;
            return VarintStatus::Ok;
        }
    }
    return limit == kMaxVarintBytes ? VarintStatus::TooLong
                                    : VarintStatus::Truncated;
}

} // namespace poat

#endif // POAT_COMMON_VARINT_H
