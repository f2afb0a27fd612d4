/**
 * @file
 * CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum real
 * persistent-memory libraries use for media-fault detection (Pangolin;
 * hardware-accelerated by SSE4.2 crc32q). This is the portable
 * slicing-by-8 software form, byte-reflected like the hardware
 * instruction: eight 256-entry tables, built at compile time, fold
 * eight input bytes per step with eight loads, and a byte-at-a-time
 * loop over the first table finishes the tail. Every build takes this
 * one path; there is no CPU dispatch.
 *
 * The primitive here is the *raw* rolling form: `crc32c(data, n, seed)`
 * starts from @p seed and applies no final inversion, so checksums can
 * be computed incrementally — crc32c(a+b) == crc32c(b, crc32c(a)) —
 * and a structure can pick a nonzero seed to keep the all-zero image
 * from checksumming to zero (or seed 0 where all-zero *should* be
 * self-consistent, e.g. an idle undo-log header in a fresh pool).
 *
 * The conventional CRC-32C value (init 0xFFFFFFFF, final xor, e.g.
 * "123456789" -> 0xE3069283) is `~crc32c(data, n, 0xFFFFFFFF)`;
 * crc32cStd() wraps that for interoperability checks and the
 * known-answer tests.
 */
#ifndef POAT_COMMON_CRC32C_H
#define POAT_COMMON_CRC32C_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace poat {

namespace detail {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables. Row 0 is the classic byte table: the crc of one
 * byte. Row k is that byte followed by k zero bytes, so a byte that sits
 * k places before the end of an 8-byte block is folded by one lookup in
 * row k.
 */
constexpr Crc32cTables
makeCrc32cTables()
{
    // Reflected polynomial of 0x1EDC6F41.
    constexpr uint32_t kPoly = 0x82F63B78u;
    Crc32cTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int b = 0; b < 8; ++b)
            c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
    return t;
}

inline constexpr Crc32cTables kCrc32cTables = makeCrc32cTables();

} // namespace detail

/** Raw rolling CRC32C: continue from @p seed, no final inversion. */
inline uint32_t
crc32c(const void *data, size_t n, uint32_t seed = 0)
{
    const auto &t = detail::kCrc32cTables;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed;
    for (; n >= 8; p += 8, n -= 8) {
        // The first four bytes absorb the running crc (little-endian,
        // assembled byte by byte so any host order and alignment work).
        const uint32_t lo = c ^
            (uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
             uint32_t{p[3]} << 24);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

/** Conventional CRC-32C (init 0xFFFFFFFF, final inversion). */
inline uint32_t
crc32cStd(const void *data, size_t n)
{
    return ~crc32c(data, n, 0xFFFFFFFFu);
}

} // namespace poat

#endif // POAT_COMMON_CRC32C_H
