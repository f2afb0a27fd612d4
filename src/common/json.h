/**
 * @file
 * JSON string escaping shared by every JSON writer in the tree: the
 * bench reports, the timeline and Chrome-trace exporters, and the
 * contention report.
 */
#ifndef POAT_COMMON_JSON_H
#define POAT_COMMON_JSON_H

#include <string>
#include <string_view>

namespace poat {

/**
 * @p s escaped for the inside of a JSON string literal: quote and
 * backslash get a backslash, control characters become \u00XX, and
 * every other byte (UTF-8 included) passes through unchanged.
 */
inline std::string
jsonEscape(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            out += "\\u00";
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace poat

#endif // POAT_COMMON_JSON_H
