/**
 * @file
 * The shared JSON string escaper: quote and backslash escaped, control
 * characters as \u00XX, everything else (UTF-8 included) unchanged.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace poat {
namespace {

TEST(JsonEscape, QuoteAndBackslashGetABackslash)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, ControlCharactersBecomeUnicodeEscapes)
{
    EXPECT_EQ(jsonEscape("a\nb"), "a\\u000ab");
    EXPECT_EQ(jsonEscape("\t"), "\\u0009");
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscape, PlainTextAndUtf8PassThrough)
{
    EXPECT_EQ(jsonEscape(""), "");
    EXPECT_EQ(jsonEscape("LL.ALL.base.inorder"), "LL.ALL.base.inorder");
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x93\x88";
    EXPECT_EQ(jsonEscape(utf8), utf8);
    EXPECT_EQ(jsonEscape("\x7f"), "\x7f");
}

} // namespace
} // namespace poat
