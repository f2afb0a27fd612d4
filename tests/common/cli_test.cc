/**
 * @file
 * The shared command-line parser: every value form, the item splitter,
 * the strict number and list conversions at their bounds, interleaved
 * positionals, last-wins, and a usage text that lists every flag of the
 * table.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"

namespace poat {
namespace {

using Args = std::vector<std::string>;

/** The message of the usage error @p args raise, or "" if none. */
std::string
errorOf(const cli::Parser &p, const Args &args)
{
    try {
        p.apply(args);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(Cli, ParseUnsignedIsDigitsOnlyAndBounded)
{
    EXPECT_EQ(cli::parseUnsigned("0"), 0u);
    EXPECT_EQ(cli::parseUnsigned("18446744073709551615"), UINT64_MAX);
    EXPECT_FALSE(cli::parseUnsigned("18446744073709551616"));
    EXPECT_EQ(cli::parseUnsigned("4294967295", UINT32_MAX), UINT32_MAX);
    EXPECT_FALSE(cli::parseUnsigned("4294967296", UINT32_MAX));
    for (const char *bad :
         {"", "-1", "+1", " 1", "1 ", "4x", "0x10", "1.0", "abc", "1,2"})
        EXPECT_FALSE(cli::parseUnsigned(bad)) << "'" << bad << "'";
}

TEST(Cli, SplitKeepsEmptyItems)
{
    using Items = std::vector<std::string>;
    EXPECT_EQ(cli::split("a", ':'), Items{"a"});
    EXPECT_EQ(cli::split("", ':'), Items{""});
    EXPECT_EQ(cli::split("a::b:", ':'), (Items{"a", "", "b", ""}));
}

TEST(Cli, NumberListRejectsEmptyItems)
{
    EXPECT_EQ(cli::toNumberList("--l", "7"), std::vector<uint64_t>{7});
    EXPECT_EQ(cli::toNumberList("--l", "1,2,3"),
              (std::vector<uint64_t>{1, 2, 3}));
    for (const char *bad : {"", ",", "1,", ",1", "1,,2", "1,x", "1, 2"})
        EXPECT_THROW(cli::toNumberList("--l", bad), std::invalid_argument)
            << "'" << bad << "'";
}

TEST(Cli, RealIsFiniteAndNonNegative)
{
    EXPECT_DOUBLE_EQ(cli::toReal("--t", "0.05"), 0.05);
    EXPECT_DOUBLE_EQ(cli::toReal("--t", "0"), 0.0);
    EXPECT_DOUBLE_EQ(cli::toReal("--t", "1e-3"), 1e-3);
    for (const char *bad :
         {"", "abc", "-0.5", "+1", " 1", "1 ", "0.5x", "nan", "inf", "1e999"})
        EXPECT_THROW(cli::toReal("--t", bad), std::invalid_argument)
            << "'" << bad << "'";
}

/** One flag of every form, plus a required and an optional positional. */
struct Table
{
    enum class Fmt { Text, Csv };
    bool sw = false;
    bool on = true;
    Fmt fmt = Fmt::Text;
    uint32_t n32 = 0;
    uint64_t n64 = 5;
    double tol = 0.05;
    std::string str = "default";
    std::string out;
    std::vector<uint64_t> list;
    std::vector<std::string> seen; ///< --tag accumulates
    std::string in, extra = "none";

    cli::Parser parser{
        "prog",
        {
            cli::toggle("--sw", sw, "a switch"),
            cli::toggle("--off", on, false, "a switch that clears"),
            cli::toggle("--csv", fmt, Fmt::Csv, "a switch that picks"),
            cli::number("--n32", n32, "a 32-bit number"),
            cli::number("--n64", n64, "a 64-bit number"),
            cli::real("--tol", tol, "a double"),
            cli::text("--str", "S", str, "a string"),
            cli::text("-o", "FILE", out, "a separate value"),
            cli::numberList("--list", list, "a list\nover two lines"),
            cli::Flag{"--tag", "T", "accumulates",
                      [this](const std::string &v) { seen.push_back(v); }},
        },
        {{"IN", in}, {"EXTRA", extra, false, "optional"}}};
};

TEST(Cli, EveryValueForm)
{
    Table t;
    ASSERT_TRUE(t.parser.apply({"--sw", "--off", "--csv", "--n32=4294967295",
                                "--n64=100", "--tol=0.25", "--str=x y",
                                "-o", "out.csv", "--list=3,1,2", "--tag=a",
                                "input"}));
    EXPECT_TRUE(t.sw);
    EXPECT_FALSE(t.on);
    EXPECT_EQ(t.fmt, Table::Fmt::Csv);
    EXPECT_EQ(t.n32, UINT32_MAX);
    EXPECT_EQ(t.n64, 100u);
    EXPECT_DOUBLE_EQ(t.tol, 0.25);
    EXPECT_EQ(t.str, "x y");
    EXPECT_EQ(t.out, "out.csv");
    EXPECT_EQ(t.list, (std::vector<uint64_t>{3, 1, 2}));
    EXPECT_EQ(t.seen, std::vector<std::string>{"a"});
    EXPECT_EQ(t.in, "input");
    EXPECT_EQ(t.extra, "none");
}

TEST(Cli, BoundsAreInclusive)
{
    Table t;
    EXPECT_EQ(errorOf(t.parser, {"--n32=4294967295", "in"}), "");
    EXPECT_NE(errorOf(t.parser, {"--n32=4294967296", "in"})
                  .find("--n32 needs a number up to 4294967295"),
              std::string::npos);
}

TEST(Cli, PositionalsInterleaveWithFlags)
{
    // timeline_dump --csv "$tl" -o out.csv, as make_figures.sh runs it.
    Table t;
    ASSERT_TRUE(t.parser.apply({"--csv", "in.poattl", "-o", "out.csv",
                                "second", "--sw"}));
    EXPECT_EQ(t.in, "in.poattl");
    EXPECT_EQ(t.extra, "second");
    EXPECT_EQ(t.out, "out.csv");
    EXPECT_TRUE(t.sw);
}

TEST(Cli, RepeatedFlagKeepsItsLastValue)
{
    Table t;
    ASSERT_TRUE(t.parser.apply({"--n64=1", "--list=1,2", "--str=a", "in",
                                "--n64=2", "--list=9", "--str=b",
                                "--tag=x", "--tag=y"}));
    EXPECT_EQ(t.n64, 2u);
    EXPECT_EQ(t.list, std::vector<uint64_t>{9});
    EXPECT_EQ(t.str, "b");
    // A callback decides for itself: this one accumulates.
    EXPECT_EQ(t.seen, (std::vector<std::string>{"x", "y"}));
}

TEST(Cli, UsageErrors)
{
    Table t;
    const std::vector<std::pair<Args, std::string>> cases = {
        {{"in", "--bogus"}, "unknown argument: --bogus"},
        {{"in", "-x"}, "unknown argument: -x"},
        {{"in", "--n32=-1"}, "needs a number"},
        {{"in", "--n32=+1"}, "needs a number"},
        {{"in", "--n32= 1"}, "needs a number"},
        {{"in", "--n32=4x"}, "needs a number"},
        {{"in", "--n32="}, "--n32 needs a value: --n32=N"},
        {{"in", "--n32"}, "--n32 needs a value: --n32=N"},
        {{"in", "--str="}, "--str needs a value"},
        {{"in", "-o"}, "-o needs a value: -o FILE"},
        {{"in", "--sw=1"}, "--sw takes no value"},
        {{"in", "--list=1,,2"}, "needs a number"},
        {{"in", "--tol=abc"}, "needs a non-negative number"},
        {{""}, "empty argument"},
        {{}, "missing IN"},
        {{"--sw"}, "missing IN"},
        {{"a", "b", "c"}, "unexpected argument: c"},
    };
    for (const auto &[args, why] : cases) {
        const std::string err = errorOf(t.parser, args);
        EXPECT_NE(err.find(why), std::string::npos)
            << "args[0]=" << (args.empty() ? "" : args[0]) << " got '"
            << err << "', want '" << why << "'";
    }
}

TEST(Cli, HelpStopsParsing)
{
    Table t;
    EXPECT_FALSE(t.parser.apply({"--help", "--bogus"}));
    EXPECT_FALSE(t.parser.apply({"--sw", "--help"}));
}

TEST(Cli, UsageListsEveryFlagOfTheTable)
{
    Table t;
    const std::string u = t.parser.usage();
    EXPECT_EQ(u.rfind("usage: prog [options] IN [EXTRA]\n", 0), 0u) << u;
    EXPECT_NE(u.find("\noptions:\n"), std::string::npos);
    EXPECT_NE(u.find("\narguments:\n  EXTRA"), std::string::npos);
    for (const char *label :
         {"--sw ", "--off ", "--csv ", "--n32=N ", "--n64=N ", "--tol=T ",
          "--str=S ", "-o FILE ", "--list=N1,N2,... ", "--tag=T ", "--help "})
        EXPECT_NE(u.find("  " + std::string(label)), std::string::npos)
            << label;
    // Continuation lines align under the help column.
    EXPECT_NE(u.find("a list\n" + std::string(20, ' ') + "over two lines\n"),
              std::string::npos)
        << u;
}

TEST(CliDeathTest, UsageErrorExitsTwoWithUsageOnStderr)
{
    Table t;
    const char *argv[] = {"prog", "--bogus", nullptr};
    EXPECT_EXIT(t.parser.parse(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(2),
                "prog: unknown argument: --bogus\nusage: prog");
}

TEST(CliDeathTest, HelpExitsZeroWithNothingOnStderr)
{
    Table t;
    const char *argv[] = {"prog", "--help", nullptr};
    EXPECT_EXIT(t.parser.parse(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(0), "^$");
}

} // namespace
} // namespace poat
