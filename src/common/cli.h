/**
 * @file
 * The one strict command-line parser of every bench, tool and example.
 *
 * A binary declares its flags once, in a table: each Flag names the
 * flag, the form of its value, its help text and its destination. The
 * parser and the usage text both come from that table, so a flag cannot
 * be parsed without being documented, or documented without being
 * parsed. The value forms are a switch, a bounded unsigned integer, a
 * non-negative double, a string, a comma list of numbers, and a
 * callback for the few custom values; positionals fill strings in
 * order.
 *
 * The contract (README, "Command-line contract"):
 *   - an unknown flag, a missing or extra positional, an empty value, a
 *     sign, whitespace, trailing characters, a value out of range, or
 *     an empty list item is a usage error: one diagnostic line and the
 *     usage text on stderr, exit status 2;
 *   - --help prints the usage text on stdout and exits 0;
 *   - flags and positionals may interleave;
 *   - a repeated flag keeps its last value, unless its callback says
 *     otherwise.
 *
 * Long flags take their value attached (--seed=7); single-dash flags
 * take the next argument (-o FILE). The strict conversions are public:
 * the explorers' reproducer strings use them too.
 */
#ifndef POAT_COMMON_CLI_H
#define POAT_COMMON_CLI_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace poat {
namespace cli {

/** @p text as a decimal number no larger than @p max: digits only. */
inline std::optional<uint64_t>
parseUnsigned(const std::string &text, uint64_t max = UINT64_MAX)
{
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

/** @p flag's value @p text as a number up to @p max, or a usage error. */
inline uint64_t
toNumber(const std::string &flag, const std::string &text,
         uint64_t max = UINT64_MAX)
{
    if (const auto v = parseUnsigned(text, max))
        return *v;
    throw std::invalid_argument(flag + " needs a number up to " +
                                std::to_string(max) + ", got '" + text +
                                "'");
}

/** @p text cut at every @p sep; empty items are kept for the caller
 *  to reject. */
inline std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> items;
    size_t pos = 0;
    for (;;) {
        const size_t at = text.find(sep, pos);
        items.push_back(text.substr(pos, at - pos));
        if (at == std::string::npos)
            return items;
        pos = at + 1;
    }
}

/** @p flag's value @p text as a comma list of numbers, or a usage error. */
inline std::vector<uint64_t>
toNumberList(const std::string &flag, const std::string &text)
{
    std::vector<uint64_t> out;
    for (const std::string &item : split(text, ','))
        out.push_back(toNumber(flag, item));
    return out;
}

/** @p flag's value @p text as a finite, non-negative double. */
inline double
toReal(const std::string &flag, const std::string &text)
{
    double v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || text[0] == '-' || ec != std::errc() ||
        ptr != end || !std::isfinite(v))
        throw std::invalid_argument(flag + " needs a non-negative number, "
                                           "got '" + text + "'");
    return v;
}

/**
 * One flag of a binary's table. The helpers below build the common
 * forms; a custom value (or a switch with side effects) is a Flag
 * spelled out with its own setter.
 */
struct Flag
{
    std::string name; ///< "--seed" (value attached) or "-o" (value next)
    std::string arg;  ///< value placeholder; empty for a switch
    std::string help; ///< usage text; '\n' continues it on a new line
    /** Convert and store the value ("" for a switch); a usage error
     *  throws std::invalid_argument. */
    std::function<void(const std::string &)> set;
};

/** A switch: its presence sets @p dst to @p value. */
template <typename T>
Flag
toggle(std::string name, T &dst, T value, std::string help)
{
    return {std::move(name), "", std::move(help),
            [&dst, value](const std::string &) { dst = value; }};
}

/** A switch that sets a bool. */
inline Flag
toggle(std::string name, bool &dst, std::string help)
{
    return toggle(std::move(name), dst, true, std::move(help));
}

/** A decimal number within @p dst's range. */
template <typename T>
Flag
number(std::string name, T &dst, std::string help)
{
    return {name, "N", std::move(help),
            [&dst, name](const std::string &v) {
                dst = static_cast<T>(
                    toNumber(name, v, std::numeric_limits<T>::max()));
            }};
}

/** A finite, non-negative double. */
inline Flag
real(std::string name, double &dst, std::string help)
{
    return {name, "T", std::move(help),
            [&dst, name](const std::string &v) { dst = toReal(name, v); }};
}

/** A string, shown as @p arg in the usage text. */
inline Flag
text(std::string name, std::string arg, std::string &dst, std::string help)
{
    return {std::move(name), std::move(arg), std::move(help),
            [&dst](const std::string &v) { dst = v; }};
}

/** A comma list of numbers. */
inline Flag
numberList(std::string name, std::vector<uint64_t> &dst, std::string help)
{
    return {name, "N1,N2,...", std::move(help),
            [&dst, name](const std::string &v) {
                dst = toNumberList(name, v);
            }};
}

/** One positional argument, filled in declaration order. */
struct Positional
{
    Positional(std::string name, std::string &dst, bool required = true,
               std::string help = "")
        : name(std::move(name)), dst(dst), required(required),
          help(std::move(help))
    {}

    std::string name; ///< as shown in the usage line
    std::string &dst;
    bool required;
    std::string help; ///< shown under "arguments:" when set
};

/** A binary's flag table, positionals, and the strict contract. */
class Parser
{
  public:
    Parser(std::string prog, std::vector<Flag> flags,
           std::vector<Positional> positionals = {})
        : prog_(std::move(prog)), flags_(std::move(flags)),
          positionals_(std::move(positionals))
    {}

    /**
     * Apply @p args (argv without the program name) to the table.
     * @return false when --help was given; nothing after it is read.
     * @throws std::invalid_argument on a usage error.
     */
    bool
    apply(const std::vector<std::string> &args) const
    {
        size_t filled = 0;
        for (size_t i = 0; i < args.size(); ++i) {
            const std::string &s = args[i];
            if (s == "--help")
                return false;
            if (s.size() < 2 || s[0] != '-') {
                if (s.empty())
                    throw std::invalid_argument("empty argument");
                if (filled == positionals_.size())
                    throw std::invalid_argument("unexpected argument: " + s);
                positionals_[filled++].dst = s;
                continue;
            }
            const bool attached = s[1] == '-';
            const size_t eq = attached ? s.find('=') : std::string::npos;
            const std::string name = s.substr(0, eq);
            const auto f = std::find_if(
                flags_.begin(), flags_.end(),
                [&](const Flag &fl) { return fl.name == name; });
            if (f == flags_.end())
                throw std::invalid_argument("unknown argument: " + s);
            std::string value;
            if (f->arg.empty()) {
                if (eq != std::string::npos)
                    throw std::invalid_argument(name + " takes no value");
            } else {
                if (attached && eq != std::string::npos)
                    value = s.substr(eq + 1);
                else if (!attached && i + 1 < args.size())
                    value = args[++i];
                if (value.empty())
                    throw std::invalid_argument(name + " needs a value: " +
                                                label(*f));
            }
            f->set(value);
        }
        for (size_t p = filled; p < positionals_.size(); ++p)
            if (positionals_[p].required)
                throw std::invalid_argument("missing " +
                                            positionals_[p].name);
        return true;
    }

    /**
     * The strict contract over argv: a usage error exits 2 with a
     * diagnostic and the usage text on stderr; --help prints the usage
     * text on stdout and exits 0.
     */
    void
    parse(int argc, char **argv) const
    {
        try {
            if (apply(std::vector<std::string>(argv + 1, argv + argc)))
                return;
        } catch (const std::invalid_argument &e) {
            usageError(e.what());
        }
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }

    /** Print "PROG: @p why" and the usage text on stderr, then exit 2. */
    [[noreturn]] void
    usageError(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n%s", prog_.c_str(), why.c_str(),
                     usage().c_str());
        std::exit(2);
    }

    /** The usage text, generated from the table. */
    std::string
    usage() const
    {
        std::string u = "usage: " + prog_ + " [options]";
        std::string args;
        for (const Positional &p : positionals_) {
            u += p.required ? " " + p.name : " [" + p.name + "]";
            if (!p.help.empty())
                args += row(p.name, p.help);
        }
        u += "\n";
        if (!args.empty())
            u += "arguments:\n" + args;
        u += "options:\n";
        for (const Flag &f : flags_)
            u += row(label(f), f.help);
        return u + row("--help", "print this text and exit");
    }

  private:
    static std::string
    label(const Flag &f)
    {
        if (f.arg.empty())
            return f.name;
        return f.name + (f.name[1] == '-' ? "=" : " ") + f.arg;
    }

    /** "  LABEL  HELP" with HELP's lines aligned in one column. */
    static std::string
    row(const std::string &label, const std::string &help)
    {
        constexpr size_t kCol = 20;
        std::string r = "  " + label;
        if (r.size() < kCol)
            r.append(kCol - r.size(), ' ');
        else
            r.append(1, '\n').append(kCol, ' ');
        for (const char c : help) {
            r += c;
            if (c == '\n')
                r.append(kCol, ' ');
        }
        return r + "\n";
    }

    std::string prog_;
    std::vector<Flag> flags_;
    std::vector<Positional> positionals_;
};

} // namespace cli
} // namespace poat

#endif // POAT_COMMON_CLI_H
