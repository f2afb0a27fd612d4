#include "common/stats.h"

#include <cstdio>
#include <vector>

namespace poat {

namespace {

/** Render a double the way every poat JSON/text emitter does. */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** One node of the dotted-path tree built for JSON emission. */
struct JsonNode
{
    bool hasLeaf = false;
    std::string leaf; ///< pre-rendered JSON value
    std::map<std::string, JsonNode> kids;
};

void
insertPath(JsonNode &root, const std::string &path, std::string value)
{
    JsonNode *node = &root;
    size_t start = 0;
    while (true) {
        const size_t dot = path.find('.', start);
        const std::string seg =
            path.substr(start, dot == std::string::npos ? std::string::npos
                                                        : dot - start);
        node = &node->kids[seg];
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    node->hasLeaf = true;
    node->leaf = std::move(value);
}

void
renderNode(const JsonNode &node, std::ostream &os, int indent)
{
    const std::string pad(indent, ' ');
    const std::string pad2(indent + 2, ' ');
    os << "{";
    bool first = true;
    // A node that both carries a value and has children keeps its own
    // value under "self" so the JSON stays a plain object tree.
    if (node.hasLeaf && !node.kids.empty()) {
        os << "\n" << pad2 << "\"self\": " << node.leaf;
        first = false;
    }
    for (const auto &[name, kid] : node.kids) {
        os << (first ? "\n" : ",\n") << pad2 << "\"" << name << "\": ";
        first = false;
        if (kid.kids.empty() && kid.hasLeaf)
            os << kid.leaf;
        else
            renderNode(kid, os, indent + 2);
    }
    if (!first)
        os << "\n" << pad;
    os << "}";
}

std::string
histogramJson(const Histogram &h)
{
    std::string s = "{\"count\": " + std::to_string(h.count());
    if (h.count() != 0) {
        s += ", \"min\": " + std::to_string(h.min());
        s += ", \"max\": " + std::to_string(h.max());
        s += ", \"mean\": " + fmtDouble(h.mean());
        s += ", \"stddev\": " + fmtDouble(h.stddev());
        s += ", \"p50\": " + fmtDouble(h.percentile(50));
        s += ", \"p95\": " + fmtDouble(h.percentile(95));
        s += ", \"p99\": " + fmtDouble(h.percentile(99));
        s += ", \"buckets\": [";
        bool first = true;
        for (uint32_t b = 0; b < Histogram::kBuckets; ++b) {
            if (h.bucketCount(b) == 0)
                continue;
            if (!first)
                s += ", ";
            first = false;
            s += '[';
            s += std::to_string(Histogram::bucketLo(b)) + ", " +
                std::to_string(Histogram::bucketHi(b)) + ", " +
                std::to_string(h.bucketCount(b)) + "]";
        }
        s += "]";
    }
    s += "}";
    return s;
}

std::string
cpiStackJson(const CpiStack &c)
{
    std::string s = "{\"total\": " + std::to_string(c.total());
    for (size_t i = 0; i < kCpiComponents; ++i) {
        const auto comp = static_cast<CpiComponent>(i);
        s += ", \"";
        s += cpiComponentName(comp);
        s += "\": " + std::to_string(c[comp]);
    }
    s += "}";
    return s;
}

} // namespace

uint64_t &
StatsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

uint64_t
StatsRegistry::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

Histogram &
StatsRegistry::histogram(const std::string &name)
{
    return histograms_[name];
}

const Histogram *
StatsRegistry::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

CpiStack &
StatsRegistry::cpiStack(const std::string &name)
{
    return cpiStacks_[name];
}

const CpiStack *
StatsRegistry::findCpiStack(const std::string &name) const
{
    auto it = cpiStacks_.find(name);
    return it == cpiStacks_.end() ? nullptr : &it->second;
}

void
StatsRegistry::formula(const std::string &name, const std::string &num,
                       const std::string &den)
{
    formulas_[name] = Formula{num, den};
}

double
StatsRegistry::eval(const std::string &name) const
{
    auto it = formulas_.find(name);
    if (it == formulas_.end())
        return 0.0;
    return ratio(it->second.num, it->second.den);
}

void
StatsRegistry::resetAll()
{
    for (auto &kv : counters_)
        kv.second = 0;
    for (auto &kv : histograms_)
        kv.second.reset();
    for (auto &kv : cpiStacks_)
        kv.second.reset();
}

double
StatsRegistry::ratio(const std::string &num, const std::string &den) const
{
    const uint64_t d = get(den);
    if (d == 0)
        return 0.0;
    return static_cast<double>(get(num)) / static_cast<double>(d);
}

void
StatsRegistry::dump(std::ostream &os) const
{
    for (const auto &kv : counters_)
        os << kv.first << " " << kv.second << "\n";
    for (const auto &[name, h] : histograms_) {
        os << name << ".count " << h.count() << "\n";
        if (h.count() == 0)
            continue;
        os << name << ".min " << h.min() << "\n";
        os << name << ".max " << h.max() << "\n";
        os << name << ".mean " << fmtDouble(h.mean()) << "\n";
        os << name << ".stddev " << fmtDouble(h.stddev()) << "\n";
        os << name << ".p50 " << fmtDouble(h.percentile(50)) << "\n";
        os << name << ".p95 " << fmtDouble(h.percentile(95)) << "\n";
        os << name << ".p99 " << fmtDouble(h.percentile(99)) << "\n";
    }
    for (const auto &[name, c] : cpiStacks_) {
        os << name << ".total " << c.total() << "\n";
        for (size_t i = 0; i < kCpiComponents; ++i) {
            const auto comp = static_cast<CpiComponent>(i);
            os << name << "." << cpiComponentName(comp) << " "
               << c[comp] << "\n";
        }
    }
    for (const auto &kv : formulas_)
        os << kv.first << " " << fmtDouble(eval(kv.first)) << "\n";
}

void
StatsRegistry::dumpJson(std::ostream &os, int indent) const
{
    JsonNode root;
    for (const auto &kv : counters_)
        insertPath(root, kv.first, std::to_string(kv.second));
    for (const auto &[name, h] : histograms_)
        insertPath(root, name, histogramJson(h));
    for (const auto &[name, c] : cpiStacks_)
        insertPath(root, name, cpiStackJson(c));
    for (const auto &kv : formulas_)
        insertPath(root, kv.first, fmtDouble(eval(kv.first)));
    renderNode(root, os, indent);
}

} // namespace poat
