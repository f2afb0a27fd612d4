#include "telemetry/timeline.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/varint.h"

namespace poat {
namespace telemetry {

namespace {

void
putLe32(uint8_t *out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
putLe64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
getLe32(const uint8_t *in)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(in[i]) << (8 * i);
    return v;
}

uint64_t
getLe64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[i]) << (8 * i);
    return v;
}

/** Zigzag: small magnitudes of either sign encode small. */
uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
        static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t z)
{
    return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

[[noreturn]] void
badFile(const std::string &path, const std::string &why)
{
    throw std::runtime_error("poat-timeline: " + path + ": " + why);
}

/** Next varint of @p d at @p *pos; a defect fails the file. */
uint64_t
nextVarint(const std::string &path, const std::vector<uint8_t> &d,
           size_t *pos)
{
    uint64_t v = 0;
    switch (readVarint(d.data(), d.size(), pos, &v)) {
      case VarintStatus::Ok:
        return v;
      case VarintStatus::Truncated:
        badFile(path, "truncated varint");
      case VarintStatus::TooLong:
        break;
    }
    badFile(path, "varint exceeds 64 bits");
}

} // namespace

// --------------------------------------------------------------------
// TimelineSampler

TimelineSampler::TimelineSampler(uint64_t interval, std::string path)
    : interval_(interval), next_(interval), path_(std::move(path))
{
    POAT_ASSERT(interval_ > 0, "timeline interval must be nonzero");
    f_ = std::fopen(path_.c_str(), "wb");
    if (!f_)
        badFile(path_, "cannot create timeline file");
}

TimelineSampler::~TimelineSampler()
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
}

void
TimelineSampler::addGauge(std::string name, std::function<uint64_t()> fn)
{
    POAT_ASSERT(!schemaWritten_,
                "timeline gauges must be registered before sampling");
    gaugeNames_.push_back(std::move(name));
    gaugeFns_.push_back(std::move(fn));
}

void
TimelineSampler::writeSchema()
{
    POAT_ASSERT(source_, "timeline sampler has no stats source");
    const StatsRegistry &reg = source_();
    for (const auto &[name, value] : reg.counters()) {
        (void)value;
        counterNames_.push_back(name);
    }
    plainCounters_ = counterNames_.size();
    for (const auto &[name, stack] : reg.cpiStacks()) {
        (void)stack;
        for (size_t c = 0; c < kCpiComponents; ++c)
            counterNames_.push_back(
                name + "." +
                cpiComponentName(static_cast<CpiComponent>(c)));
    }
    prev_.assign(counterNames_.size(), 0);

    uint8_t header[kTimelineHeaderSize] = {};
    std::memcpy(header, kTimelineMagic, sizeof(kTimelineMagic));
    putLe32(header + 8, kTimelineVersion);
    putLe64(header + 12, interval_);
    // Sample count at offset 20 is patched by finish(); leave zeros.
    putLe32(header + 28, static_cast<uint32_t>(counterNames_.size()));
    putLe32(header + 32, static_cast<uint32_t>(gaugeNames_.size()));
    putLe32(header + 36, cores_);

    std::vector<uint8_t> buf(header, header + kTimelineHeaderSize);
    for (const auto *names : {&counterNames_, &gaugeNames_}) {
        for (const std::string &n : *names) {
            appendVarint(buf, n.size());
            buf.insert(buf.end(), n.begin(), n.end());
        }
    }
    if (std::fwrite(buf.data(), 1, buf.size(), f_) != buf.size())
        badFile(path_, "cannot write timeline header");
    schemaWritten_ = true;
}

void
TimelineSampler::appendRow(uint64_t end_cycle,
                           const std::vector<uint64_t> &values,
                           const std::vector<uint64_t> &gauges)
{
    std::vector<uint8_t> buf;
    appendVarint(buf, end_cycle);
    for (size_t i = 0; i < prev_.size(); ++i) {
        const int64_t delta = values.empty()
            ? 0
            : static_cast<int64_t>(values[i]) -
                static_cast<int64_t>(prev_[i]);
        appendVarint(buf, zigzag(delta));
    }
    for (uint64_t g : gauges)
        appendVarint(buf, g);
    if (!values.empty())
        prev_ = values;
    if (std::fwrite(buf.data(), 1, buf.size(), f_) != buf.size())
        badFile(path_, "short write while sampling");
    ++samples_;
}

void
TimelineSampler::sample(uint64_t end_cycle)
{
    if (!schemaWritten_)
        writeSchema();
    const StatsRegistry &reg = source_();
    // Match the registry against the frozen schema BY NAME: the
    // registry is append-only but sorted, so a counter registered
    // after the schema froze (the contention tables grow mid-run)
    // lands in the middle of the map — a positional copy would shift
    // every later series. The frozen names are a sorted subsequence of
    // the current map, so one linear merge recovers them.
    std::vector<uint64_t> values(counterNames_.size(), 0);
    size_t i = 0;
    for (auto it = reg.counters().begin();
         i < plainCounters_ && it != reg.counters().end(); ++it) {
        if (it->first == counterNames_[i])
            values[i++] = it->second;
    }
    POAT_ASSERT(i == plainCounters_,
                "stats registry lost counters mid-run");
    for (const auto &[name, stack] : reg.cpiStacks()) {
        if (i >= counterNames_.size())
            break;
        // A stack is in the schema wholesale or (registered after the
        // freeze) not at all; its first component name decides.
        if (counterNames_[i].rfind(name + ".", 0) != 0)
            continue;
        for (uint64_t c : stack.cycles)
            values[i++] = c;
    }
    POAT_ASSERT(i == counterNames_.size(),
                "stats registry lost CPI stacks mid-run");
    std::vector<uint64_t> gauges;
    gauges.reserve(gaugeFns_.size());
    for (const auto &fn : gaugeFns_)
        gauges.push_back(fn());
    appendRow(end_cycle, values, gauges);
}

void
TimelineSampler::emptySample(uint64_t end_cycle)
{
    std::vector<uint64_t> gauges;
    gauges.reserve(gaugeFns_.size());
    for (const auto &fn : gaugeFns_)
        gauges.push_back(fn());
    appendRow(end_cycle, {}, gauges);
}

void
TimelineSampler::crossBoundaries(uint64_t now_cycles)
{
    // The event that crossed one or more interval boundaries carries
    // the whole accumulated delta; further boundaries it jumped in the
    // same step get zero-delta rows so rows map 1:1 to intervals.
    sample(next_);
    next_ += interval_;
    while (now_cycles >= next_) {
        emptySample(next_);
        next_ += interval_;
    }
}

void
TimelineSampler::finish(uint64_t now_cycles)
{
    if (finished_)
        return;
    if (now_cycles >= next_)
        crossBoundaries(now_cycles);
    const uint64_t sampled = next_ - interval_; // last labelled boundary
    if (now_cycles > sampled || samples_ == 0)
        sample(now_cycles);

    uint8_t patch[8];
    putLe64(patch, samples_);
    const bool ok = std::fseek(f_, 20, SEEK_SET) == 0 &&
        std::fwrite(patch, 1, sizeof(patch), f_) == sizeof(patch) &&
        std::fclose(f_) == 0;
    f_ = nullptr;
    finished_ = true;
    if (!ok)
        badFile(path_, "cannot finalize timeline file");
}

// --------------------------------------------------------------------
// TimelineReader

TimelineReader::TimelineReader(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        badFile(path, "cannot open timeline file");
    std::fseek(f, 0, SEEK_END);
    const long end = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> file(end > 0 ? static_cast<size_t>(end) : 0);
    const size_t got = file.empty()
        ? 0
        : std::fread(file.data(), 1, file.size(), f);
    std::fclose(f);
    if (got != file.size())
        badFile(path, "cannot read timeline file");

    if (file.size() < kTimelineHeaderSize)
        badFile(path, "truncated header");
    if (std::memcmp(file.data(), kTimelineMagic,
                    sizeof(kTimelineMagic)) != 0)
        badFile(path, "not a poat-timeline file (bad magic)");
    const uint32_t version = getLe32(file.data() + 8);
    if (version != kTimelineVersion)
        badFile(path,
                "unsupported format version " + std::to_string(version));
    interval_ = getLe64(file.data() + 12);
    const uint64_t sample_count = getLe64(file.data() + 20);
    const uint32_t n_counters = getLe32(file.data() + 28);
    const uint32_t n_gauges = getLe32(file.data() + 32);
    cores_ = getLe32(file.data() + 36);

    size_t pos = kTimelineHeaderSize;
    auto read_name = [&]() {
        const uint64_t len = nextVarint(path, file, &pos);
        if (len > file.size() - pos)
            badFile(path, "truncated series name");
        std::string name(
            reinterpret_cast<const char *>(file.data() + pos),
            static_cast<size_t>(len));
        pos += static_cast<size_t>(len);
        return name;
    };
    for (uint32_t i = 0; i < n_counters; ++i)
        counterNames_.push_back(read_name());
    for (uint32_t i = 0; i < n_gauges; ++i)
        gaugeNames_.push_back(read_name());

    samples_.reserve(static_cast<size_t>(sample_count));
    for (uint64_t s = 0; s < sample_count; ++s) {
        TimelineSample row;
        row.end_cycle = nextVarint(path, file, &pos);
        row.deltas.reserve(n_counters);
        for (uint32_t i = 0; i < n_counters; ++i)
            row.deltas.push_back(
                unzigzag(nextVarint(path, file, &pos)));
        row.gauges.reserve(n_gauges);
        for (uint32_t i = 0; i < n_gauges; ++i)
            row.gauges.push_back(nextVarint(path, file, &pos));
        samples_.push_back(std::move(row));
    }
    if (pos != file.size())
        badFile(path, "trailing garbage after samples");
}

// --------------------------------------------------------------------
// Converters

void
dumpCsv(const TimelineReader &tl, std::ostream &os)
{
    os << "end_cycle";
    for (const auto &n : tl.counterNames())
        os << "," << n;
    for (const auto &n : tl.gaugeNames())
        os << "," << n;
    os << "\n";
    for (const auto &row : tl.samples()) {
        os << row.end_cycle;
        for (int64_t d : row.deltas)
            os << "," << d;
        for (uint64_t g : row.gauges)
            os << "," << g;
        os << "\n";
    }
}

void
dumpJson(const TimelineReader &tl, std::ostream &os)
{
    os << "{\n  \"format\": \"poat-timeline v2\",\n  \"interval\": "
       << tl.interval() << ",\n  \"cores\": " << tl.cores()
       << ",\n  \"counters\": [";
    for (size_t i = 0; i < tl.counterNames().size(); ++i) {
        os << (i ? ", " : "") << '"' << jsonEscape(tl.counterNames()[i])
           << '"';
    }
    os << "],\n  \"gauges\": [";
    for (size_t i = 0; i < tl.gaugeNames().size(); ++i) {
        os << (i ? ", " : "") << '"' << jsonEscape(tl.gaugeNames()[i])
           << '"';
    }
    os << "],\n  \"samples\": [";
    for (size_t s = 0; s < tl.samples().size(); ++s) {
        const auto &row = tl.samples()[s];
        os << (s ? ",\n    " : "\n    ")
           << "{\"end_cycle\": " << row.end_cycle << ", \"deltas\": [";
        for (size_t i = 0; i < row.deltas.size(); ++i)
            os << (i ? ", " : "") << row.deltas[i];
        os << "], \"gauges\": [";
        for (size_t i = 0; i < row.gauges.size(); ++i)
            os << (i ? ", " : "") << row.gauges[i];
        os << "]}";
    }
    os << "\n  ]\n}\n";
}

namespace {

/**
 * Core a series belongs to: "core.<i>.*" and "sched.core.<i>.*" map
 * to core i, everything else to -1 (machine-wide).
 */
int
seriesCore(const std::string &name)
{
    size_t pos = std::string::npos;
    if (name.compare(0, 5, "core.") == 0)
        pos = 5;
    else if (name.compare(0, 11, "sched.core.") == 0)
        pos = 11;
    if (pos == std::string::npos || pos >= name.size() ||
        name[pos] < '0' || name[pos] > '9')
        return -1;
    int core = 0;
    size_t i = pos;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9')
        core = core * 10 + (name[i++] - '0');
    if (i >= name.size() || name[i] != '.')
        return -1; // "core.cycles", "core.count", ... are machine-wide
    return core;
}

} // namespace

void
dumpChrome(const TimelineReader &tl, std::ostream &os)
{
    // One "ph":"C" counter event per series per sample, with the
    // components of a CPI stack ("<stack>.<component>") merged into a
    // single multi-value track named "<stack>" so viewers stack them.
    // Per-core series ("core.<i>.*", "sched.core.<i>.*") live under
    // their own Chrome process (pid 1 + i, named via process_name
    // metadata) so each core renders as a separate lane; machine-wide
    // series stay on pid 0.
    os << "[";
    bool first = true;
    os << "\n {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
          "\"args\": {\"name\": \"machine\"}}";
    first = false;
    for (uint32_t c = 0; c < tl.cores(); ++c)
        os << ",\n {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
           << 1 + c << ", \"args\": {\"name\": \"core " << c << "\"}}";

    auto event = [&](const std::string &name, uint64_t ts,
                     auto &&write_args) {
        const int core = seriesCore(name);
        os << (first ? "\n" : ",\n") << " {\"name\": \""
           << jsonEscape(name) << "\", \"ph\": \"C\", \"ts\": " << ts
           << ", \"pid\": " << (core < 0 ? 0 : 1 + core)
           << ", \"tid\": 0, \"args\": {";
        write_args();
        os << "}}";
        first = false;
    };

    const auto &counters = tl.counterNames();
    for (const auto &row : tl.samples()) {
        // CPI-stack components share one event keyed by stack name.
        size_t i = 0;
        while (i < counters.size()) {
            const std::string &name = counters[i];
            const size_t dot = name.rfind('.');
            const std::string stack =
                dot == std::string::npos ? "" : name.substr(0, dot);
            const bool is_cpi = stack.size() >= 3 &&
                stack.compare(stack.size() - 3, 3, "cpi") == 0;
            if (!is_cpi) {
                event(name, row.end_cycle, [&] {
                    os << "\"value\": " << row.deltas[i];
                });
                ++i;
                continue;
            }
            event(stack, row.end_cycle, [&] {
                bool inner_first = true;
                while (i < counters.size() &&
                       counters[i].compare(0, stack.size() + 1,
                                           stack + ".") == 0) {
                    os << (inner_first ? "" : ", ") << '"'
                       << jsonEscape(std::string_view(counters[i])
                                         .substr(stack.size() + 1))
                       << "\": " << row.deltas[i];
                    inner_first = false;
                    ++i;
                }
            });
        }
        for (size_t g = 0; g < tl.gaugeNames().size(); ++g) {
            event(tl.gaugeNames()[g], row.end_cycle, [&] {
                os << "\"value\": " << row.gauges[g];
            });
        }
    }
    os << "\n]\n";
}

} // namespace telemetry
} // namespace poat
