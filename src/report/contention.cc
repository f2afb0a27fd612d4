#include "report/contention.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"

namespace poat {
namespace report {

namespace {

/** Numeric leaf at @p path, or @p fallback when absent. */
double
num(const FlatJson &flat, const std::string &path, double fallback = 0)
{
    auto it = flat.numbers.find(path);
    return it == flat.numbers.end() ? fallback : it->second;
}

uint64_t
u64(const FlatJson &flat, const std::string &path)
{
    return static_cast<uint64_t>(num(flat, path));
}

bool
has(const FlatJson &flat, const std::string &path)
{
    return flat.numbers.count(path) != 0;
}

/**
 * Collect "<stem><name><leaf>" children of @p stem: every numeric
 * path of the form stem + <single segment> + leaf, in map order.
 */
std::vector<std::pair<std::string, uint64_t>>
children(const FlatJson &flat, const std::string &stem,
         const std::string &leaf)
{
    std::vector<std::pair<std::string, uint64_t>> out;
    for (auto it = flat.numbers.lower_bound(stem);
         it != flat.numbers.end() &&
         it->first.compare(0, stem.size(), stem) == 0;
         ++it) {
        const std::string tail = it->first.substr(stem.size());
        if (tail.size() > leaf.size() &&
            tail.compare(tail.size() - leaf.size(), leaf.size(), leaf) ==
                0 &&
            tail.find('.') == tail.size() - leaf.size())
            out.emplace_back(tail.substr(0, tail.size() - leaf.size()),
                             static_cast<uint64_t>(it->second));
    }
    return out;
}

} // namespace

ContentionRun
extractContention(const FlatJson &flat, const std::string &prefix)
{
    const std::string s = prefix + "stats.";
    ContentionRun run;
    if (auto it = flat.strings.find(prefix + "label");
        it != flat.strings.end())
        run.label = it->second;
    if (!has(flat, s + "lock.acquisitions"))
        return run; // sequential run: no contention stats exported
    run.present = true;

    run.makespan = u64(flat, s + "core.cycles");
    run.lock_waits = u64(flat, s + "lock.waits");
    run.lock_acquisitions = u64(flat, s + "lock.acquisitions");
    run.waits_for_edges = u64(flat, s + "lock.waits_for_edges");
    run.deadlock_victims = u64(flat, s + "lock.deadlock_victims");
    run.wait_mean = num(flat, s + "lock.wait_cycles.mean");
    run.wait_p99 = num(flat, s + "lock.wait_cycles.p99");
    run.wait_max = num(flat, s + "lock.wait_cycles.max");
    run.hold_mean = num(flat, s + "lock.hold_cycles.mean");
    run.hold_p99 = num(flat, s + "lock.hold_cycles.p99");
    run.hold_max = num(flat, s + "lock.hold_cycles.max");

    const uint64_t topn = u64(flat, s + "lock.top.count");
    for (uint64_t r = 0; r < topn; ++r) {
        const std::string p =
            s + "lock.top." + std::to_string(r) + ".";
        ContentionLock l;
        l.key = u64(flat, p + "key");
        l.waits = u64(flat, p + "waits");
        l.wait_cycles = u64(flat, p + "wait_cycles");
        l.hold_cycles = u64(flat, p + "hold_cycles");
        l.acquisitions = u64(flat, p + "acquisitions");
        run.top.push_back(l);
    }

    while (has(flat, s + "sched.core." + std::to_string(run.cores) +
                         ".running"))
        ++run.cores;
    for (const char *r :
         {"token_wait", "lock_wait", "commit_wait", "idle_done"}) {
        const std::string p = s + "sched.blocked." + r;
        if (has(flat, p))
            run.blocked.emplace_back(r, u64(flat, p));
    }

    run.aborts = u64(flat, s + "tx.abort.count");
    run.wasted_cycles = u64(flat, s + "tx.abort.wasted_total");
    run.undo_bytes = u64(flat, s + "tx.abort.undo_bytes");
    run.retries = u64(flat, s + "engine.retries");
    run.commits = u64(flat, s + "engine.commits");
    run.batch_windows = u64(flat, s + "commit.batch.windows");
    run.fences_elided = u64(flat, s + "commit.batch.fences_elided");
    run.batch_occupancy_mean =
        num(flat, s + "commit.batch.occupancy.mean");

    run.cp_length = u64(flat, s + "cp.length");
    run.cp_pct = num(flat, s + "cp.pct");
    run.cp_segments = u64(flat, s + "cp.segments");
    run.cp_lock_edges = u64(flat, s + "cp.edges.lock");
    run.cp_ops = children(flat, s + "cp.op.", ".cycles");
    const uint64_t cpl = u64(flat, s + "cp.lock.count");
    for (uint64_t r = 0; r < cpl; ++r) {
        const std::string p = s + "cp.lock." + std::to_string(r) + ".";
        run.cp_locks.emplace_back(u64(flat, p + "key"),
                                  u64(flat, p + "cycles"));
    }
    return run;
}

std::vector<ContentionRun>
extractAllContention(const FlatJson &flat)
{
    std::vector<ContentionRun> out;
    bool sawRuns = false;
    for (size_t i = 0;; ++i) {
        const std::string prefix =
            "runs[" + std::to_string(i) + "].";
        if (!flat.strings.count(prefix + "label") &&
            !has(flat, prefix + "cycles"))
            break;
        sawRuns = true;
        ContentionRun run = extractContention(flat, prefix);
        if (run.present)
            out.push_back(std::move(run));
    }
    if (!sawRuns) {
        // Not a bench report; try the document as one stats object.
        ContentionRun run = extractContention(flat, "");
        if (run.present)
            out.push_back(std::move(run));
    }
    return out;
}

void
renderContentionText(const ContentionRun &run, std::ostream &os)
{
    char buf[256];
    auto line = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        os << buf << "\n";
    };
    os << "== " << (run.label.empty() ? "(run)" : run.label) << " ==\n";
    line("  makespan %" PRIu64 " cycles on %" PRIu64 " cores",
         run.makespan, run.cores);

    line("  locks: %" PRIu64 " acquisitions, %" PRIu64
         " waits, %" PRIu64 " waits-for edges, %" PRIu64
         " deadlock victims",
         run.lock_acquisitions, run.lock_waits, run.waits_for_edges,
         run.deadlock_victims);
    line("    wait cycles mean %.1f p99 %.0f max %.0f; hold mean %.1f "
         "p99 %.0f max %.0f",
         run.wait_mean, run.wait_p99, run.wait_max, run.hold_mean,
         run.hold_p99, run.hold_max);
    if (!run.top.empty()) {
        line("    %-4s %-18s %10s %12s %12s %10s", "top", "key",
             "waits", "wait_cyc", "hold_cyc", "acq");
        for (size_t r = 0; r < run.top.size(); ++r) {
            const ContentionLock &l = run.top[r];
            line("    #%-3zu 0x%-16" PRIx64 " %10" PRIu64 " %12" PRIu64
                 " %12" PRIu64 " %10" PRIu64,
                 r, l.key, l.waits, l.wait_cycles, l.hold_cycles,
                 l.acquisitions);
        }
    }

    line("  aborts: %" PRIu64 " (%" PRIu64 " retries, %" PRIu64
         " commits); wasted %" PRIu64 " cycles, rolled back %" PRIu64
         " undo bytes",
         run.aborts, run.retries, run.commits, run.wasted_cycles,
         run.undo_bytes);
    line("  group commit: %" PRIu64 " windows, mean occupancy %.2f, "
         "%" PRIu64 " fences elided",
         run.batch_windows, run.batch_occupancy_mean,
         run.fences_elided);

    if (!run.blocked.empty()) {
        os << "  blocked cycles (all cores):";
        for (const auto &[reason, cyc] : run.blocked) {
            std::snprintf(buf, sizeof(buf), " %s=%" PRIu64,
                          reason.c_str(), cyc);
            os << buf;
        }
        os << "\n";
    }

    line("  critical path: %" PRIu64 " cycles (%.1f%% of makespan), "
         "%" PRIu64 " segments, %" PRIu64 " lock edges",
         run.cp_length, 100.0 * run.cp_pct, run.cp_segments,
         run.cp_lock_edges);
    for (const auto &[op, cyc] : run.cp_ops)
        line("    op   %-24s %12" PRIu64 " cycles", op.c_str(), cyc);
    for (size_t r = 0; r < run.cp_locks.size(); ++r)
        line("    lock #%zu 0x%-16" PRIx64 " %12" PRIu64 " cycles", r,
             run.cp_locks[r].first, run.cp_locks[r].second);
}

void
renderContentionJson(const std::vector<ContentionRun> &runs,
                     std::ostream &os)
{
    os << "[";
    for (size_t i = 0; i < runs.size(); ++i) {
        const ContentionRun &r = runs[i];
        os << (i ? ",\n " : "\n ") << "{\"label\": \""
           << jsonEscape(r.label) << "\", \"makespan\": " << r.makespan
           << ", \"cores\": " << r.cores << ",\n  \"lock\": {\"waits\": "
           << r.lock_waits << ", \"acquisitions\": "
           << r.lock_acquisitions << ", \"waits_for_edges\": "
           << r.waits_for_edges << ", \"deadlock_victims\": "
           << r.deadlock_victims << ", \"top\": [";
        for (size_t t = 0; t < r.top.size(); ++t) {
            const ContentionLock &l = r.top[t];
            os << (t ? ", " : "") << "{\"key\": " << l.key
               << ", \"waits\": " << l.waits << ", \"wait_cycles\": "
               << l.wait_cycles << ", \"hold_cycles\": "
               << l.hold_cycles << ", \"acquisitions\": "
               << l.acquisitions << "}";
        }
        os << "]},\n  \"abort\": {\"count\": " << r.aborts
           << ", \"retries\": " << r.retries << ", \"commits\": "
           << r.commits << ", \"wasted_cycles\": " << r.wasted_cycles
           << ", \"undo_bytes\": " << r.undo_bytes
           << "},\n  \"commit_batch\": {\"windows\": "
           << r.batch_windows << ", \"fences_elided\": "
           << r.fences_elided << "},\n  \"blocked\": {";
        for (size_t b = 0; b < r.blocked.size(); ++b) {
            os << (b ? ", " : "") << "\"" << r.blocked[b].first
               << "\": " << r.blocked[b].second;
        }
        os << "},\n  \"critical_path\": {\"length\": " << r.cp_length
           << ", \"pct\": " << 100.0 * r.cp_pct << ", \"segments\": "
           << r.cp_segments << ", \"lock_edges\": " << r.cp_lock_edges
           << ", \"ops\": {";
        for (size_t o = 0; o < r.cp_ops.size(); ++o) {
            os << (o ? ", " : "") << "\"" << jsonEscape(r.cp_ops[o].first)
               << "\": " << r.cp_ops[o].second;
        }
        os << "}, \"locks\": [";
        for (size_t l = 0; l < r.cp_locks.size(); ++l)
            os << (l ? ", " : "") << "{\"key\": " << r.cp_locks[l].first
               << ", \"cycles\": " << r.cp_locks[l].second << "}";
        os << "]}}";
    }
    os << "\n]\n";
}

} // namespace report
} // namespace poat
