#include "fault/media.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/bits.h"
#include "common/cli.h"
#include "driver/sweep.h"
#include "fault/trial.h"
#include "pmem/tx.h"

namespace poat {
namespace fault {

using detail::checkRecovered;
using detail::CrashPoint;
using detail::MediaTrialStats;
using detail::Recording;
using detail::TrialRun;

namespace {

/** Media trials run under the Eager policy, whatever @p opts says. */
ExploreOptions
eagerOptions(ExploreOptions opts)
{
    opts.strict = false;
    return opts;
}

/**
 * Seed for the injection RNG of fault f at crash point k: every random
 * choice the injection makes (which bit, which line, which garbage
 * bytes) derives from (seed, k, f) alone, so the ":mF" reproducer token
 * replays the byte-identical corruption.
 */
uint64_t
faultSeed(uint64_t seed, uint64_t k, uint64_t f)
{
    uint64_t x = seed + 0x632be59bd9b4e019ull;
    x ^= k * 0xbf58476d1ce4e5b9ull;
    x ^= f * 0x94d049bb133111ebull;
    return x;
}

/** "17" or "17+42" -> fault indices; throws on anything else. */
std::vector<uint64_t>
parseSpec(const std::string &spec)
{
    const std::vector<std::string> items = cli::split(spec, '+');
    std::vector<uint64_t> out;
    for (const std::string &item : items) {
        const auto f = cli::parseUnsigned(item);
        if (!f || items.size() > 2)
            throw std::invalid_argument("bad media fault spec '" + spec +
                                        "' (expected F or F1+F2)");
        out.push_back(*f);
    }
    return out;
}

/** Inject fault @p f into the durable image per the site table. */
void
injectFault(PoolRegistry &registry, const std::vector<MediaSite> &sites,
            uint64_t f, uint64_t rng_seed)
{
    const uint64_t site_idx = f / 2;
    if (site_idx >= sites.size()) {
        throw std::invalid_argument(
            "media fault index " + std::to_string(f) + " out of range (" +
            std::to_string(2 * sites.size()) + " faults in this image)");
    }
    const MediaSite &site = sites[site_idx];
    Pool &pool = registry.get(site.pool_id).pool;
    Rng rng(rng_seed);

    if (f % 2 == 0) {
        // Bit flip: one random bit anywhere in the site's extent.
        const uint32_t byte = site.off +
            static_cast<uint32_t>(rng.below(site.len));
        uint8_t flipped = 0;
        pool.readDurable(byte, &flipped, 1);
        flipped ^= static_cast<uint8_t>(1u << rng.below(8));
        pool.corruptDurable(byte, &flipped, 1);
        return;
    }

    // Torn write: a 64-byte line that was mid-flight when power failed
    // carries garbage — but only where it overlaps the checksummed
    // structure (user payload bytes carry no checksum by design, so
    // tearing them would be legitimately undetectable; see media.h).
    const uint32_t line_sz = static_cast<uint32_t>(kLineSize);
    const uint32_t first_line = site.off / line_sz;
    const uint32_t last_line = (site.off + site.len - 1) / line_sz;
    const uint32_t line = first_line +
        static_cast<uint32_t>(rng.below(last_line - first_line + 1));
    const uint32_t lo = std::max(site.off, line * line_sz);
    const uint32_t hi = std::min(site.off + site.len,
                                 (line + 1) * line_sz);
    std::vector<uint8_t> garbage(hi - lo);
    for (uint8_t &b : garbage)
        b = static_cast<uint8_t>(rng.next());
    pool.corruptDurable(lo, garbage.data(), garbage.size());
}

/** Do the options allow faulting this site? */
bool
siteAllowed(const MediaSite &site, const MediaOptions &opts)
{
    if (!opts.kinds.empty() &&
        std::find(opts.kinds.begin(), opts.kinds.end(), site.kind) ==
            opts.kinds.end())
        return false;
    if (site.kind == MediaStructure::BlockHeader) {
        if (opts.block_filter == 1 && !site.allocated_block)
            return false;
        if (opts.block_filter == 2 && site.allocated_block)
            return false;
    }
    return true;
}

/**
 * Step two of a media trial, whichever source built the crashed image:
 * inject the fault(s) in @p spec, recover, and classify (see
 * runMediaTrial).
 */
void
checkMediaTrial(const ExploreOptions &opts, uint64_t k,
                const std::string &spec, TrialRun &run,
                const CrashPoint &cp, MediaTrialStats &ts)
{
    PmemRuntime &rt = run.rt;
    ++ts.trials;

    auto fail = [&](const std::string &why) {
        Failure f;
        f.workload = opts.workload;
        f.steps = opts.steps;
        f.seed = opts.seed;
        f.k = k;
        f.media = spec;
        f.evict_num = opts.evict_num;
        f.evict_den = opts.evict_den;
        f.sched_seed = opts.sched_seed;
        f.threads = opts.threads;
        f.why = why;
        ts.failures.push_back(std::move(f));
    };

    // Enumerate on the uncorrupted image, then corrupt the durable copy
    // and crash again so the working image sees it, as a reboot would.
    const std::vector<MediaSite> sites =
        enumerateMediaSites(rt.registry());
    for (uint64_t f : parseSpec(spec)) {
        injectFault(rt.registry(), sites, f,
                    faultSeed(opts.seed, k, f));
        ++ts.injected;
    }
    rt.registry().crashAll();

    try {
        rt.registry().recoverAll();
    } catch (const MediaError &) {
        // Fail-stop with a precise diagnostic is a correct outcome for
        // unrepairable corruption — the one wrong answer is no answer.
        ++ts.diagnosed;
        return;
    } catch (const std::runtime_error &e) {
        fail(std::string("recovery failed without a media diagnostic "
                         "(undetected corruption?): ") +
             e.what());
        return;
    }

    if (rt.registry().lastScrubStats().repairs() > 0)
        ++ts.repaired;
    else
        ++ts.benign;

    uint64_t leaked = 0;
    std::string why;
    if (!checkRecovered(rt, *run.driver, cp.window, &leaked, &why)) {
        fail("after media fault: " + why);
        return;
    }

    // Idempotence: the repaired image must recover to itself.
    try {
        rt.registry().recoverAll();
    } catch (const std::runtime_error &e) {
        fail(std::string("second recovery after repair threw: ") +
             e.what());
        return;
    }
    if (!checkRecovered(rt, *run.driver, cp.window, &leaked, &why))
        fail("after second recovery: " + why);
}

} // namespace

std::vector<MediaSite>
enumerateMediaSites(PoolRegistry &registry)
{
    std::vector<MediaSite> sites;
    for (uint32_t id : registry.openIds()) {
        OpenPool &op = registry.get(id);
        const Pool &pool = op.pool;
        const PoolHeader &ph = pool.header();

        sites.push_back({id, 0, sizeof(PoolHeader),
                         MediaStructure::Superblock, false});
        sites.push_back({id, PoolHeader::kMirrorOff, sizeof(PoolHeader),
                         MediaStructure::Superblock, false});

        // Every undo-log slot (one per engine worker): its header pair,
        // then its published entries.
        op.forEachLog([&sites, id](const UndoLog &log) {
            const uint32_t log_off = log.headerOff();
            sites.push_back({id, log_off, sizeof(LogHeader),
                             MediaStructure::LogHeader, false});
            sites.push_back({id, log_off + LogHeader::kMirrorLineOff,
                             sizeof(LogHeader), MediaStructure::LogHeader,
                             false});
            for (const UndoLog::Record &r : log.records()) {
                sites.push_back({id, r.entry_off, sizeof(LogEntryHeader),
                                 MediaStructure::LogEntry, false});
                if (r.size != 0) {
                    sites.push_back({id,
                                     r.entry_off + static_cast<uint32_t>(
                                                       sizeof(LogEntryHeader)),
                                     r.size, MediaStructure::LogEntry,
                                     false});
                }
            }
        });

        const uint32_t heap_end = ph.heap_off + ph.heap_size;
        uint32_t boff = ph.heap_off;
        while (boff + sizeof(BlockHeader) <= heap_end) {
            const BlockHeader bh = pool.readAs<BlockHeader>(boff);
            if (!bh.crcValid())
                break; // unformatted (fresh) heap tail
            sites.push_back({id, boff, sizeof(BlockHeader),
                             MediaStructure::BlockHeader,
                             bh.allocated()});
            if (bh.size < PoolAllocator::kMinBlock)
                break;
            boff += bh.size;
        }
    }
    return sites;
}

void
MediaReport::publish(StatsRegistry &stats) const
{
    stats.counter("fault.media.events") += total_events;
    stats.counter("fault.media.points") += points;
    stats.counter("fault.media.sites") += sites;
    stats.counter("fault.media.trials") += trials;
    stats.counter("fault.media.injected") += injected;
    stats.counter("fault.media.repaired") += repaired;
    stats.counter("fault.media.diagnosed") += diagnosed;
    stats.counter("fault.media.benign") += benign;
    stats.counter("fault.media.failures") += failures.size();
}

MediaReport
exploreMedia(const MediaOptions &opts)
{
    MediaReport report;

    // ---- recording pass: the durability-event stream, twice ----------
    const ExploreOptions base = eagerOptions(opts.base);
    const Recording rec = detail::recordStream(base);
    report.total_events = rec.events.size();

    // ---- crash points -----------------------------------------------
    const uint64_t T = report.total_events;
    std::set<uint64_t> point_set;
    if (opts.points.empty()) {
        // Default spread: fresh image, three mid-run images, and the
        // quiescent image of the completed run (k == T never crashes).
        for (uint64_t k : {uint64_t(0), T / 4, T / 2, 3 * T / 4, T})
            point_set.insert(k);
    } else {
        for (uint64_t k : opts.points)
            point_set.insert(std::min(k, T));
    }
    const std::vector<uint64_t> points(point_set.begin(),
                                       point_set.end());
    report.points = points.size();

    // ---- per-point fault selection ----------------------------------
    // One clean (uninjected) image per point enumerates the site table;
    // the fault index space is over ALL sites so reproducers do not
    // depend on the filters below.
    struct Trial
    {
        uint64_t k;
        std::string spec;
    };
    std::vector<Trial> trials;
    for (uint64_t k : points) {
        TrialRun run(base);
        detail::crashRun(run, base, k, nullptr, &rec);
        const std::vector<MediaSite> sites =
            enumerateMediaSites(run.rt.registry());
        report.sites += sites.size();

        std::vector<uint64_t> cand;
        for (size_t i = 0; i < sites.size(); ++i) {
            if (!siteAllowed(sites[i], opts))
                continue;
            cand.push_back(2 * i);
            cand.push_back(2 * i + 1);
        }
        if (cand.empty())
            continue;

        std::vector<uint64_t> picks = detail::choosePoints(
            cand.size(), opts.sample,
            opts.base.seed ^ (k * 0xd6e8feb86659fd93ull + 3));
        for (uint64_t p : picks)
            trials.push_back({k, std::to_string(cand[p])});

        Rng pair_rng(opts.base.seed ^
                     (k * 0xa0761d6478bd642full + 5));
        for (uint64_t d = 0; d < opts.doubles; ++d) {
            const uint64_t a = cand[pair_rng.below(cand.size())];
            uint64_t b = cand[pair_rng.below(cand.size())];
            if (cand.size() > 1) {
                while (b == a)
                    b = cand[pair_rng.below(cand.size())];
            }
            trials.push_back({k, std::to_string(a) + "+" +
                                     std::to_string(b)});
        }
    }

    // ---- trial fan-out ----------------------------------------------
    std::vector<MediaTrialStats> slots(trials.size());
    driver::runTasks(trials.size(), opts.base.jobs, [&](size_t idx) {
        detail::runMediaTrial(base, trials[idx].k, trials[idx].spec, &rec,
                              slots[idx]);
    });

    for (const MediaTrialStats &ts : slots) {
        report.trials += ts.trials;
        report.injected += ts.injected;
        report.repaired += ts.repaired;
        report.diagnosed += ts.diagnosed;
        report.benign += ts.benign;
        report.failures.insert(report.failures.end(),
                               ts.failures.begin(), ts.failures.end());
    }
    return report;
}

std::vector<Failure>
replayMediaTrial(const ExploreOptions &opts, uint64_t k,
                 const std::string &spec)
{
    // Re-execution: the reference path, independent of any recording.
    MediaTrialStats ts;
    detail::runMediaTrial(eagerOptions(opts), k, spec, nullptr, ts);
    return ts.failures;
}

namespace detail {

void
runMediaTrial(const ExploreOptions &opts, uint64_t k,
              const std::string &spec, const Recording *rec,
              MediaTrialStats &ts)
{
    TrialRun run(opts);
    const CrashPoint cp = crashRun(run, opts, k, nullptr, rec);
    checkMediaTrial(opts, k, spec, run, cp, ts);
}

} // namespace detail

} // namespace fault
} // namespace poat
