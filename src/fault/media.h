/**
 * @file
 * Deterministic media-fault exploration.
 *
 * The crash-point explorer (fault/explore.h) proves recovery works from
 * any *power-failure* image; this explorer proves recovery also
 * survives the images NVM itself damages at rest — latent bit flips and
 * torn 64-byte lines. For each chosen crash point k it builds the
 * durable image exactly as a crash trial does — from the explorer's
 * recorded write-back stream, or by re-execution when a reproducer
 * replays — then corrupts one (or two) checksummed on-media structures
 * and requires recovery to end in one of exactly three states:
 *
 *   repaired  — the scrub pass fixed the corruption (mirror resync,
 *               dead-snapshot reseal, or block-header rebuild) and every
 *               crash-consistency invariant still holds, including
 *               recovery idempotence;
 *   benign    — recovery succeeded and the scrub found nothing to do
 *               (the injected bytes happened to be a no-op);
 *   diagnosed — recovery failed stopped with a MediaError naming the
 *               pool, offset, and structure kind.
 *
 * Anything else — a wrong recovered state, a non-diagnostic exception,
 * a failed idempotence check — is an undetected or mishandled
 * corruption and becomes a Failure with a self-contained reproducer.
 *
 * Fault-site enumeration. After the crash at k, the (uncorrupted)
 * durable image is walked and every checksummed structure becomes a
 * site, in a fixed order: superblock primary and mirror; then, for each
 * undo-log slot in slot order (one slot per engine worker), its
 * log-header primary and mirror and each of its published log entries
 * (header site, then payload site if the entry has one); then every
 * heap block header, all in pool-id order. The fault index space is two
 * faults per site:
 *
 *   f = 2 * i     — flip one seeded-random bit of site i;
 *   f = 2 * i + 1 — torn write: fill the intersection of one
 *                   seeded-random 64-byte line with site i's extent
 *                   with seeded-random garbage.
 *
 * Torn faults deliberately stay inside checksummed extents: user
 * payload data carries no checksum by design (the paper's object format
 * seals headers and metadata), so tearing an arbitrary heap line could
 * produce corruption that is *legitimately* undetectable and would make
 * the explorer cry wolf.
 *
 * The fault index is over ALL sites, never over a filtered subset, so a
 * reproducer token ":mF" (or ":mF1+F2" for a double fault) replays the
 * identical injection regardless of what filters produced it.
 */
#ifndef POAT_FAULT_MEDIA_H
#define POAT_FAULT_MEDIA_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "fault/explore.h"
#include "pmem/registry.h"

namespace poat {
namespace fault {

/**
 * One checksummed extent a media fault can hit. The kind vocabulary is
 * the pmem layer's own (poat::MediaStructure, checksum.h), so explorer
 * filters and MediaError diagnostics speak the same names; an undo-log
 * entry's header and payload are separate sites of the same LogEntry
 * kind.
 */
struct MediaSite
{
    uint32_t pool_id = 0;
    uint32_t off = 0; ///< pool offset of the structure
    uint32_t len = 0; ///< extent in bytes
    MediaStructure kind = MediaStructure::Superblock;
    /** For BlockHeader sites: the block's allocated flag. */
    bool allocated_block = false;
};

/**
 * Enumerate every fault site of every open pool, in the canonical
 * order (see file comment). Call on a crashed, uncorrupted image —
 * i.e. after crashAll() and before any injection.
 */
std::vector<MediaSite> enumerateMediaSites(PoolRegistry &registry);

/** What to corrupt and how hard. */
struct MediaOptions
{
    /** Workload, steps, seed, eviction — shared with crash trials. */
    ExploreOptions base;

    /**
     * Crash points (durability-event indexes) at which to freeze the
     * image before injecting. Empty means the default spread
     * {0, T/4, T/2, 3*T/4, T} where T is the recorded event count;
     * T itself is legal and means "the run completed, corrupt the
     * quiescent image".
     */
    std::vector<uint64_t> points;

    /**
     * Single faults to inject per crash point; 0 tries every fault
     * index exhaustively. Sampled indices are drawn without
     * replacement by a generator seeded from base.seed and k.
     */
    uint64_t sample = 0;

    /** Seeded double-fault trials per crash point (0 = none). */
    uint64_t doubles = 0;

    /** Restrict to these structure kinds; empty = all kinds. */
    std::vector<MediaStructure> kinds;

    /**
     * BlockHeader site filter: 0 = any block, 1 = allocated blocks
     * only, 2 = free blocks only. Other kinds are unaffected.
     */
    int block_filter = 0;
};

/** Outcome of a media exploration. */
struct MediaReport
{
    uint64_t total_events = 0; ///< durability events of the recording
    uint64_t points = 0;       ///< crash points actually used
    uint64_t sites = 0;        ///< fault sites (summed over points)
    uint64_t trials = 0;       ///< injection trials run
    uint64_t injected = 0;     ///< individual faults injected
    uint64_t repaired = 0;     ///< trials the scrub pass repaired
    uint64_t diagnosed = 0;    ///< trials that fail-stopped (MediaError)
    uint64_t benign = 0;       ///< trials where scrub found nothing
    std::vector<Failure> failures;

    bool ok() const { return failures.empty(); }

    /** Publish the aggregate counters under "fault.media." in @p stats. */
    void publish(StatsRegistry &stats) const;
};

/**
 * Record, then for each crash point inject each chosen fault into a
 * freshly built crashed image and classify recovery; deterministic for
 * fixed options within one build. Workload or driver errors (as opposed to
 * invariant violations) propagate as exceptions.
 */
MediaReport exploreMedia(const MediaOptions &opts);

/**
 * Re-run one media trial: re-execute the workload crashing at @p k,
 * inject per @p spec ("17" or "17+42"), recover, classify. Used by
 * replayRepro for ":m" tokens.
 * @return the failure if the trial fails, or an empty vector.
 * @throws std::invalid_argument on a malformed spec or a fault index
 *         past the site space of this image.
 */
std::vector<Failure> replayMediaTrial(const ExploreOptions &opts,
                                      uint64_t k,
                                      const std::string &spec);

} // namespace fault
} // namespace poat

#endif // POAT_FAULT_MEDIA_H
