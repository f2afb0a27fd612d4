/**
 * @file
 * Software ObjectID translation: the paper's oid_direct (Figure 3).
 *
 * This is the BASE system's translation path and the cost the proposed
 * hardware removes. It follows NVML's strategy exactly: a most-recent
 * (pool id, base address) predictor pair in globals, backed by a hash
 * map from pool id to mapped base address. Besides *performing* the
 * translation, translate() emits the dynamic instruction stream of the
 * corresponding -O2 compiled code — including the real memory references
 * to the predictor globals and hash-chain nodes, which is what creates
 * the extra cache pressure the paper attributes to software translation.
 *
 * Instruction-count anchors (paper Table 2): a predictor hit costs
 * exactly 17 instructions; a full lookup costs ~95-110 depending on the
 * hash-chain probe count. tests/pmem/translate_test.cc pins both.
 */
#ifndef POAT_PMEM_TRANSLATE_H
#define POAT_PMEM_TRANSLATE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "pmem/addrspace.h"
#include "pmem/oid.h"
#include "pmem/trace.h"

namespace poat {

/** NVML-style software translator with last-value prediction. */
class SoftwareTranslator
{
  public:
    /** Buckets in the pool-id hash map (power of two). */
    static constexpr uint32_t kBuckets = 1024;

    /**
     * @param space Address space used to place the translator's own
     *              data (globals, bucket array, chain nodes) so its
     *              memory traffic has realistic virtual addresses.
     */
    explicit SoftwareTranslator(AddressSpace &space);

    /** Register a mapped pool (called from pool_create/pool_open). */
    void addPool(uint32_t pool_id, uint64_t vbase);

    /** Deregister a pool (called from pool_close). */
    void removePool(uint32_t pool_id);

    /**
     * Translate @p oid to a virtual address, emitting the oid_direct
     * instruction stream into @p sink. Fatal if the pool is unknown
     * (the paper treats this as a program error).
     *
     * @param value_tag If non-null, receives the value tag of the base-
     *        address load, so callers can express that a subsequent data
     *        access's address depends on the translation result.
     */
    uint64_t translate(ObjectID oid, TraceSink &sink,
                       uint64_t *value_tag = nullptr);

    /** Translate without emitting anything (host-side convenience). */
    uint64_t translateQuiet(ObjectID oid) const;

    /// @name Statistics for Table 2
    /// @{
    uint64_t calls() const { return calls_; }
    uint64_t predictorMisses() const { return misses_; }
    uint64_t instructionsEmitted() const { return insns_; }
    uint64_t probesTotal() const { return probes_; }

    double
    avgInstructionsPerCall() const
    {
        return calls_ ? static_cast<double>(insns_) / calls_ : 0.0;
    }

    double
    predictorMissRate() const
    {
        return calls_ ? static_cast<double>(misses_) / calls_ : 0.0;
    }

    /**
     * Publish this translator's counters and histograms into @p reg
     * under "@p prefix." (e.g. "sw_translate.calls").
     */
    void fillStats(StatsRegistry &reg,
                   const std::string &prefix = "sw_translate") const;

    void resetStats();
    /// @}

    /** Forget the most-recent translation (e.g., across phases). */
    void invalidatePredictor() { recentValid_ = false; }

    /**
     * Disable the most-recent-translation predictor entirely: every
     * call takes the full hash-lookup path. Models an NVML-like
     * library without the last-value optimization (ablation).
     */
    void setPredictorEnabled(bool on) { predictorEnabled_ = on; }
    bool predictorEnabled() const { return predictorEnabled_; }

    size_t poolCount() const { return pools_.size(); }

  private:
    struct PoolInfo
    {
        uint64_t base;      ///< mapped virtual base of the pool
        uint64_t nodeVaddr; ///< vaddr of this pool's hash-chain node
    };

    static uint32_t bucketOf(uint32_t pool_id);

    AddressSpace &space_;
    uint64_t rtBase_;       ///< base of the translator's data segment
    uint64_t nodeBump_;     ///< bump pointer for chain-node vaddrs

    std::unordered_map<uint32_t, PoolInfo> pools_;
    std::vector<std::vector<uint32_t>> chains_; ///< bucket -> pool ids

    // Most-recent-translation predictor (the paper's globals).
    bool predictorEnabled_ = true;
    bool recentValid_ = false;
    uint32_t recentId_ = 0;
    uint64_t recentBase_ = 0;

    uint64_t calls_ = 0;
    uint64_t misses_ = 0;
    uint64_t insns_ = 0;
    uint64_t probes_ = 0;
    Histogram insnHist_; ///< emitted instructions per call
};

} // namespace poat

#endif // POAT_PMEM_TRANSLATE_H
