#include "fault/reorder.h"

#include <set>
#include <stdexcept>

#include "common/rng.h"

namespace poat {
namespace fault {

uint8_t
DrainProbe::onWriteBack(Pool &pool, uint32_t line, WriteBackCause cause)
{
    const uint64_t idx = total_++;
    if (cause == WriteBackCause::Fence && fenceLeft_ > 0 &&
        pool.id() == fencePool_) {
        // Continuation of the announced drain: append to its batch.
        DrainBatch &b = batches_.back();
        if (b.start + b.size() == idx && b.cause == WriteBackCause::Fence &&
            b.pool_id == pool.id()) {
            b.lines.push_back(line);
            --fenceLeft_;
            return kFullLineMask;
        }
    }
    fenceLeft_ = 0;
    DrainBatch b;
    b.start = idx;
    b.lines.push_back(line);
    b.pool_id = pool.id();
    b.cause = cause;
    batches_.push_back(std::move(b));
    return kFullLineMask;
}

void
DrainProbe::onFenceDrainBegin(Pool &pool,
                              const std::vector<uint32_t> &pending)
{
    fencePool_ = pool.id();
    fenceLeft_ = pending.size();
    // Open the batch lazily at the first drain write-back so `start`
    // lands on a real event index; announce only arms the grouping.
    if (!pending.empty()) {
        DrainBatch b;
        b.start = total_;
        b.pool_id = pool.id();
        b.cause = WriteBackCause::Fence;
        batches_.push_back(std::move(b));
        // The batch is empty until onWriteBack appends; pop it again if
        // nothing arrives (cannot happen: fence() writes every pending
        // line), guarded in onWriteBack by the start/size check.
        batches_.back().lines.clear();
    }
}

const std::vector<uint8_t> &
tornWordMasks()
{
    static const std::vector<uint8_t> masks = [] {
        std::vector<uint8_t> m;
        for (uint32_t w = 1; w < 8; ++w)
            m.push_back(static_cast<uint8_t>((1u << w) - 1)); // prefix
        for (uint32_t w = 1; w < 8; ++w)
            m.push_back(static_cast<uint8_t>(0xffu << (8 - w))); // suffix
        return m;
    }();
    return masks;
}

std::vector<DrainPlan>
planDrainStates(const DrainBatch &batch, uint64_t bound, uint64_t sample,
                uint64_t seed)
{
    const uint64_t n = batch.size();
    std::vector<DrainPlan> plans;

    auto subsetPlan = [&](const std::vector<bool> &in) {
        DrainPlan p;
        p.start = batch.start;
        p.masks.resize(n, 0);
        for (uint64_t i = 0; i < n; ++i)
            p.masks[i] = in[i] ? DurabilityHook::kFullLineMask : 0;
        return p;
    };

    if (n >= 2) {
        if (n <= bound && n < 64) {
            // Exhaustive: every proper, non-empty subset. Empty equals
            // the prefix trial at `start`, full the one at `start + n`.
            for (uint64_t bits = 1; bits + 1 < (1ull << n); ++bits) {
                std::vector<bool> in(n);
                for (uint64_t i = 0; i < n; ++i)
                    in[i] = (bits >> i) & 1;
                plans.push_back(subsetPlan(in));
            }
        } else {
            // Seeded sample of distinct proper subsets.
            Rng rng(seed);
            std::set<std::vector<bool>> chosen;
            // 2^n - 2 >= 2 here, so `sample` distinct subsets exist
            // whenever sample <= 2^n - 2; cap draws to stay bounded.
            uint64_t attempts = 0;
            while (chosen.size() < sample && attempts < sample * 16) {
                ++attempts;
                std::vector<bool> in(n);
                bool any = false, all = true;
                for (uint64_t i = 0; i < n; ++i) {
                    in[i] = rng.below(2) != 0;
                    any = any || in[i];
                    all = all && in[i];
                }
                if (!any || all)
                    continue;
                if (chosen.insert(in).second)
                    plans.push_back(subsetPlan(std::move(in)));
            }
        }
    }

    // Torn states: the drain stops mid-line at position i — everything
    // the drain wrote before i is durable, line i persists a proper
    // prefix/suffix of its words, everything later is lost.
    for (uint64_t i = 0; i < n; ++i) {
        for (uint8_t m : tornWordMasks()) {
            DrainPlan p;
            p.start = batch.start;
            p.masks.assign(i + 1, DurabilityHook::kFullLineMask);
            p.masks[i] = m;
            p.torn = true;
            plans.push_back(std::move(p));
        }
    }
    return plans;
}

std::string
encodeDrainMasks(const std::vector<uint8_t> &masks)
{
    static const char *digits = "0123456789abcdef";
    std::string s;
    s.reserve(masks.size() * 2);
    for (uint8_t m : masks) {
        s += digits[m >> 4];
        s += digits[m & 0xf];
    }
    return s;
}

std::vector<uint8_t>
decodeDrainMasks(const std::string &hex)
{
    auto bad = [&]() {
        return std::invalid_argument("bad drain-mask spec '" + hex +
                                     "' (expected a non-empty even-length "
                                     "hex string, two digits per event)");
    };
    if (hex.empty() || hex.size() % 2 != 0)
        throw bad();
    auto nibble = [&](char c) -> uint32_t {
        if (c >= '0' && c <= '9')
            return static_cast<uint32_t>(c - '0');
        if (c >= 'a' && c <= 'f')
            return static_cast<uint32_t>(c - 'a' + 10);
        if (c >= 'A' && c <= 'F')
            return static_cast<uint32_t>(c - 'A' + 10);
        throw bad();
    };
    std::vector<uint8_t> masks(hex.size() / 2);
    for (size_t i = 0; i < masks.size(); ++i) {
        masks[i] = static_cast<uint8_t>((nibble(hex[2 * i]) << 4) |
                                        nibble(hex[2 * i + 1]));
    }
    return masks;
}

} // namespace fault
} // namespace poat
