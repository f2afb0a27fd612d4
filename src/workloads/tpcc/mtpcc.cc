/**
 * @file
 * MTPCC workload runner and its crash driver (see mtpcc.h).
 */
#include "workloads/tpcc/mtpcc.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "workloads/crash_support.h"

namespace poat {
namespace workloads {
namespace tpcc {

TpccResult
MtpccWorkload::run(PmemRuntime &rt)
{
    // Population is single-threaded emission on core 0, exactly like
    // the sequential TPCC setup phase.
    TpccDb db(rt, placement_, scalePct_, seed_, transactions_,
              warehouses_);

    concurrent::DetScheduler sched(schedSeed_);
    concurrent::EngineOptions eo;
    eo.threads = threads_;
    eo.commit_window = commitWindow_;
    concurrent::ConcurrentEngine eng(rt, sched, eo);
    db.setEngine(&eng);

    // txn_count == 0 is a setup-only calibration run: populate, spin
    // the engine up and down, run no transactions. Benches use it to
    // subtract the single-threaded load phase from makespan cycles
    // (TPC-C throughput is a steady-state number; load time is out).
    const uint64_t per_worker = txnCount_ == 0
        ? 0
        : std::max<uint64_t>(1, txnCount_ / std::max(1u, threads_));

    TpccResult res;
    eng.run([&](uint32_t) {
        TpccResult tmp;
        for (uint64_t i = 0; i < per_worker; ++i) {
            eng.txRun([&] {
                tmp = TpccResult{};
                db.runOne(tmp);
            });
            // Merge the committed execution (cooperative: runs whole).
            res.transactions += tmp.transactions;
            res.new_orders += tmp.new_orders;
            res.remote_touches += tmp.remote_touches;
            res.payments += tmp.payments;
            res.order_statuses += tmp.order_statuses;
            res.deliveries += tmp.deliveries;
            res.stock_levels += tmp.stock_levels;
            res.rollbacks += tmp.rollbacks;
            res.checksum += tmp.checksum;
            eng.yield();
        }
    });

    db.setEngine(nullptr);
    stats_ = eng.stats();
    return res;
}

} // namespace tpcc

namespace {

/**
 * MTPCC rephrased for crash-point exploration. A "step" is one round:
 * every worker runs one transaction of the mix under a fresh
 * deterministic schedule derived from (sched_seed, round). The
 * explorer's durability freeze lands mid-round, so the recovered image
 * can hold several workers' undo logs in flight at once. Verification
 * is TPC-C's own consistency conditions (any prefix of committed
 * transactions satisfies them); like TPCC, reachability enumeration is
 * skipped.
 */
class MtpccCrashDriver final : public CrashDriver
{
  public:
    MtpccCrashDriver(uint64_t steps, uint64_t seed, uint32_t threads,
                     uint64_t sched_seed)
        : steps_(steps), seed_(seed),
          threads_(engineWorkers(threads)), schedSeed_(sched_seed)
    {}

    const char *name() const override { return "MTPCC"; }
    uint64_t steps() const override { return steps_; }

    void
    setup(PmemRuntime &rt) override
    {
        db_.emplace(rt, tpcc::Placement::All, 2 /*scale pct*/, seed_);
    }

    void
    step(PmemRuntime &rt, uint64_t round) override
    {
        // A fresh scheduler per round keeps the interleaving a pure
        // function of (sched_seed, round) no matter where the previous
        // round's schedule ended.
        concurrent::DetScheduler sched(
            schedSeed_ ^ (round * 0xd1b54a32d192ed03ull));
        concurrent::EngineOptions eo;
        eo.threads = threads_;
        eo.commit_window = 2;
        concurrent::ConcurrentEngine eng(rt, sched, eo);
        db_->setEngine(&eng);
        eng.run([&](uint32_t) {
            eng.txRun([&] {
                tpcc::TpccResult tmp;
                db_->runOne(tmp);
            });
        });
        db_->setEngine(nullptr);
        diag_.absorb(eng);
    }

    std::string diagnostics() const override { return diag_.render(); }

    bool
    verifyRecovered(PmemRuntime &, uint64_t, uint64_t,
                    std::string *why) override
    {
        if (db_->consistent())
            return true;
        if (why)
            *why = "TPC-C consistency conditions violated after "
                   "concurrent recovery";
        return false;
    }

    bool
    reachable(PmemRuntime &,
              std::map<uint32_t, std::set<uint32_t>> *) override
    {
        return false;
    }

  private:
    uint64_t steps_;
    uint64_t seed_;
    uint32_t threads_;
    uint64_t schedSeed_;
    std::optional<tpcc::TpccDb> db_;
    ConcurrentDiag diag_;
};

} // namespace

std::unique_ptr<CrashDriver>
makeMtpccCrashDriver(uint64_t steps, uint64_t seed, uint32_t threads,
                     uint64_t sched_seed)
{
    return std::make_unique<MtpccCrashDriver>(steps, seed, threads,
                                              sched_seed);
}

} // namespace workloads
} // namespace poat
