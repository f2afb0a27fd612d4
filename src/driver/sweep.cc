#include "driver/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "trace_io/itrace.h"

namespace poat {
namespace driver {

namespace {

/**
 * How one submission interacts with the trace cache. The sweep groups
 * submissions by functional fingerprint: the first submission of each
 * group captures the instruction stream, the rest replay it — but a
 * replay must not start before its capture has published the file, so
 * the parallel executor gates dependents on the capture's completion.
 */
struct TracePlan
{
    enum Action : uint8_t
    {
        kLive,        ///< no caching for this config
        kCapture,     ///< run live and record the trace
        kReplayReady, ///< a matching file already exists on disk
        kReplayAfter, ///< replay once the capture at `capture` is done
    };

    Action action = kLive;
    size_t capture = SIZE_MAX; ///< gating index for kReplayAfter
    std::string path;
};

/** Capture progress, observed by gated replays. */
enum class CaptureState : uint8_t
{
    Pending,
    Published,
    Failed,
};

std::vector<TracePlan>
planTraceCache(const std::vector<ExperimentConfig> &configs)
{
    std::vector<TracePlan> plans(configs.size());
    std::unordered_map<std::string, size_t> capture_of;
    for (size_t i = 0; i < configs.size(); ++i) {
        const ExperimentConfig &cfg = configs[i];
        if (!cfg.timing || cfg.trace_cache.empty())
            continue;
        TracePlan &p = plans[i];
        p.path = traceCachePath(cfg);
        if (trace_io::TraceReplayer::matches(p.path,
                                             traceFingerprint(cfg))) {
            p.action = TracePlan::kReplayReady;
            continue;
        }
        const auto [it, inserted] = capture_of.emplace(p.path, i);
        if (inserted) {
            p.action = TracePlan::kCapture;
        } else {
            p.action = TracePlan::kReplayAfter;
            p.capture = it->second;
        }
    }
    return plans;
}

} // namespace

unsigned
defaultSweepJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
sweepWorkers(unsigned jobs, size_t tasks)
{
    const size_t want = jobs ? jobs : defaultSweepJobs();
    return static_cast<unsigned>(std::min<size_t>(
        {want, std::max<size_t>(tasks, 1), size_t{kMaxSweepJobs}}));
}

void
runTasks(size_t count, unsigned jobs, const std::function<void(size_t)> &fn)
{
    jobs = sweepWorkers(jobs, count);

    if (jobs <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::mutex mu;
    size_t next_index = 0;
    size_t first_error_index = SIZE_MAX;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (;;) {
            size_t i;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (next_index >= count)
                    return;
                i = next_index++;
            }
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (i < first_error_index) {
                    first_error_index = i;
                    first_error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &configs,
         const SweepOptions &opts)
{
    const size_t n = configs.size();
    std::vector<ExperimentResult> results;
    results.reserve(n);

    const unsigned jobs = sweepWorkers(opts.jobs, n);

    if (jobs <= 1) {
        // Inline serial path: byte-identical to a runExperiment loop.
        // Trace-cache grouping falls out naturally: the first run of a
        // fingerprint captures, later runs find the file and replay.
        for (size_t i = 0; i < n; ++i) {
            results.push_back(runExperiment(configs[i]));
            if (opts.progress)
                opts.progress(i, n, configs[i], results.back());
        }
        return results;
    }

    // One slot per config; workers fill slots in any order, the calling
    // thread consumes them strictly in submission order.
    struct Slot
    {
        ExperimentResult result;
        std::exception_ptr error;
        bool done = false;
    };
    std::vector<Slot> slots(n);
    std::mutex mu;
    std::condition_variable cv;
    size_t next_index = 0; // next config a worker should claim

    // Trace-cache plan: replays of a fingerprint group wait until the
    // group's capture (always the lowest submission index, hence
    // claimed first) has published its file. Captures never wait, so
    // some worker always makes progress.
    const std::vector<TracePlan> plans = planTraceCache(configs);
    std::vector<CaptureState> captures(n, CaptureState::Pending);

    auto runPlanned = [&](size_t i) -> ExperimentResult {
        const TracePlan &plan = plans[i];
        const ExperimentConfig &cfg = configs[i];
        switch (plan.action) {
        case TracePlan::kLive:
            return detail::runExperimentUnobserved(cfg);
        case TracePlan::kCapture:
            try {
                ExperimentResult r =
                    detail::runExperimentCaptured(cfg, plan.path);
                {
                    std::lock_guard<std::mutex> lock(mu);
                    captures[i] = CaptureState::Published;
                }
                cv.notify_all();
                return r;
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    captures[i] = CaptureState::Failed;
                }
                cv.notify_all();
                throw;
            }
        case TracePlan::kReplayReady:
            try {
                return detail::runExperimentReplayed(cfg, plan.path);
            } catch (const std::runtime_error &e) {
                // Pre-existing file failed full validation: recapture,
                // exactly as the serial path would, once out of the
                // handler.
                std::fprintf(stderr, "trace-cache: %s; recapturing\n",
                             e.what());
            }
            return detail::runExperimentCaptured(cfg, plan.path);
        case TracePlan::kReplayAfter: {
            CaptureState state;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] {
                    return captures[plan.capture] !=
                        CaptureState::Pending;
                });
                state = captures[plan.capture];
            }
            if (state == CaptureState::Published)
                return detail::runExperimentReplayed(cfg, plan.path);
            // The capture failed and its exception will be the one the
            // sweep rethrows; still produce a correct result here.
            return detail::runExperimentLive(cfg);
        }
        }
        return detail::runExperimentUnobserved(cfg); // unreachable
    };

    auto worker = [&] {
        for (;;) {
            size_t i;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (next_index >= n)
                    return;
                i = next_index++;
            }
            Slot filled;
            try {
                // Observer + progress fire later, on the calling
                // thread, in submission order.
                filled.result = runPlanned(i);
            } catch (...) {
                filled.error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mu);
                slots[i] = std::move(filled);
                slots[i].done = true;
            }
            cv.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);

    // Consume slots in submission order, firing the observer and the
    // progress callback exactly as a serial loop would have.
    std::exception_ptr first_error;
    for (size_t i = 0; i < n && !first_error; ++i) {
        Slot slot;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return slots[i].done; });
            slot = std::move(slots[i]);
        }
        if (slot.error) {
            first_error = slot.error;
            break;
        }
        detail::notifyExperimentObserver(configs[i], slot.result);
        results.push_back(std::move(slot.result));
        if (opts.progress)
            opts.progress(i, n, configs[i], results.back());
    }

    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

} // namespace driver
} // namespace poat
