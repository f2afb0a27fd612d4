#include "driver/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "trace_io/itrace.h"

namespace poat {
namespace driver {

namespace {

/** Gate of a submission that waits for no capture. */
constexpr size_t kNoGate = SIZE_MAX;

/** Outcome of a run, as the replays gated on it see it. */
enum class CaptureState : uint8_t
{
    Pending,
    Published,
    Failed,
};

/**
 * For each submission, the index of the earlier submission whose trace
 * capture it must wait for (kNoGate: none). The first submission of
 * each cache path whose trace is not on disk yet captures it; the
 * path's later submissions wait for that capture, then replay its file.
 * A capture never waits, and runTasks claims it before its replays, so
 * some worker always makes progress.
 */
std::vector<size_t>
planCaptureGates(const std::vector<ExperimentConfig> &configs)
{
    std::vector<size_t> gates(configs.size(), kNoGate);
    std::unordered_map<std::string, size_t> capture_of;
    for (size_t i = 0; i < configs.size(); ++i) {
        const ExperimentConfig &cfg = configs[i];
        if (!cfg.timing || cfg.trace_cache.empty())
            continue;
        const std::string path = traceCachePath(cfg);
        if (trace_io::TraceReplayer::matches(path, traceFingerprint(cfg)))
            continue; // already on disk: replay right away
        const auto [it, inserted] = capture_of.emplace(path, i);
        if (!inserted)
            gates[i] = it->second;
    }
    return gates;
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
    const std::vector<size_t> gates = planCaptureGates(configs);
    std::vector<ExperimentResult> results(n);
    std::vector<CaptureState> states(n, CaptureState::Pending);
    std::mutex mu;
    std::condition_variable cv;
    size_t finished = 0;

    auto publish = [&](size_t i, CaptureState outcome) {
        {
            std::lock_guard<std::mutex> lock(mu);
            states[i] = outcome;
            ++finished;
            if (opts.progress)
                opts.progress(finished, n);
        }
        cv.notify_all();
    };

    runTasks(n, opts.jobs, [&](size_t i) {
        const ExperimentConfig &cfg = configs[i];
        bool capture_failed = false;
        if (gates[i] != kNoGate) {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] {
                return states[gates[i]] != CaptureState::Pending;
            });
            capture_failed = states[gates[i]] == CaptureState::Failed;
        }
        try {
            // A failed capture's exception is the one the sweep
            // rethrows; still produce a correct result here.
            results[i] = capture_failed ? detail::runExperimentLive(cfg)
                                        : runExperiment(cfg);
        } catch (...) {
            publish(i, CaptureState::Failed);
            throw;
        }
        publish(i, CaptureState::Published);
    });
    return results;
}

} // namespace driver
} // namespace poat
