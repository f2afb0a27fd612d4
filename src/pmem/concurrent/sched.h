/**
 * @file
 * Cooperative scheduling for concurrent persistent transactions.
 *
 * The simulator is a sequential timing model: it consumes ONE dynamic
 * instruction stream, with TraceSink::coreSwitch records selecting the
 * core each instruction retires on. Concurrency therefore runs under a
 * cooperative scheduler that serializes workers — exactly one worker
 * executes at any instant, and control transfers only at explicit
 * yield points (lock waits, transaction boundaries, workload
 * checkpoints). The interleaving is a pure function of the scheduler
 * seed and the workers' yield sequences, so multi-core runs replay
 * bit-for-bit: same seed, same schedule, same trace, same stats.
 *
 * Workers are stackful fibers (ucontext) on the thread that calls
 * DetScheduler::run(): a control transfer is a user-space register
 * swap, with no OS thread, lock, or wake-up behind it. Each fiber gets
 * the reservation a thread's default stack would — 8 MB mapped
 * MAP_NORESERVE, so only touched pages cost memory — over a PROT_NONE
 * guard page, so an overflow faults instead of corrupting a neighbour.
 * Finished runs hand their stacks to a per-host-thread cache that the
 * next run on that thread reuses, because crash drivers build a
 * scheduler per round and would otherwise map, guard and unmap a stack
 * per worker per round. Schedulers on different host threads (parallel
 * sweeps and crash trials) share nothing.
 *
 * Workers share their host thread's C++ exception state, so a worker
 * must not yield inside a catch handler of its own or while an
 * exception it threw unwinds: another worker's end-of-catch would pop
 * the suspended worker's exception. yield() asserts that the state is
 * still what run()'s caller had, so run() itself may be called from
 * inside a handler.
 */
#ifndef POAT_PMEM_CONCURRENT_SCHED_H
#define POAT_PMEM_CONCURRENT_SCHED_H

#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace poat {
namespace concurrent {

/**
 * Deterministic preempting-at-yield scheduler over fibers.
 *
 * One token circulates; a worker runs until its quantum (a seeded
 * pseudo-random number of yield points) expires, then hands the token
 * to a pseudo-randomly chosen runnable peer. Nothing outside the
 * workers' own yield sequences can perturb the interleaving, so the
 * instruction stream they emit is a pure function of (seed, yield
 * sequence).
 */
class DetScheduler
{
  public:
    /**
     * @param seed the interleaving seed (`tSEED` in reproducers).
     * @param max_quantum most yield points a worker runs between
     *        switches (quantum is drawn uniformly from [1, max]).
     */
    explicit DetScheduler(uint64_t seed, uint32_t max_quantum = 8);
    ~DetScheduler();

    DetScheduler(const DetScheduler &) = delete;
    DetScheduler &operator=(const DetScheduler &) = delete;

    /**
     * Run @p body(t) for every worker t in [0, nthreads) to
     * completion on the calling thread, interleaved at yield points.
     * The switch handler (if set) fires in the incoming worker's
     * context on every control transfer, including each worker's
     * first entry — that is where the engine emits
     * TraceSink::coreSwitch and flips the runtime's worker context.
     * An exception escaping @p body terminates the process.
     */
    void run(uint32_t nthreads, const std::function<void(uint32_t)> &body);

    /**
     * A yield point: the scheduler may transfer control to another
     * runnable worker. Only call from inside a body passed to run(),
     * and never inside a catch handler the body entered or while an
     * exception the body threw unwinds.
     */
    void yield();

    /** Worker id of the currently running body. */
    uint32_t self() const { return current_; }

    /** Install @p handler (may be empty) for switch notifications. */
    void
    setSwitchHandler(std::function<void(uint32_t)> handler)
    {
        handler_ = std::move(handler);
    }

    /** Control transfers performed so far (worker-to-worker). */
    uint64_t switches() const { return switches_; }

    /** Yield points observed (whether or not they switched). */
    uint64_t yields() const { return yields_; }

    uint64_t seed() const { return seed_; }

  private:
    /** One execution context: a worker, or (last) run()'s caller. */
    struct Fiber;

    static void fiberEntry(unsigned lo, unsigned hi);

    /** A worker's whole life: first switch-in, body, hand-off. */
    void workerMain() noexcept;

    /**
     * Save the running context into fibers_[@p from] and resume
     * fibers_[@p to]. @p exiting marks a finished worker that is never
     * resumed.
     */
    void switchTo(uint32_t from, uint32_t to, bool exiting = false);

    /** Next runnable worker other than @p from; nthreads_ if none. */
    uint32_t pickNext(uint32_t from);

    uint32_t nextQuantum() { return 1 + static_cast<uint32_t>(
                                      rng_.below(maxQuantum_)); }

    const uint64_t seed_;
    const uint32_t maxQuantum_;

    std::function<void(uint32_t)> handler_;
    const std::function<void(uint32_t)> *body_ = nullptr;
    Rng rng_{0};
    uint32_t nthreads_ = 0;
    uint32_t current_ = 0; ///< token holder (valid while running_)
    uint32_t quantum_ = 0; ///< yield points left in the current slice
    bool running_ = false;
    /** run()'s caller's exception state; a yielding worker must see it. */
    std::exception_ptr callerException_;
    int callerUncaught_ = 0;
    std::vector<uint8_t> done_;
    std::vector<Fiber> fibers_; ///< nthreads_ workers, then the caller
    uint64_t switches_ = 0;
    uint64_t yields_ = 0;
};

} // namespace concurrent
} // namespace poat

#endif // POAT_PMEM_CONCURRENT_SCHED_H
