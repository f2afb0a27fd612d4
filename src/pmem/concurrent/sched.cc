#include "pmem/concurrent/sched.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <exception>

#include "common/logging.h"

#ifdef __has_feature
#define POAT_HAS_FEATURE(x) __has_feature(x)
#else
#define POAT_HAS_FEATURE(x) 0
#endif

#if defined(__SANITIZE_ADDRESS__) || POAT_HAS_FEATURE(address_sanitizer)
#define POAT_FIBER_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#else
#define POAT_FIBER_ASAN 0
#endif

#if defined(__SANITIZE_THREAD__) || POAT_HAS_FEATURE(thread_sanitizer)
#define POAT_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#else
#define POAT_FIBER_TSAN 0
#endif

namespace poat {
namespace concurrent {

struct DetScheduler::Fiber
{
    ucontext_t ctx{};
    /** Lowest usable stack byte (the caller's: learned under ASan). */
    void *stack = nullptr;
    size_t stack_bytes = 0;
#if POAT_FIBER_ASAN
    void *fake_stack = nullptr; ///< ASan use-after-return frames
#endif
#if POAT_FIBER_TSAN
    void *tsan = nullptr;
#endif
};

namespace {

/** A fiber's stack: the reservation a thread's default stack gets. */
constexpr size_t kStackBytes = 8u << 20;

size_t
guardBytes()
{
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

/**
 * Fiber stacks released by finished runs on this host thread, reused
 * by the next run on it and unmapped when the thread exits.
 */
class StackCache
{
  public:
    StackCache() = default;
    StackCache(const StackCache &) = delete;
    StackCache &operator=(const StackCache &) = delete;

    ~StackCache()
    {
        for (void *s : free_)
            munmap(static_cast<char *>(s) - guardBytes(),
                   guardBytes() + kStackBytes);
    }

    void *
    take()
    {
        if (!free_.empty()) {
            void *s = free_.back();
            free_.pop_back();
            return s;
        }
        // Untouched pages cost nothing (MAP_NORESERVE); the PROT_NONE
        // page below the stack turns an overflow into a fault.
        void *base = mmap(nullptr, guardBytes() + kStackBytes,
                          PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                              MAP_STACK,
                          -1, 0);
        POAT_ASSERT(base != MAP_FAILED, "cannot map a fiber stack");
        const int rc = mprotect(base, guardBytes(), PROT_NONE);
        POAT_ASSERT(rc == 0, "cannot protect a fiber stack guard page");
        return static_cast<char *>(base) + guardBytes();
    }

    void
    give(void *stack)
    {
#if POAT_FIBER_ASAN
        // A finished worker never returns from its last frames, so
        // their redzones stay poisoned; the next fiber starts clean.
        ASAN_UNPOISON_MEMORY_REGION(stack, kStackBytes);
#endif
        free_.push_back(stack);
    }

  private:
    std::vector<void *> free_;
};

thread_local StackCache t_stacks;

} // namespace

DetScheduler::DetScheduler(uint64_t seed, uint32_t max_quantum)
    : seed_(seed), maxQuantum_(max_quantum == 0 ? 1 : max_quantum)
{
}

DetScheduler::~DetScheduler() = default;

void
DetScheduler::run(uint32_t nthreads,
                  const std::function<void(uint32_t)> &body)
{
    POAT_ASSERT(nthreads >= 1, "scheduler needs at least one worker");
    POAT_ASSERT(nthreads <= 4096, "worker count out of range");
    POAT_ASSERT(!running_, "DetScheduler::run is not reentrant");

    // Reseed per run: the interleaving is a function of the seed and
    // the workers' yield sequences alone, never of previous runs.
    rng_ = Rng(seed_);
    nthreads_ = nthreads;
    done_.assign(nthreads, 0);
    current_ = 0;
    quantum_ = nextQuantum();
    running_ = true;
    body_ = &body;
    // The workers inherit this thread's exception state, which may
    // already hold the caller's own (run() called from a handler).
    callerException_ = std::current_exception();
    callerUncaught_ = std::uncaught_exceptions();

    // makecontext passes int arguments only: hand `this` over in halves.
    const uintptr_t self = reinterpret_cast<uintptr_t>(this);
    fibers_.assign(nthreads + 1, Fiber{});
    for (uint32_t t = 0; t < nthreads; ++t) {
        Fiber &f = fibers_[t];
        f.stack = t_stacks.take();
        f.stack_bytes = kStackBytes;
        const int rc = getcontext(&f.ctx);
        POAT_ASSERT(rc == 0, "getcontext failed");
        f.ctx.uc_stack.ss_sp = f.stack;
        f.ctx.uc_stack.ss_size = kStackBytes;
        f.ctx.uc_link = nullptr;
        makecontext(&f.ctx, reinterpret_cast<void (*)()>(&fiberEntry), 2,
                    static_cast<unsigned>(self),
                    static_cast<unsigned>(self >> 32));
#if POAT_FIBER_TSAN
        f.tsan = __tsan_create_fiber(0);
#endif
    }
#if POAT_FIBER_TSAN
    fibers_[nthreads].tsan = __tsan_get_current_fiber();
#endif

    switchTo(nthreads, 0); // back once the last worker finishes

    for (uint32_t t = 0; t < nthreads; ++t) {
#if POAT_FIBER_TSAN
        __tsan_destroy_fiber(fibers_[t].tsan);
#endif
        t_stacks.give(fibers_[t].stack);
    }
    body_ = nullptr;
    callerException_ = nullptr;
}

void
DetScheduler::fiberEntry(unsigned lo, unsigned hi)
{
    reinterpret_cast<DetScheduler *>(
        (static_cast<uintptr_t>(hi) << 32) | lo)
        ->workerMain();
}

void
DetScheduler::workerMain() noexcept
{
    const uint32_t t = current_;
#if POAT_FIBER_ASAN
    // A fresh fiber has no fake stack to restore. Worker 0 is always
    // entered from run()'s caller: the stack it left is where the last
    // worker returns to.
    const void *from_stack = nullptr;
    size_t from_bytes = 0;
    __sanitizer_finish_switch_fiber(nullptr, &from_stack, &from_bytes);
    if (t == 0) {
        fibers_[nthreads_].stack = const_cast<void *>(from_stack);
        fibers_[nthreads_].stack_bytes = from_bytes;
    }
#endif
    // First entry: announce the switch-in (the engine emits coreSwitch
    // and selects the worker's runtime context here).
    if (handler_)
        handler_(t);

    (*body_)(t);

    done_[t] = 1;
    const uint32_t next = pickNext(t);
    if (next == nthreads_) {
        running_ = false; // last one out: resume run()'s caller
    } else {
        ++switches_;
        current_ = next;
        quantum_ = nextQuantum();
    }
    switchTo(t, next, /*exiting=*/true);
    POAT_PANIC("finished scheduler worker resumed");
}

void
DetScheduler::switchTo(uint32_t from, uint32_t to, bool exiting)
{
    Fiber &src = fibers_[from];
    Fiber &dst = fibers_[to];
#if POAT_FIBER_ASAN
    __sanitizer_start_switch_fiber(exiting ? nullptr : &src.fake_stack,
                                   dst.stack, dst.stack_bytes);
#endif
#if POAT_FIBER_TSAN
    __tsan_switch_to_fiber(dst.tsan, 0);
#endif
    (void)exiting;
    const int rc = swapcontext(&src.ctx, &dst.ctx);
#if POAT_FIBER_ASAN
    __sanitizer_finish_switch_fiber(src.fake_stack, nullptr, nullptr);
#endif
    POAT_ASSERT(rc == 0, "swapcontext failed");
}

void
DetScheduler::yield()
{
    POAT_ASSERT(running_, "yield outside a scheduler run");
    // Workers share this thread's exception state: suspended inside a
    // handler, a worker would have another worker's end-of-catch pop
    // its exception.
    POAT_ASSERT(std::current_exception() == callerException_ &&
                    std::uncaught_exceptions() == callerUncaught_,
                "yield inside a catch handler or during unwinding");
    const uint32_t t = current_;
    ++yields_;
    if (quantum_ > 1) {
        --quantum_;
        return;
    }
    const uint32_t next = pickNext(t);
    quantum_ = nextQuantum();
    if (next == t)
        return; // nobody else runnable: keep the token
    ++switches_;
    current_ = next;
    switchTo(t, next);
    // Token came back: announce the switch-in for the resumed worker.
    if (handler_)
        handler_(t);
}

uint32_t
DetScheduler::pickNext(uint32_t from)
{
    // Count runnable peers, then take the Rng-drawn one in index order
    // so the draw maps to a stable candidate.
    uint32_t n = 0;
    for (uint32_t t = 0; t < nthreads_; ++t)
        n += !done_[t] && t != from;
    if (n == 0)
        return done_[from] ? nthreads_ : from;
    uint64_t k = rng_.below(n);
    for (uint32_t t = 0;; ++t) {
        if (!done_[t] && t != from && k-- == 0)
            return t;
    }
}

} // namespace concurrent
} // namespace poat
