#include "pmem/concurrent/lockmgr.h"

#include <algorithm>

#include "common/logging.h"

namespace poat {
namespace concurrent {

bool
LockManager::holds(uint32_t w, uint64_t key) const
{
    auto it = held_.find(w);
    return it != held_.end() && it->second.count(key) != 0;
}

size_t
LockManager::heldCount(uint32_t w) const
{
    auto it = held_.find(w);
    return it == held_.end() ? 0 : it->second.size();
}

bool
LockManager::grantable(const LockState &ls, uint32_t w, LockMode mode) const
{
    if (ls.queue.empty() || ls.queue.front().worker != w)
        return false; // FIFO: only the head may be granted
    if (ls.holders.empty())
        return true;
    return mode == LockMode::Shared && ls.mode == LockMode::Shared;
}

void
LockManager::grant(LockState &ls, uint32_t w, LockMode mode, uint64_t key)
{
    if (ls.holders.empty())
        ls.mode = mode;
    ls.holders.push_back(w);
    held_[w].insert(key);
    ++acquisitions_;
}

void
LockManager::waitTargets(uint32_t w, std::vector<uint32_t> *out) const
{
    if (auto it = upgradeKey_.find(w); it != upgradeKey_.end()) {
        const LockState &ls = locks_.at(it->second);
        for (uint32_t h : ls.holders) {
            if (h != w)
                out->push_back(h);
        }
        return;
    }
    auto it = waitKey_.find(w);
    if (it == waitKey_.end())
        return;
    const LockState &ls = locks_.at(it->second);
    for (uint32_t h : ls.holders)
        out->push_back(h);
    for (const Waiter &q : ls.queue) {
        if (q.worker == w)
            break; // FIFO: w also waits on everyone ahead of it
        out->push_back(q.worker);
    }
}

uint32_t
LockManager::waitEdges(uint32_t w) const
{
    std::vector<uint32_t> targets;
    waitTargets(w, &targets);
    return static_cast<uint32_t>(targets.size());
}

bool
LockManager::wouldDeadlock(uint32_t w) const
{
    std::vector<uint32_t> stack;
    std::set<uint32_t> visited;
    waitTargets(w, &stack);
    while (!stack.empty()) {
        const uint32_t x = stack.back();
        stack.pop_back();
        if (x == w)
            return true;
        if (!visited.insert(x).second)
            continue;
        waitTargets(x, &stack);
    }
    return false;
}

void
LockManager::removeWaiter(uint64_t key, uint32_t w)
{
    LockState &ls = locks_[key];
    auto it = std::find_if(ls.queue.begin(), ls.queue.end(),
                           [&](const Waiter &q) { return q.worker == w; });
    POAT_ASSERT(it != ls.queue.end(), "waiter vanished from lock queue");
    ls.queue.erase(it);
    if (ls.holders.empty() && ls.queue.empty())
        locks_.erase(key);
}

void
LockManager::acquire(uint32_t w, uint64_t key, LockMode mode,
                     DetScheduler &sched)
{
    if (holds(w, key)) {
        LockState &ls = locks_[key];
        if (ls.mode == LockMode::Exclusive || mode == LockMode::Shared)
            return; // already covered
        // Shared -> Exclusive upgrade: wait (off-queue) until sole
        // holder. Going through the FIFO instead would deadlock two
        // upgraders against each other by construction.
        upgradeKey_[w] = key;
        if (sink_ && ls.holders.size() > 1)
            sink_->note({NoteKind::LockWait, {w, key, 1, waitEdges(w)}});
        while (ls.holders.size() > 1) {
            if (wouldDeadlock(w)) {
                upgradeKey_.erase(w);
                ++deadlocks_;
                if (sink_)
                    sink_->note({NoteKind::LockDeadlock, {w, key}});
                throw DeadlockAbort(w, key);
            }
            ++waits_;
            sched.yield();
        }
        upgradeKey_.erase(w);
        ls.mode = LockMode::Exclusive;
        ++acquisitions_;
        if (sink_)
            sink_->note({NoteKind::LockAcquired, {w, key, 1}});
        return;
    }

    LockState &ls = locks_[key];
    ls.queue.push_back({w, mode});
    waitKey_[w] = key;
    if (sink_ && !grantable(ls, w, mode))
        sink_->note({NoteKind::LockWait,
                      {w, key, mode == LockMode::Exclusive ? 1u : 0u,
                       waitEdges(w)}});
    while (!grantable(ls, w, mode)) {
        if (wouldDeadlock(w)) {
            waitKey_.erase(w);
            removeWaiter(key, w);
            ++deadlocks_;
            if (sink_)
                sink_->note({NoteKind::LockDeadlock, {w, key}});
            throw DeadlockAbort(w, key);
        }
        ++waits_;
        sched.yield();
    }
    waitKey_.erase(w);
    POAT_ASSERT(ls.queue.front().worker == w, "grant out of FIFO order");
    ls.queue.pop_front();
    grant(ls, w, mode, key);
    if (sink_)
        sink_->note({NoteKind::LockAcquired,
                      {w, key, mode == LockMode::Exclusive ? 1u : 0u}});
}

bool
LockManager::tryAcquire(uint32_t w, uint64_t key, LockMode mode)
{
    if (holds(w, key)) {
        LockState &ls = locks_[key];
        if (ls.mode == LockMode::Exclusive || mode == LockMode::Shared)
            return true;
        if (ls.holders.size() > 1)
            return false;
        ls.mode = LockMode::Exclusive;
        ++acquisitions_;
        if (sink_)
            sink_->note({NoteKind::LockAcquired, {w, key, 1}});
        return true;
    }
    auto it = locks_.find(key);
    if (it == locks_.end() || (it->second.queue.empty() &&
                               (it->second.holders.empty() ||
                                (mode == LockMode::Shared &&
                                 it->second.mode == LockMode::Shared)))) {
        LockState &ls = locks_[key];
        grant(ls, w, mode, key);
        if (sink_)
            sink_->note({NoteKind::LockAcquired,
                          {w, key, mode == LockMode::Exclusive ? 1u : 0u}});
        return true;
    }
    return false;
}

void
LockManager::release(uint32_t w, uint64_t key)
{
    auto held_it = held_.find(w);
    POAT_ASSERT(held_it != held_.end() && held_it->second.count(key),
                "release of a lock not held");
    held_it->second.erase(key);

    LockState &ls = locks_[key];
    auto it = std::find(ls.holders.begin(), ls.holders.end(), w);
    POAT_ASSERT(it != ls.holders.end(), "holder missing from lock state");
    ls.holders.erase(it);
    if (ls.holders.empty() && ls.queue.empty())
        locks_.erase(key);
    if (sink_)
        sink_->note({NoteKind::LockReleased, {w, key}});
    // Waiters poll on their next resume; no handoff needed here.
}

void
LockManager::releaseAll(uint32_t w)
{
    auto it = held_.find(w);
    if (it == held_.end())
        return;
    // Copy: release() mutates the held set.
    const std::vector<uint64_t> keys(it->second.begin(), it->second.end());
    for (uint64_t key : keys)
        release(w, key);
    held_.erase(w);
}

} // namespace concurrent
} // namespace poat
