// Achilles reproduction -- parallel exploration subsystem.

#include "exec/scheduler.h"

#include <chrono>

namespace achilles {
namespace exec {

WorkStealingScheduler::WorkStealingScheduler(size_t num_workers,
                                             size_t max_queued_states)
    : max_queued_states_(max_queued_states)
{
    ACHILLES_CHECK(num_workers >= 1, "need at least one worker");
    deques_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i)
        deques_.push_back(std::make_unique<WorkerDeque>());
}

void
WorkStealingScheduler::Seed(size_t worker,
                            std::unique_ptr<symexec::State> state)
{
    live_.fetch_add(1, std::memory_order_acq_rel);
    {
        std::lock_guard<std::mutex> lock(deques_[worker]->mutex);
        deques_[worker]->states.push_back(std::move(state));
        queued_.fetch_add(1, std::memory_order_acq_rel);
    }
    wait_cv_.notify_one();
}

bool
WorkStealingScheduler::Push(size_t worker,
                            std::unique_ptr<symexec::State> *state,
                            bool fresh)
{
    if (fresh) {
        if (queued_.load(std::memory_order_acquire) >= max_queued_states_)
            return false;
        live_.fetch_add(1, std::memory_order_acq_rel);
    }
    {
        // Count the state under the deque lock: a thief decrements
        // under the same lock, so the unsigned count can never wrap
        // below zero and make the budget check above reject a fork.
        std::lock_guard<std::mutex> lock(deques_[worker]->mutex);
        deques_[worker]->states.push_back(std::move(*state));
        queued_.fetch_add(1, std::memory_order_acq_rel);
    }
    wait_cv_.notify_one();
    return true;
}

bool
WorkStealingScheduler::PopLocal(size_t worker, Batch *out)
{
    WorkerDeque &dq = *deques_[worker];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.states.empty())
        return false;
    out->states.clear();
    out->states.push_back(std::move(dq.states.back()));
    dq.states.pop_back();
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    out->owner = worker;
    return true;
}

bool
WorkStealingScheduler::StealFrom(size_t thief, Batch *out)
{
    const size_t n = deques_.size();
    for (size_t hop = 1; hop < n; ++hop) {
        const size_t victim = (thief + hop) % n;
        WorkerDeque &dq = *deques_[victim];
        std::lock_guard<std::mutex> lock(dq.mutex);
        const size_t available = dq.states.size();
        if (available == 0)
            continue;
        // Steal the older half: the shallowest states and therefore the
        // largest unexplored subtrees, so one steal lasts a while.
        const size_t take = (available + 1) / 2;
        out->states.clear();
        out->states.reserve(take);
        for (size_t i = 0; i < take; ++i) {
            out->states.push_back(std::move(dq.states.front()));
            dq.states.pop_front();
        }
        out->owner = victim;
        queued_.fetch_sub(take, std::memory_order_acq_rel);
        stolen_.fetch_add(static_cast<int64_t>(take),
                          std::memory_order_relaxed);
        steal_batches_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

bool
WorkStealingScheduler::Next(size_t worker, Batch *out)
{
    for (;;) {
        if (stop_.load(std::memory_order_acquire))
            return false;
        if (PopLocal(worker, out))
            return true;
        if (StealFrom(worker, out))
            return true;
        if (live_.load(std::memory_order_acquire) == 0) {
            wait_cv_.notify_all();
            return false;
        }
        // Nothing to run but states are still in flight on other
        // workers (they may fork). Block until something is pushed or
        // the exploration drains; the timeout guards the unlikely
        // missed-wakeup window between the checks above and the wait.
        std::unique_lock<std::mutex> lock(wait_mutex_);
        wait_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

void
WorkStealingScheduler::OnStateFinished()
{
    if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        wait_cv_.notify_all();
}

void
WorkStealingScheduler::Stop()
{
    stop_.store(true, std::memory_order_release);
    wait_cv_.notify_all();
}

void
WorkStealingScheduler::ExportStats(obs::CounterView *stats) const
{
    stats->Add("exec.states_stolen", states_stolen());
    stats->Add("exec.steal_batches", steal_batches());
}

}  // namespace exec
}  // namespace achilles
