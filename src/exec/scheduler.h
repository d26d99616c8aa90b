// Achilles reproduction -- parallel exploration subsystem.
//
// Work-stealing state scheduler. Each worker owns a deque of pending
// execution states and serves itself depth-first from its back, as the
// serial engine's worklist does. An idle worker steals the older half
// of a victim's deque -- the shallowest states, i.e. the biggest
// unexplored subtrees -- which is the classic policy that keeps steals
// rare and batches large (Cilk-style steal-half, as used by Cloud9's
// tree-partitioned exploration).
//
// Termination detection is a single atomic count of live (unfinished)
// states: seeded and forked states increment it, finished states
// decrement it; when it reaches zero every blocked worker is released
// and Next() returns false.

#ifndef ACHILLES_EXEC_SCHEDULER_H_
#define ACHILLES_EXEC_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "symexec/engine.h"
#include "symexec/state.h"

namespace achilles {
namespace exec {

/** Per-worker deques with steal-half load balancing. */
class WorkStealingScheduler
{
  public:
    /** `max_queued_states` bounds the fresh states queued across all
     *  workers (EngineConfig::max_states). */
    WorkStealingScheduler(size_t num_workers, size_t max_queued_states);
    WorkStealingScheduler(const WorkStealingScheduler &) = delete;
    WorkStealingScheduler &operator=(const WorkStealingScheduler &) =
        delete;

    /**
     * One scheduling decision: either a single state popped from the
     * worker's own deque (owner == the worker) or a stolen batch still
     * expressed in the victim's ExprContext (owner == the victim); the
     * thief must re-home the batch before executing it.
     */
    struct Batch
    {
        std::vector<std::unique_ptr<symexec::State>> states;
        size_t owner = 0;
    };

    /** Enqueue the root state (counts as live). */
    void Seed(size_t worker, std::unique_ptr<symexec::State> state);

    /**
     * Enqueue `*state` on `worker`'s deque. `fresh` marks a newly forked
     * state (counted live, subject to the queued-state budget); re-queued
     * suspended or stolen states pass false and always succeed. Returns
     * false -- leaving `*state` untouched -- when the budget rejects a
     * fresh state; the caller then finalizes it as a limit path, like
     * the serial engine does.
     */
    bool Push(size_t worker, std::unique_ptr<symexec::State> *state,
              bool fresh);

    /**
     * Produce work for `worker`: local pop, else steal, else block until
     * work appears or the exploration completes. Returns false when all
     * states are finished or Stop() was called.
     */
    bool Next(size_t worker, Batch *out);

    /** A state previously counted live has finished. */
    void OnStateFinished();

    /** Abort the exploration (e.g. global path cap reached). */
    void Stop();
    bool stopped() const { return stop_.load(std::memory_order_acquire); }

    int64_t states_stolen() const
    {
        return stolen_.load(std::memory_order_relaxed);
    }
    int64_t steal_batches() const
    {
        return steal_batches_.load(std::memory_order_relaxed);
    }
    /** States waiting in the deques; ParallelEngine attaches it to the
     *  live view as phase 2's frontier. */
    const std::atomic<int64_t> &queued() const { return queued_; }

    /** Export scheduler counters into a registry. */
    void ExportStats(obs::CounterView *stats) const;

  private:
    struct WorkerDeque
    {
        std::mutex mutex;
        std::deque<std::unique_ptr<symexec::State>> states;
    };

    bool PopLocal(size_t worker, Batch *out);
    bool StealFrom(size_t thief, Batch *out);

    const size_t max_queued_states_;
    std::vector<std::unique_ptr<WorkerDeque>> deques_;
    std::atomic<int64_t> live_{0};
    std::atomic<int64_t> queued_{0};
    std::atomic<bool> stop_{false};
    std::atomic<int64_t> stolen_{0};
    std::atomic<int64_t> steal_batches_{0};
    std::mutex wait_mutex_;
    std::condition_variable wait_cv_;
};

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_SCHEDULER_H_
