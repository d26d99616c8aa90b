// Achilles reproduction -- parallel exploration subsystem.
//
// The worker pool of the server exploration (phase 2, the only phase
// that runs on threads). Each worker owns a full private solving stack
// -- an ExprContext replica, an smt::Solver and a server-mode
// symexec::Engine driven state-by-state -- plus an ExprBridge that
// re-homes states stolen from other workers. ParallelEngine wires the
// pool to the work-stealing scheduler and exposes the same surface as
// the serial engine: set an incoming message and a listener per
// worker, run, get PathResults in the home context.
//
// Determinism: worker engines derive state ids from the fork tree
// (schedule-independent), contexts are variable-id-aligned, expression
// canonicalization and solver assertion ordering are structural, so the
// merged results -- ordered by state id -- are identical for any worker
// count and any steal interleaving. Every verdict and model comes from
// the worker thread's SAT instance, Reset before each query to the state
// of a newly constructed one, so it is a pure function of the
// canonicalized query and no worker's query history can move a witness
// byte.

#ifndef ACHILLES_EXEC_WORKER_H_
#define ACHILLES_EXEC_WORKER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/expr_transfer.h"
#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "smt/solver.h"
#include "symexec/engine.h"

namespace achilles {
namespace exec {

/** One worker's private solving stack. */
struct WorkerContext
{
    size_t worker_id = 0;
    smt::ExprContext ctx;
    std::unique_ptr<ExprBridge> bridge;
    std::unique_ptr<smt::Solver> solver;
    std::unique_ptr<symexec::Engine> engine;
    /** Worker-context replicas of the home incoming-message bytes. */
    std::vector<smt::ExprRef> incoming;
};

/**
 * Multi-threaded drop-in for a server-mode symexec::Engine::Run.
 *
 * One-shot: construct, configure, Run() once. The instance must stay
 * alive while callers post-process worker-context data (e.g. the server
 * explorer translating Trojan definitions home through worker bridges).
 */
class ParallelEngine
{
  public:
    ParallelEngine(smt::ExprContext *home, const symexec::Program *program,
                   symexec::EngineConfig config,
                   smt::SolverConfig solver_config = {});

    /** Home-context symbolic message bytes served by ReceiveMessage. */
    void SetIncomingMessage(std::vector<smt::ExprRef> bytes);

    /**
     * Attach one listener per worker engine. Run calls `factory` once
     * per worker, in worker order and before any worker thread starts;
     * it translates whatever shared expression data it needs through
     * wc->bridge and returns a listener the caller owns and keeps alive
     * until Run returns. The listener's callbacks run on that worker's
     * thread and must only touch worker-local or properly synchronized
     * state.
     */
    void
    SetListenerFactory(
        std::function<symexec::Listener *(WorkerContext *wc)> factory)
    {
        factory_ = std::move(factory);
    }

    /**
     * Explore all paths with num_workers threads; returns one PathResult
     * per finished path, expressed in the home context and ordered by
     * (schedule-independent) state id.
     */
    std::vector<symexec::PathResult> Run();

    /** Every worker engine's and solver's counters plus the
     *  scheduler's exports, merged after the join. */
    const obs::CounterView &stats() const { return stats_; }

    size_t num_workers() const { return workers_.size(); }
    WorkerContext &worker(size_t i) { return *workers_[i]; }

  private:
    void WorkerLoop(size_t worker_id);

    smt::ExprContext *home_;
    const symexec::Program *program_;
    symexec::EngineConfig config_;
    smt::SolverConfig solver_config_;
    std::function<symexec::Listener *(WorkerContext *wc)> factory_;
    std::vector<smt::ExprRef> incoming_;

    std::mutex home_mutex_;
    std::unique_ptr<WorkStealingScheduler> scheduler_;
    std::vector<std::unique_ptr<WorkerContext>> workers_;
    std::atomic<size_t> finished_paths_{0};
    obs::CounterView stats_;
    bool ran_ = false;
};

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_WORKER_H_
