// Achilles reproduction -- parallel exploration subsystem.
//
// The worker pool. Each worker owns a full private solving stack -- an
// ExprContext replica, an smt::Solver and a symexec::Engine driven
// state-by-state -- plus an ExprBridge that re-homes states stolen from
// other workers. ParallelEngine wires the pool to the work-stealing
// scheduler and exposes the same surface as the serial engine: set an
// incoming message, run, get PathResults in the home context.
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
 * Creates the per-worker engine listener. Implementations translate
 * whatever shared expression data they need through wc->bridge (called
 * once per worker, before any worker thread starts) and must only touch
 * worker-local or properly synchronized state from the callbacks.
 */
class WorkerListenerFactory
{
  public:
    virtual ~WorkerListenerFactory() = default;
    virtual std::unique_ptr<symexec::Listener>
    MakeListener(WorkerContext *wc) = 0;
};

/**
 * Multi-threaded drop-in for symexec::Engine::Run.
 *
 * One-shot: construct, configure, Run() once. The instance must stay
 * alive while callers post-process worker-context data (e.g. the server
 * explorer translating Trojan definitions home through worker bridges).
 */
class ParallelEngine
{
  public:
    ParallelEngine(smt::ExprContext *home, const symexec::Program *program,
                   symexec::Mode mode, symexec::EngineConfig config,
                   smt::SolverConfig solver_config = {});

    /** Home-context symbolic message bytes served by ReceiveMessage. */
    void SetIncomingMessage(std::vector<smt::ExprRef> bytes);

    void SetListenerFactory(WorkerListenerFactory *factory)
    {
        factory_ = factory;
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
    symexec::Mode mode_;
    symexec::EngineConfig config_;
    smt::SolverConfig solver_config_;
    WorkerListenerFactory *factory_ = nullptr;
    std::vector<smt::ExprRef> incoming_;

    std::mutex home_mutex_;
    std::unique_ptr<WorkStealingScheduler> scheduler_;
    std::vector<std::unique_ptr<WorkerContext>> workers_;
    std::vector<std::unique_ptr<symexec::Listener>> listeners_;
    std::atomic<size_t> finished_paths_{0};
    obs::CounterView stats_;
    bool ran_ = false;
};

/**
 * Listener-less exploration dispatch: the serial engine (using the
 * caller's solver) for num_workers <= 1, the ParallelEngine otherwise.
 * Engine stats are merged into `stats`. Shared by the classic-SE
 * baseline and client predicate extraction.
 */
std::vector<symexec::PathResult> RunExploration(
    smt::ExprContext *ctx, smt::Solver *solver,
    const symexec::Program *program, symexec::Mode mode,
    const symexec::EngineConfig &config,
    std::vector<smt::ExprRef> incoming, obs::CounterView *stats);

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_WORKER_H_
