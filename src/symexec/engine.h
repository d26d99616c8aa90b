// Achilles reproduction -- symbolic execution engine.
//
// The forking interpreter. Executes a DSL program over symbolic state,
// forking at feasible symbolic branches (feasibility decided by the SMT
// solver), and produces one PathResult per finished path. A Listener
// lets the Achilles core hook branch events (to prune states that can no
// longer accept Trojan messages) and accept events (to emit Trojans), as
// described in Section 3.2 / Figure 7 of the paper.

#ifndef ACHILLES_SYMEXEC_ENGINE_H_
#define ACHILLES_SYMEXEC_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "smt/solver.h"
#include "symexec/program.h"
#include "symexec/state.h"

namespace achilles {
namespace symexec {

/** Execution mode: which side of the protocol is being analyzed. */
enum class Mode : uint8_t {
    kClient,  ///< capture sent messages; ReadInput is the symbolic source
    kServer,  ///< feed a symbolic message; classify accept/reject
};

/** Engine tunables. */
struct EngineConfig
{
    /** Stop a client path at its first SendMessage (the paper analyzes
     *  one message per path). */
    bool stop_client_after_send = true;
    size_t max_states = 1 << 20;
    size_t max_steps_per_state = 1 << 16;
    size_t max_finished_paths = 1 << 20;
    /**
     * Number of exploration workers. Only the server exploration reads
     * it: 1 (the default) runs this engine's serial worklist, and values
     * > 1 make ServerExplorer run phase 2 on the exec::ParallelEngine
     * work-stealing pool. Client extraction and classic SE always run
     * one serial engine.
     */
    size_t num_workers = 1;
    /**
     * Derive child state ids from the fork tree (hash of parent id and
     * per-state fork sequence) instead of a creation counter. Tree ids
     * are independent of exploration schedule, which is what lets a
     * parallel run order its results deterministically. Only
     * exec::ParallelEngine sets it, on its worker engines: serial runs
     * keep the dense creation-counter ids.
     */
    bool deterministic_state_ids = false;
    /**
     * Error-reply classification (the paper's "4xx status code"
     * extension of the default accept/reject rule): a server reply
     * whose first byte is concretely one of these values counts as an
     * error signal, not an acceptance.
     */
    std::vector<uint8_t> error_reply_codes;
    /**
     * Observability sinks (src/obs/obs.h). With a registry the engine
     * bumps live per-lane exploration counters (engine.steps) and, on
     * lane 0, publishes an engine.frontier gauge over its worklist; with
     * a tracer every AdvanceState records one span on the lane's track.
     * Default-off: a single inert-handle branch per step.
     */
    obs::ObsHandle obs;
};

/** Exploration counters. Only the engine's own thread writes them. */
struct EngineStats
{
    int64_t instructions = 0;
    int64_t states_created = 0;
    int64_t forks = 0;
    int64_t paths_finished = 0;
    int64_t finished_path_drops = 0;
    int64_t state_budget_drops = 0;
    int64_t listener_pruned = 0;
    int64_t sends = 0;
    int64_t error_replies = 0;
    int64_t symbolic_inputs = 0;
    int64_t make_symbolic = 0;
    int64_t oob_reads = 0;
    int64_t oob_writes = 0;
    int64_t symbolic_index_reads = 0;
    int64_t symbolic_index_writes = 0;

    /** The one place these counters are named ("engine.*"). */
    void AddTo(obs::CounterView *view) const;
};

/** Summary of one finished execution path. */
struct PathResult
{
    uint64_t state_id = 0;
    PathOutcome outcome = PathOutcome::kRunning;
    std::vector<smt::ExprRef> constraints;
    std::vector<SentMessage> sent;
    std::string accept_label;
    size_t depth = 0;
};

/** Hook interface for the Achilles core (and tests). */
class Listener
{
  public:
    virtual ~Listener() = default;

    /**
     * A state just took a branch, appending `constraint` to its path
     * condition. Return false to kill the state (prune the subtree).
     */
    virtual bool
    OnBranch(State &state, smt::ExprRef constraint)
    {
        (void)state;
        (void)constraint;
        return true;
    }

    /**
     * A path reached accepting classification. Fires during
     * finalization, after the finished-path budget admits the path, so
     * listeners never act on paths the budget drops.
     */
    virtual void OnAccept(State &state) { (void)state; }
};

/**
 * The symbolic execution engine.
 *
 * One Engine instance explores one program in one mode. The incoming
 * message variables (server mode) are created once per Run so that every
 * path constrains the same message variables -- the property the Trojan
 * difference computation relies on.
 */
class Engine
{
  public:
    Engine(smt::ExprContext *ctx, smt::Solver *solver,
           const Program *program, Mode mode, EngineConfig config = {});
    ~Engine();

    /** Provide the symbolic message bytes served by ReceiveMessage. */
    void SetIncomingMessage(std::vector<smt::ExprRef> bytes);
    const std::vector<smt::ExprRef> &incoming_message() const
    {
        return incoming_;
    }

    void SetListener(Listener *listener) { listener_ = listener; }

    /** Explore all paths; returns results for every finished path. */
    std::vector<PathResult> Run();

    // -- Stepping interface (used by exec::ParallelEngine workers) -----
    //
    // A worker drives one Engine instance over states it does not keep
    // in the engine: MakeInitialState() creates the root, AdvanceState()
    // runs one state until it forks or finishes, TakeResults() collects
    // the finished paths afterwards. Run() is implemented on top of the
    // same primitives.

    /** Create the entry state (id 0 when deterministic ids are on). */
    std::unique_ptr<State> MakeInitialState();

    /**
     * Run `state` until it forks (children in `spawned`), finishes, or
     * hits the per-state step budget. Returns true iff it finished.
     */
    bool AdvanceState(State &state,
                      std::vector<std::unique_ptr<State>> *spawned);

    /** Finish a state as kLimit (state budget exhausted at a fork). */
    void
    FinalizeLimit(State &state)
    {
        ++stats_.state_budget_drops;
        FinalizePath(state, PathOutcome::kLimit);
    }

    /** Move the finished-path results out of the engine. */
    std::vector<PathResult>
    TakeResults()
    {
        return std::move(results_);
    }

    /**
     * Install a global admission check consulted before a path is
     * finalized (records + listener notification). Overrides the
     * engine-local max_finished_paths check; the parallel engine uses it
     * to enforce the path cap across all workers.
     */
    void SetFinalizeGate(std::function<bool()> gate)
    {
        finalize_gate_ = std::move(gate);
    }

    /** The engine's counters as a name -> value view. */
    obs::CounterView stats() const { return obs::ViewOf(stats_); }

  private:
    smt::ExprRef EvalExpr(State &state, const DExprRef &e);
    smt::ExprRef ReadArrayCell(State &state, ArrayObject &array,
                               smt::ExprRef index);
    void ExecuteStep(State &state,
                     std::vector<std::unique_ptr<State>> *spawned);
    void FinalizePath(State &state, PathOutcome outcome);
    /** Verdict of the state's path ∧ `extra`; kUnknown counts as
     *  feasible, and only kSat sets the extended path's path_sat(). */
    smt::CheckResult Feasible(const State &state, smt::ExprRef extra);
    uint64_t NextChildId(State &parent);

    smt::ExprContext *ctx_;
    smt::Solver *solver_;
    const Program *program_;
    Mode mode_;
    EngineConfig config_;
    Listener *listener_ = nullptr;
    std::vector<smt::ExprRef> incoming_;
    uint32_t entry_func_ = 0;
    /** Depth-first: Run pops the most recently pushed state. */
    std::vector<std::unique_ptr<State>> worklist_;
    std::vector<PathResult> results_;
    uint64_t next_state_id_ = 0;
    std::function<bool()> finalize_gate_;
    EngineStats stats_;
    /** Live obs instruments (inert when config_.obs is unset). */
    obs::MetricsRegistry::Counter obs_steps_;
    obs::MetricsRegistry::Counter obs_forks_;
    /** Serial-run frontier size, read by the lane-0 gauge from the
     *  heartbeat's sampler thread. */
    std::atomic<int64_t> frontier_{0};
};

}  // namespace symexec
}  // namespace achilles

#endif  // ACHILLES_SYMEXEC_ENGINE_H_
