// Achilles reproduction -- core library.
//
// Phase 2 of Achilles: explore the server on an unconstrained symbolic
// message while incrementally searching for Trojan messages (paper
// Sections 3.2-3.3, Figure 7).
//
// For every execution state the explorer tracks the set of client path
// predicates whose messages can still trigger it. At each symbolic
// branch it:
//   1. re-checks which client predicates still match (dropping the rest,
//      transitively via the differentFrom matrix for independent-field
//      branches), and
//   2. checks whether the state can still be triggered by any Trojan
//      message (pathS ∧ negate(pathC_i) for the still-live i); if not,
//      the state is pruned from the exploration.
// When a state reaches accepting classification, the Trojan query is
// satisfiable by construction; its model is emitted as a concrete Trojan
// witness together with the defining symbolic expression.

#ifndef ACHILLES_CORE_SERVER_EXPLORER_H_
#define ACHILLES_CORE_SERVER_EXPLORER_H_

#include <string>
#include <vector>

#include "core/different_from.h"
#include "core/message.h"
#include "core/negate.h"
#include "core/path_predicate.h"
#include "obs/metrics.h"
#include "smt/solver.h"
#include "support/timer.h"
#include "symexec/engine.h"

namespace achilles {
namespace exec {
class ExprBridge;
struct WorkerContext;
}  // namespace exec

namespace core {

/** How Trojan messages are computed relative to the exploration. */
enum class SearchMode : uint8_t
{
    /** The paper's Achilles: incremental checks + pruning during the
     *  server exploration. */
    kIncremental,
    /** Section 6.4 baseline: plain symbolic execution first, Trojan
     *  differencing a posteriori on every accepting path. */
    kAPosteriori,
};

/** Explorer tunables (each optimization can be ablated independently). */
struct ServerExplorerConfig
{
    symexec::EngineConfig engine;
    SearchMode mode = SearchMode::kIncremental;
    /** Drop client predicates that stop matching a state (3.3, opt 1). */
    bool drop_client_predicates = true;
    /** Use the differentFrom matrix on independent-field branches
     *  (3.3, opt 2). */
    bool use_different_from = true;
    /** Prune states that no Trojan message can trigger (3.2). */
    bool prune_trojan_free_states = true;
};

/** A discovered Trojan message. */
struct TrojanWitness
{
    /**
     * Id of the server path (engine state) that accepts it. Serial runs
     * number states by the engine's creation counter; parallel runs use
     * fork-tree ids (EngineConfig::deterministic_state_ids, set only by
     * exec/worker.cc). The same witness therefore has different ids at 1
     * and at N > 1 workers: compare across worker counts without it.
     */
    uint64_t server_path_id = 0;
    /** Label of the accept marker (or "" for the default rule). */
    std::string accept_label;
    /** Defining constraint set: server path condition + negations. */
    std::vector<smt::ExprRef> definition;
    /** A concrete example message (paper: emitted for fault injection). */
    std::vector<uint8_t> concrete;
    /** Variable ids of the message bytes the definition constrains
     *  (index == byte offset); lets callers re-solve the definition
     *  with extra pins or enumerate further Trojans. */
    std::vector<uint32_t> message_vars;
    /** True when valid (client-generatable) messages share this server
     *  path -- Figure 7's "bundled" case. */
    bool bundled_with_valid = false;
    /** Seconds into server analysis when this witness was produced. */
    double discovered_at_seconds = 0.0;
};

/** One (path length, live predicate count) sample for Figure 11. */
struct LiveSetSample
{
    size_t path_length = 0;
    size_t live_predicates = 0;
};

/** Exploration-logic counters of one plane (the home plane or one
 *  worker's). Only the thread driving the plane writes them. */
struct ExplorerStats
{
    int64_t match_queries = 0;
    int64_t trojan_queries = 0;
    int64_t predicate_drops = 0;
    int64_t difffrom_drops = 0;
    int64_t blocked_by_unusable_negation = 0;
    int64_t states_pruned = 0;
    int64_t accepting_without_trojans = 0;
    int64_t trojans = 0;

    /** The one place these counters are named ("explorer.*"). */
    void AddTo(obs::CounterView *view) const;
};

/** Result of the server analysis phase. */
struct ServerAnalysis
{
    std::vector<TrojanWitness> trojans;
    /** All accepting paths (for the classic-SE comparison). */
    std::vector<symexec::PathResult> accepting_paths;
    std::vector<LiveSetSample> live_samples;
    /** Every plane's explorer counters, the engines' and (parallel
     *  runs) the worker solvers' and scheduler's counters. The home
     *  solver's counters stay on the solver. */
    obs::CounterView stats;
    double seconds = 0.0;
};

/**
 * The server exploration + Trojan search driver.
 *
 * Usage: construct with the preprocessed client predicate data, then
 * Run(). The same instance is not reusable.
 *
 * With config.engine.num_workers > 1 the exploration runs on the
 * exec::ParallelEngine work-stealing pool: each worker evaluates the
 * incremental checks against bridge-translated predicate tables with
 * its own solver, and the merged analysis (witness definitions
 * re-homed, ordered by path id) is identical to a serial run's.
 */
class ServerExplorer
{
  public:
    /**
     * `message` must be the same symbolic byte variables the negations
     * were computed against (NegateOperator's server message); if empty,
     * fresh variables are created (only valid when `negations` is empty
     * or was produced for those variables).
     */
    ServerExplorer(smt::ExprContext *ctx, smt::Solver *solver,
                   const symexec::Program *server,
                   const MessageLayout *layout,
                   const std::vector<ClientPathPredicate> *preds,
                   const std::vector<NegatedPredicate> *negations,
                   const DifferentFromMatrix *different_from,
                   ServerExplorerConfig config = {},
                   std::vector<smt::ExprRef> message = {});
    ServerExplorer(const ServerExplorer &) = delete;
    ServerExplorer &operator=(const ServerExplorer &) = delete;

    /** Run the analysis to completion. */
    ServerAnalysis Run();

    /** The symbolic message byte variables the server is analyzed on. */
    const std::vector<smt::ExprRef> &message_bytes() const
    {
        return message_;
    }

  private:
    struct LiveSet;

    /**
     * One data plane of the exploration logic, and the engine listener
     * that runs it: the context, solver and per-predicate expression
     * tables the logic runs against, plus the sinks it writes to. The
     * home plane holds the tables built over the home context; it
     * listens to a serial run and takes the a-posteriori witnesses. With
     * num_workers > 1 each worker engine gets a plane of its own:
     * bridge-translated copies of the tables, the worker's solver and
     * private sinks, so the LiveSet bookkeeping and witness emission
     * never share mutable state across threads.
     */
    struct Plane : public symexec::Listener
    {
        /** The home plane, on the owner's context and solver; the
         *  ServerExplorer constructor fills its tables. */
        explicit Plane(ServerExplorer *owner);
        /** Worker `wc`'s plane, translating the home plane's tables
         *  (before any worker thread starts). */
        Plane(ServerExplorer *owner, exec::WorkerContext *wc);
        Plane(const Plane &) = delete;
        Plane &operator=(const Plane &) = delete;

        bool OnBranch(symexec::State &state,
                      smt::ExprRef constraint) override;
        void OnAccept(symexec::State &state) override;

        ServerExplorer *owner;
        smt::ExprContext *ctx;
        smt::Solver *solver;
        /** The symbolic message bytes in this plane's context. */
        const std::vector<smt::ExprRef> *message;
        /** Observability sinks addressed to this plane's lane (inert
         *  when the run carries none). */
        obs::ObsHandle obs;
        /** Translates this plane's expressions home (null on the home
         *  plane). */
        exec::ExprBridge *bridge = nullptr;
        /** Per predicate: match conjunction (byte equalities + client
         *  pcs). */
        std::vector<std::vector<smt::ExprRef>> match;
        /** Per predicate: negation disjunction expr (null if unusable). */
        std::vector<smt::ExprRef> negations;
        ExplorerStats stats;
        std::vector<LiveSetSample> samples;
        std::vector<TrojanWitness> trojans;
    };

    /** Live-set of a state, creating the full set on first touch. */
    LiveSet *GetLiveSet(symexec::State &state);

    /** Combined query: state constraints + client predicate i matches,
     *  sliced while the state's path_sat() holds. */
    smt::CheckResult PredicateMatches(Plane &plane,
                                      const symexec::State &state,
                                      size_t i);

    /**
     * Trojan query for a path; fills the model when sat. A model-less
     * query on a path proven satisfiable (`path_sat`, see
     * symexec::State::path_sat) is sliced by
     * smt::Solver::CheckSatOnSatBase; a model query never is.
     */
    smt::CheckResult TrojanQuery(
        Plane &plane, const std::vector<smt::ExprRef> &path_constraints,
        bool path_sat, const std::vector<uint32_t> &live,
        smt::Model *model);

    /** Fields constrained by an expression (via message byte vars). */
    std::vector<std::string> TouchedFields(const Plane &plane,
                                           smt::ExprRef e) const;

    /** Branch logic: drop predicates that stopped matching, then prune
     *  the state if no Trojan message can trigger it. */
    bool HandleBranch(Plane &plane, symexec::State &state,
                      smt::ExprRef constraint);

    /** Witness for an accepting path if its Trojan query with the
     *  `live` predicates' negations is satisfiable. */
    void EmitTrojan(Plane &plane, uint64_t path_id,
                    const std::string &accept_label,
                    const std::vector<smt::ExprRef> &path_constraints,
                    const std::vector<uint32_t> &live);

    /** Multi-worker variant of Run's exploration (num_workers > 1). */
    std::vector<symexec::PathResult> RunParallel();

    smt::ExprContext *ctx_;
    smt::Solver *solver_;
    const symexec::Program *server_;
    const MessageLayout *layout_;
    const std::vector<ClientPathPredicate> *preds_;
    const std::vector<NegatedPredicate> *negations_;
    const DifferentFromMatrix *different_from_;
    ServerExplorerConfig config_;

    std::vector<smt::ExprRef> message_;
    /** var id -> byte offset in the message. */
    std::unordered_map<uint32_t, uint32_t> var_to_offset_;
    Plane home_;

    ServerAnalysis analysis_;
    Timer timer_;
};

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_SERVER_EXPLORER_H_
