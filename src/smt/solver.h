// Achilles reproduction -- SMT library.
//
// Solver facade: the QF_BV decision procedure used by every other layer
// (symbolic execution feasibility checks, negate-operator overlap checks,
// differentFrom precomputation, Trojan queries). Combines a fast interval
// pre-check with bit-blasting + CDCL, plus a query cache, standing in for
// the STP/Z3 usage in the paper.

#ifndef ACHILLES_SMT_SOLVER_H_
#define ACHILLES_SMT_SOLVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/sat.h"

namespace achilles {
namespace smt {

/** Status of a satisfiability query. */
enum class CheckStatus : uint8_t { kSat, kUnsat, kUnknown };

/** Outcome of a satisfiability query. */
using CheckResult = CheckStatus;

const char *CheckResultName(CheckStatus s);

/** Solver-facade counters. Only the owning solver's thread writes
 *  them; the sat_* fields sum the SAT backend's per-call deltas. */
struct SolverStats
{
    int64_t queries = 0;
    int64_t trivial_sat = 0;
    int64_t trivial_unsat = 0;
    int64_t cache_hits = 0;
    int64_t cache_model_upgrades = 0;
    int64_t interval_unsat = 0;
    int64_t sat_calls = 0;
    int64_t incremental_sat_calls = 0;
    int64_t incremental_resets = 0;
    int64_t sat_conflicts = 0;
    int64_t sat_decisions = 0;
    int64_t trail_reuses = 0;

    /** The one place these counters are named ("solver.*"). */
    void AddTo(obs::CounterView *view) const;
};

/** Tunables for the solver facade. */
struct SolverConfig
{
    /** Run the interval UNSAT pre-check before bit-blasting. */
    bool use_interval_check = true;
    /** Conflict budget for the SAT search; < 0 means unlimited. */
    int64_t max_conflicts = -1;
    /** Memoize query results keyed by the assertion set. */
    bool enable_cache = true;
    /**
     * Reuse one persistent SatSolver + BitBlaster across queries: CNF is
     * memoized per expression node, each assertion is guarded by an
     * activation literal, queries solve under assumptions, and learned
     * clauses carry over (capped by ReduceDB). Only model-less,
     * unlimited-budget queries take this path: model-producing queries
     * solve a fresh instance whose CNF numbering (and therefore model)
     * is a pure function of the structurally sorted query, and
     * budget-limited queries (max_conflicts >= 0) do too, so that the
     * kUnsat/kUnknown boundary never depends on the learned clauses of
     * earlier queries. Together these keep results and witness bytes
     * bitwise deterministic across runs, worker counts and query
     * history.
     */
    bool enable_incremental = true;
    /**
     * Reset threshold for the incremental backend. A SAT verdict must
     * extend to a full assignment over every variable ever blasted into
     * the persistent instance, so per-query cost grows with accumulated
     * CNF; once the instance exceeds this many SAT variables it is
     * dropped and rebuilt from the next query's expressions. Dense
     * streams of related queries (the Trojan/match loops) stay far
     * below the cap between resets; heterogeneous pipeline phases reset
     * a handful of times instead of dragging dead CNF along.
     */
    uint32_t incremental_max_vars = 65536;
    /**
     * Assumption-prefix trail reuse in the incremental backend: keep
     * the SAT trail segment for the longest common assumption prefix
     * between consecutive solves instead of re-establishing the whole
     * stack per query. Pure acceleration -- verdicts are unchanged;
     * only the search path may differ.
     */
    bool enable_trail_reuse = true;
    /**
     * Observability sinks (src/obs/obs.h): when the registry is set the
     * solver also bumps the live per-lane query counters and
     * distributions the heartbeat samples (its typed SolverStats count
     * either way); when the tracer is set every
     * CheckSat/CheckSatAssuming records one span on the lane's track,
     * annotated with conflicts spent and verdict. Default
     * (both null) leaves a single branch per query -- instrumentation is
     * provably inert (witness sets are bitwise identical obs on/off; see
     * tests/test_obs.cc).
     */
    obs::ObsHandle obs;

    /** True when queries run with no conflict budget -- the
     *  precondition for the incremental backend. */
    bool unbudgeted() const { return max_conflicts < 0; }
};

/** Outcome of Solver::CheckSatBatch: one verdict per group, in the
 *  caller's group order. */
struct BatchOutcome
{
    std::vector<CheckResult> verdicts;
};

class Lit;

/**
 * The decision procedure facade.
 *
 * Holds state across queries: the memo cache and the incremental
 * backend (a persistent SAT instance reused for all model-less queries;
 * see SolverConfig::enable_incremental). The Achilles search generates
 * thousands of small queries sharing path-constraint prefixes, so
 * reusing CNF, learned clauses and established assumption trails across
 * the stream is the dominant speed lever.
 *
 * CheckSat/CheckSatAssuming are virtual so decorators can interpose
 * (the parallel exploration subsystem wraps each worker's solver with a
 * shared cross-worker query cache, see exec/query_cache.h). A Solver
 * instance is not thread-safe; parallel exploration gives each worker
 * its own.
 */
class Solver
{
  public:
    explicit Solver(ExprContext *ctx, SolverConfig config = {});
    virtual ~Solver();

    /**
     * Check satisfiability of the conjunction of `assertions`.
     * On kSat and non-null `model`, fills `model` with values for every
     * variable occurring in the assertions; on every other outcome a
     * non-null `model` is cleared (callers may reuse one Model object
     * across queries without reading stale values).
     */
    virtual CheckResult CheckSat(const std::vector<ExprRef> &assertions,
                                 Model *model = nullptr);

    /**
     * Check satisfiability of base ∧ extras. Semantically identical to
     * CheckSat on the concatenation; the split spells out the
     * shared-prefix query streams of the server explorer (one pathS
     * asserted per state, many ¬pathC_i iterated against it), which the
     * incremental backend turns into assumption flips over memoized
     * CNF.
     */
    virtual CheckResult CheckSatAssuming(const std::vector<ExprRef> &base,
                                         const std::vector<ExprRef> &extras,
                                         Model *model = nullptr);

    /** CheckSatAssuming(base, *groups[i]) per group, in group order. No
     *  caller under src/: kept only because e2ebench/timed_solver.h
     *  overrides it. */
    virtual BatchOutcome
    CheckSatBatch(const std::vector<ExprRef> &base,
                  const std::vector<const std::vector<ExprRef> *> &groups);

    /**
     * The rolling satisfying assignment left standing by past kSat
     * answers, or nullptr before the first one. The facade merges each
     * kSat answer's variable values into it (incremental-path answers
     * lazily, on the first read; fresh-path answers eagerly, since
     * their model is already extracted). Consumers use it for concrete
     * pre-filtering. Staleness is harmless: a stale or merged model can
     * only fail to satisfy a satisfiable predicate, never satisfy an
     * unsatisfiable one. The referenced Model is owned by the solver
     * and valid until the next Check* call. It is a genuine concrete
     * assignment -- every value either came from a SAT model or
     * defaults to zero -- so any assertion that evaluates true under it
     * is satisfiable; nothing follows from evaluating false.
     */
    const Model *StandingModel();

    /** Convenience overload for a single (possibly And-tree) assertion. */
    CheckResult CheckSatExpr(ExprRef e, Model *model = nullptr);

    /** True iff the conjunction is satisfiable (kUnknown -> false). */
    bool
    IsSat(const std::vector<ExprRef> &assertions)
    {
        return CheckSat(assertions) == CheckResult::kSat;
    }

    ExprContext *ctx() { return ctx_; }
    const SolverConfig &config() const { return config_; }
    /** The solver's counters as a name -> value view. */
    obs::CounterView stats() const { return obs::ViewOf(stats_); }

  protected:
    /**
     * Shared workhorse for subclasses: canonicalize, consult the memo
     * cache, dispatch to the interval check and the incremental or
     * fresh-instance backend. `extras` may be null.
     */
    CheckResult CheckSatSets(const std::vector<ExprRef> &base,
                             const std::vector<ExprRef> *extras,
                             Model *model);

  private:
    struct CacheEntry
    {
        CheckStatus status;
        /** False for kSat entries produced by the model-less incremental
         *  path; such hits cannot serve model-requesting callers and are
         *  upgraded in place by a fresh-instance solve. */
        bool has_model;
        Model model;
    };
    struct AssertionsHash
    {
        size_t operator()(const std::vector<ExprRef> &assertions) const;
    };
    struct IncrementalBackend;

    /** Canonical form: live (non-trivial) assertions, structurally
     *  sorted and deduplicated. Returns false on a trivially-false
     *  assertion. */
    bool Canonicalize(const std::vector<ExprRef> &base,
                      const std::vector<ExprRef> *extras,
                      std::vector<ExprRef> *live) const;

    /** Solve `live` on a fresh SAT instance; fills `out_model` on kSat. */
    CheckStatus SolveFresh(const std::vector<ExprRef> &live,
                           Model *out_model);
    /** Solve `live` under assumptions on the persistent instance. */
    CheckStatus SolveIncremental(const std::vector<ExprRef> &live);

    /** Reset-or-build the persistent incremental instance: drops it
     *  past incremental_max_vars (flushing the standing model first --
     *  the SAT assignment dies with the instance) and (re)creates it. */
    void EnsureIncrementalBackend();
    /** Append the activation literal of every assertion of `live` in
     *  the incremental backend to `assumptions`. */
    void GuardAssertions(const std::vector<ExprRef> &live,
                         std::vector<Lit> *assumptions);
    /** Merge a deferred incremental-path kSat assignment into the
     *  rolling standing model. Must run before the backend that holds
     *  the assignment is dropped; no-op when nothing is pending. */
    void RefreshStandingModel();

    ExprContext *ctx_;
    SolverConfig config_;
    // Keyed by the canonical assertion vector itself (hashed by the old
    // 64-bit additive key): a hash collision degrades to a miss instead
    // of silently returning another query's result/model.
    std::unordered_map<std::vector<ExprRef>, CacheEntry, AssertionsHash>
        cache_;
    std::unique_ptr<IncrementalBackend> inc_;
    /** Rolling concrete assignment from past kSat answers (see
     *  StandingModel()). */
    Model standing_model_;
    bool has_standing_model_ = false;
    /** Assertions of the latest incremental-path kSat answer whose
     *  variable values have not been pulled from the backend yet:
     *  extraction walks the persistent instance's standing assignment,
     *  so it is deferred to the first StandingModel() read instead of
     *  taxing every query. */
    std::vector<ExprRef> standing_live_;
    SolverStats stats_;
    /** Live obs instruments on this solver's lane shard (inert handles
     *  when config_.obs carries no registry). */
    obs::MetricsRegistry::Counter obs_queries_;
    obs::MetricsRegistry::Counter obs_unknowns_;
    obs::MetricsRegistry::Distribution obs_conflicts_;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_SOLVER_H_
