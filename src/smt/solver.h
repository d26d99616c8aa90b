// Achilles reproduction -- SMT library.
//
// Solver facade: the QF_BV decision procedure used by every other layer
// (symbolic execution feasibility checks, negate-operator overlap checks,
// differentFrom precomputation, Trojan queries). Bit-blasting + CDCL
// behind a query cache, standing in for the STP/Z3 usage in the paper.
// Verdict-only queries over a path known to be satisfiable can be sliced
// to the constraints that share variables with the query, as KLEE does
// (CheckSatOnSatBase), and every verdict-only query has the variables it
// pins to a constant substituted away, as KLEE's constraint manager and
// STP's variable elimination do.

#ifndef ACHILLES_SMT_SOLVER_H_
#define ACHILLES_SMT_SOLVER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "smt/eval.h"
#include "smt/expr.h"

namespace achilles {
namespace smt {

/** Status of a satisfiability query. */
enum class CheckStatus : uint8_t { kSat, kUnsat, kUnknown };

/** Outcome of a satisfiability query. */
using CheckResult = CheckStatus;

const char *CheckResultName(CheckStatus s);

/** Solver-facade counters. Only the owning solver's thread writes
 *  them, and the heartbeat reads the live ones mid-run; the sat_*
 *  fields sum the SAT backend's per-call deltas. */
struct SolverStats
{
    obs::LiveCount queries;
    /** Queries answered kUnknown (the conflict budget ran out). */
    obs::LiveCount unknowns;
    /** Queries answered without the cache or a SAT call, including the
     *  verdict-only queries that equality substitution folded to no
     *  live assertion (trivial_sat) or to a false one (trivial_unsat). */
    int64_t trivial_sat = 0;
    int64_t trivial_unsat = 0;
    /** Verdict-only queries that held at least one `var == const`
     *  binding, substituted into the rest of the query. */
    int64_t rewritten = 0;
    int64_t cache_hits = 0;
    int64_t cache_model_upgrades = 0;
    int64_t sat_calls = 0;
    int64_t sat_conflicts = 0;
    int64_t sat_decisions = 0;

    /** The one place these counters are named ("solver.*"). */
    void AddTo(obs::CounterView *view) const;
};

/** Tunables for the solver facade. */
struct SolverConfig
{
    /** Conflict budget for the SAT search; < 0 means unlimited. */
    int64_t max_conflicts = -1;
    /** Memoize query results keyed by the assertion set. */
    bool enable_cache = true;
    /**
     * Observability sinks (src/obs/obs.h): when the registry is set the
     * solver attaches its live query and kUnknown counts for the
     * heartbeat to read; when the tracer is set every
     * CheckSat/CheckSatAssuming records one span on the lane's track,
     * annotated with conflicts spent and verdict. Default
     * (both null) leaves a single branch per query -- instrumentation is
     * provably inert (witness sets are bitwise identical obs on/off; see
     * tests/test_obs.cc).
     */
    obs::ObsHandle obs;
};

/** Outcome of Solver::CheckSatBatch: one verdict per group, in the
 *  caller's group order. */
struct BatchOutcome
{
    std::vector<CheckResult> verdicts;
};

/**
 * The decision procedure facade.
 *
 * A verdict-only query (no Model requested) is rewritten first: every
 * live assertion `var == const` binds its variable, and each binding is
 * substituted into every assertion of the query. The factories
 * constant-fold as they rebuild, so the binding's own equality drops
 * out, a second equality on the variable becomes `c1 == c2`, and an
 * assertion over bound variables only becomes true or false. The
 * rewritten conjunction is equisatisfiable with the query, and smaller.
 * A model query is never rewritten: a model of the rewritten query would
 * lack the bound variables, and the query as asked keeps its CNF, so
 * its model is the same whatever verdict-only queries came before.
 *
 * The memo cache is the only state it holds across queries. A query
 * that gets past canonicalization and the memo cache is bit-blasted
 * into its thread's SAT instance (a SatSolver and BitBlaster pair
 * shared by every Solver on the thread), which is Reset to the state of
 * a newly constructed pair before each query and keeps nothing but
 * buffer capacity. A conjunction that unit propagation alone refutes,
 * such as contradictory range checks on one field, fails while its
 * clauses are emitted and costs no decision or conflict. So every
 * verdict and model is a pure function of the canonical query -- the
 * same across runs, worker counts and query history.
 *
 * CheckSat/CheckSatAssuming are virtual so decorators can interpose
 * (e2ebench's timing decorator and the tests' solver doubles do). A
 * Solver instance is not thread-safe; parallel exploration gives each
 * worker its own.
 *
 * CheckSatOnSatBase is not virtual: it slices the base and hands the
 * slice to CheckSatAssuming, so the memo cache and every decorator see
 * the sliced query. Its precondition, a satisfiable base, is
 * the caller's to keep; the symbolic executor keeps it with
 * symexec::State::path_sat(). Model queries always take the full base,
 * so every model, and every witness byte built from one, is the same
 * whether or not the verdict-only queries before it were sliced.
 *
 * The equality substitution sits below that boundary, inside
 * CheckSatSets, so every model-less caller gets it and decorators still
 * see each query as asked: only the memo cache and the SAT instance see
 * it rewritten. Sound for any conjunction, it needs no precondition.
 */
class Solver
{
  public:
    explicit Solver(ExprContext *ctx, SolverConfig config = {});
    virtual ~Solver();

    /**
     * A thread's SAT instance is freed after a query that grew it past
     * this many SAT variables, instead of being Reset for the next one,
     * so one rare large query does not pin its buffers for the thread's
     * lifetime. fsp's largest instance has 712 vars; 0.14% of
     * deep-par4's SAT calls and 0.01% of the corpus's exceed 1,024.
     * Kept unbounded, the retained buffers raised deep-par4's e2ebench
     * peak_rss_mb from 17.3 to 21.7 MiB (+25%, 20 s runs); with the
     * bound it is within 0.3% of one instance per query.
     */
    static constexpr uint32_t kMaxRetainedSatVars = 1024;

    /**
     * Check satisfiability of the conjunction of `assertions`.
     * On kSat and non-null `model`, fills `model` with values for every
     * variable occurring in the assertions; on every other outcome a
     * non-null `model` is cleared (callers may reuse one Model object
     * across queries without reading stale values). With a null `model`
     * the query is solved with its `var == const` bindings substituted
     * (see the class comment); with a model it is solved as asked.
     */
    virtual CheckResult CheckSat(const std::vector<ExprRef> &assertions,
                                 Model *model = nullptr);

    /**
     * Check satisfiability of base ∧ extras. Semantically identical to
     * CheckSat on the concatenation, the rewrite of verdict-only
     * queries included; the split spells out the shared-prefix query
     * streams of the server explorer (one pathS per state, many
     * ¬pathC_i iterated against it) without making callers copy the
     * base for every query.
     */
    virtual CheckResult CheckSatAssuming(const std::vector<ExprRef> &base,
                                         const std::vector<ExprRef> &extras,
                                         Model *model = nullptr);

    /**
     * Verdict of base ∧ extras, for a `base` the caller knows to be
     * satisfiable (precondition: an unsatisfiable base can be answered
     * kSat). Passes CheckSatAssuming only the base assertions that
     * share a variable with `extras`, transitively (KLEE's constraint
     * independence): the rest is satisfiable, being part of a
     * satisfiable base, and shares no variable with the query, so
     * dropping it cannot change the verdict. It returns no model,
     * since a model of the slice would not constrain the dropped
     * assertions' variables.
     */
    CheckResult CheckSatOnSatBase(const std::vector<ExprRef> &base,
                                  const std::vector<ExprRef> &extras);

    /** CheckSatAssuming(base, *groups[i]) per group, in group order. No
     *  caller under src/: kept only because e2ebench/timed_solver.h
     *  overrides it. */
    virtual BatchOutcome
    CheckSatBatch(const std::vector<ExprRef> &base,
                  const std::vector<const std::vector<ExprRef> *> &groups);

    ExprContext *ctx() { return ctx_; }
    const SolverConfig &config() const { return config_; }
    /** The solver's counters as a name -> value view. */
    obs::CounterView stats() const { return obs::ViewOf(stats_); }

  private:
    /**
     * Shared workhorse of CheckSat and CheckSatAssuming: canonicalize
     * (substituting the bindings of a verdict-only query), consult the
     * memo cache, then solve on the thread's SAT instance, Reset for
     * the query. `extras` may be null.
     */
    CheckResult CheckSatSets(const std::vector<ExprRef> &base,
                             const std::vector<ExprRef> *extras,
                             Model *model);

    struct CacheEntry
    {
        CheckStatus status;
        /** False for kSat entries answered for a model-less caller: their
         *  model is not kept (storing every model would trade memory for
         *  speed), so such hits cannot serve model-requesting callers and
         *  are upgraded in place by a re-solve. */
        bool has_model;
        Model model;
    };
    struct AssertionsHash
    {
        size_t operator()(const std::vector<ExprRef> &assertions) const;
    };
    /** Canonical form, left in live_: the live (non-trivial)
     *  assertions, with the bindings substituted when `substitute`
     *  holds, structurally sorted and deduplicated. Returns false on a
     *  trivially-false assertion. */
    bool Canonicalize(const std::vector<ExprRef> &base,
                      const std::vector<ExprRef> *extras, bool substitute);

    /** Substitutes the `var == const` bindings among live_ into each
     *  assertion of live_, dropping those that fold to true. Returns
     *  false if one folds to false. */
    bool SubstituteBindings();

    /** Solve `live` on the thread's SAT instance, Reset first and
     *  freed afterwards if it grew past kMaxRetainedSatVars. On kSat,
     *  fills `out_model` with every variable of `live`, read from the
     *  bit-blaster, and checks each assertion against it with
     *  smt/eval. */
    CheckStatus SolveFresh(const std::vector<ExprRef> &live,
                           Model *out_model);

    ExprContext *ctx_;
    SolverConfig config_;
    /** CheckSatOnSatBase's per-variable marks, all zero between calls,
     *  and its other buffers, reused so that a call allocates nothing
     *  once they have grown: the marked variable ids, each base
     *  assertion's variable set, the kept flags and the slice. */
    std::vector<uint8_t> slice_marks_;
    std::vector<uint32_t> slice_marked_;
    std::vector<const std::vector<uint32_t> *> slice_base_vars_;
    std::vector<bool> slice_kept_;
    std::vector<ExprRef> slice_;
    /** CheckSatSets' canonical query and SubstituteBindings' var id ->
     *  constant map, both cleared per query. */
    std::vector<ExprRef> live_;
    std::unordered_map<uint32_t, ExprRef> bindings_;
    // Keyed by the canonical assertion vector itself (hashed by the old
    // 64-bit additive key): a hash collision degrades to a miss instead
    // of silently returning another query's result/model.
    std::unordered_map<std::vector<ExprRef>, CacheEntry, AssertionsHash>
        cache_;
    SolverStats stats_;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_SOLVER_H_
