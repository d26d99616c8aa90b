// Achilles reproduction -- SMT library.
//
// CDCL SAT solver in the MiniSat lineage: two-watched-literal propagation,
// first-UIP conflict analysis, VSIDS-style activity, phase saving and
// geometric restarts. This is the decision procedure underneath the
// bitvector solver, standing in for the SAT cores of STP/Z3.

#ifndef ACHILLES_SMT_SAT_H_
#define ACHILLES_SMT_SAT_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "support/logging.h"

namespace achilles {
namespace smt {

/** A literal: variable index with sign, encoded MiniSat-style (2v+sign). */
class Lit
{
  public:
    Lit() : code_(0) {}
    Lit(uint32_t var, bool negated) : code_(2 * var + (negated ? 1 : 0)) {}

    uint32_t var() const { return code_ >> 1; }
    bool negated() const { return code_ & 1; }
    Lit operator~() const { return FromCode(code_ ^ 1); }
    uint32_t code() const { return code_; }
    bool operator==(const Lit &o) const { return code_ == o.code_; }
    bool operator!=(const Lit &o) const { return code_ != o.code_; }

    static Lit
    FromCode(uint32_t code)
    {
        Lit l;
        l.code_ = code;
        return l;
    }

  private:
    uint32_t code_;
};

/** Ternary logic value of a variable or literal. */
enum class LBool : uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

/** Result of a Solve() call. */
enum class SatStatus { kSat, kUnsat, kUnknown };

/** SAT search counters. Only the owning solver's thread writes them. */
struct SatStats
{
    int64_t solve_calls = 0;
    int64_t decisions = 0;
    int64_t propagations = 0;
    int64_t conflicts = 0;
    int64_t restarts = 0;
    int64_t budget_exhausted = 0;
    int64_t learnt_clauses = 0;
    int64_t reduce_dbs = 0;
    int64_t learnts_removed = 0;

    /** The one place these counters are named ("sat.*"). */
    void AddTo(obs::CounterView *view) const;
};

/**
 * CDCL SAT solver.
 *
 * Usage: NewVar() variables, AddClause() clauses, Solve(). After kSat,
 * Value(var) gives the model. The solver may be re-Solved after adding
 * more clauses (clauses persist; learnt clauses are retained across
 * calls up to a MiniSat-style ReduceDB cap). Reset() empties it for the
 * next instance without giving back its buffers.
 */
class SatSolver
{
  public:
    SatSolver();

    /**
     * Return to the just-constructed state -- no variables or clauses,
     * zeroed counters, auto-sized learnt cap, unit activity increments,
     * not unsatisfiable -- while every buffer, the per-literal watch
     * lists included, keeps its capacity. An instance built after
     * Reset() gets the same variable numbering, decisions, learnt
     * clauses, counters and model as one built on a new solver; it only
     * skips the allocations.
     */
    void Reset();

    /** Create a fresh variable; returns its index. */
    uint32_t NewVar();
    uint32_t NumVars() const { return static_cast<uint32_t>(assigns_.size()); }
    /** Problem clauses of two or more literals held (units are on the
     *  trail, satisfied and tautological clauses are dropped). */
    size_t NumClauses() const { return clauses_.size(); }

    /**
     * Add a clause (disjunction of literals). Returns false if the clause
     * set is already unsatisfiable (empty clause / conflicting units).
     */
    bool
    AddClause(std::vector<Lit> lits)
    {
        return AddClauseInPlace(lits.data(), lits.size());
    }
    bool
    AddUnit(Lit a)
    {
        Lit lits[] = {a};
        return AddClauseInPlace(lits, 1);
    }
    bool
    AddBinary(Lit a, Lit b)
    {
        Lit lits[] = {a, b};
        return AddClauseInPlace(lits, 2);
    }
    bool
    AddTernary(Lit a, Lit b, Lit c)
    {
        Lit lits[] = {a, b, c};
        return AddClauseInPlace(lits, 3);
    }

    /**
     * Solve the clause set. `max_conflicts` < 0 means no budget limit;
     * on budget exhaustion returns kUnknown.
     */
    SatStatus Solve(int64_t max_conflicts = -1);

    /** Model value of a variable (valid after kSat). */
    bool
    Value(uint32_t var) const
    {
        ACHILLES_CHECK(var < model_.size());
        return model_[var] == LBool::kTrue;
    }

    /**
     * Learnt-clause retention cap before ReduceDB evicts the
     * lowest-activity half. 0 (the default) auto-sizes from the problem
     * clause count on the next Solve; tests pin small caps to exercise
     * the eviction path.
     */
    void SetLearntCap(int64_t cap) { learnt_cap_ = cap; }
    size_t NumLearnts() const { return learnts_.size(); }

    /** Typed counters (conflicts, decisions, propagations...). */
    const SatStats &counters() const { return stats_; }
    /** The counters as a name -> value view. */
    obs::CounterView stats() const { return obs::ViewOf(stats_); }

  private:
    // Clauses are stored in one arena; a clause is referenced by its
    // offset. Layout: [size|learnt-flag][lit0][lit1]...; learnt clauses
    // carry one trailing word holding their float activity.
    using ClauseRef = uint32_t;
    static constexpr ClauseRef kNoClause = 0xffffffffu;
    static constexpr uint32_t kLearntFlag = 0x80000000u;

    /** Built in place by emplace_back: a watcher composed on the stack
     *  and passed by reference to the vector's growth path is stored
     *  as two 4-byte halves and reloaded as one 8-byte value, a
     *  store-forwarding stall on every attach. */
    struct Watcher
    {
        Watcher() = default;
        Watcher(ClauseRef c, Lit b) : cref(c), blocker(b) {}

        ClauseRef cref;
        Lit blocker;
    };

    /** AddClause on lits[0..n): sorted and simplified in place, then
     *  copied straight into the arena. */
    bool AddClauseInPlace(Lit *lits, size_t n);
    LBool LitValue(Lit l) const;
    SatStatus Search(int64_t max_conflicts);
    void NewDecisionLevel() { trail_lim_.push_back(trail_.size()); }
    uint32_t DecisionLevel() const
    {
        return static_cast<uint32_t>(trail_lim_.size());
    }

    void Enqueue(Lit l, ClauseRef reason);
    ClauseRef Propagate();
    void Analyze(ClauseRef conflict, std::vector<Lit> *out_learnt,
                 uint32_t *out_btlevel);
    void BacktrackTo(uint32_t level);
    Lit PickBranchLit();
    ClauseRef AllocClause(const Lit *lits, size_t n, bool learnt);
    void AttachClause(ClauseRef cref);
    void BumpVar(uint32_t var);
    void DecayVarActivity();
    void RescaleActivities();

    // Activity order-heap (max-heap on activity, var index tie-break):
    // PickBranchLit pops candidates in O(log V) instead of scanning all
    // variables per decision.
    //
    // It is built lazily. HeapBefore is a strict total order, so the
    // heap pops the vars it holds in an order fixed by which vars they
    // are, and until the first conflict every activity is 0, which
    // makes that order the index order. Until then `order_cursor_`
    // stands in for the heap: PickBranchLit scans forward from it and
    // BacktrackTo lowers it instead of inserting, so every var below it
    // is assigned and the scan picks the lowest unassigned var -- the
    // heap's pick. At the first conflict, before Analyze bumps any
    // activity, BuildOrderHeap makes the vars from the cursor on (an
    // ascending run, already a valid heap) the heap; any of them a heap
    // kept from the start would not hold are assigned, and a pop skips
    // those. Decisions are unchanged; an instance that never conflicts
    // skips pushing every var and popping nearly all of them.
    bool HeapBefore(uint32_t a, uint32_t b) const
    {
        return activity_[a] > activity_[b] ||
               (activity_[a] == activity_[b] && a < b);
    }
    void BuildOrderHeap();
    void HeapSiftUp(size_t i);
    void HeapSiftDown(size_t i);
    void HeapInsert(uint32_t var);
    uint32_t HeapPop();

    // Learnt-clause bookkeeping.
    float ClauseActivity(ClauseRef cref) const;
    void SetClauseActivity(ClauseRef cref, float activity);
    void BumpClause(ClauseRef cref);
    void DecayClauseActivity();
    void ReduceDB();
    void GarbageCollect();

    uint32_t ClauseSize(ClauseRef cref) const
    {
        return arena_[cref] & ~kLearntFlag;
    }
    bool ClauseLearnt(ClauseRef cref) const
    {
        return (arena_[cref] & kLearntFlag) != 0;
    }
    Lit ClauseLit(ClauseRef cref, uint32_t i) const
    {
        return Lit::FromCode(arena_[cref + 1 + i]);
    }

    std::vector<uint32_t> arena_;
    std::vector<ClauseRef> clauses_;
    std::vector<ClauseRef> learnts_;
    // Indexed by lit code. Reset() clears the lists instead of dropping
    // them, so the vector may hold empty lists past 2 * NumVars().
    std::vector<std::vector<Watcher>> watches_;
    std::vector<LBool> assigns_;
    std::vector<LBool> model_;
    std::vector<uint8_t> saved_phase_;
    std::vector<double> activity_;
    std::vector<uint32_t> level_;
    std::vector<ClauseRef> reason_;
    std::vector<Lit> trail_;
    std::vector<size_t> trail_lim_;
    std::vector<uint32_t> heap_;     // var order-heap
    std::vector<int32_t> heap_pos_;  // var -> heap index, -1 if absent
    bool heap_built_ = false;        // false until the first conflict
    uint32_t order_cursor_ = 0;      // the heap's stand-in until then
    size_t qhead_ = 0;
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;
    int64_t learnt_cap_ = 0;  // 0 = auto-size on next Solve
    bool ok_ = true;

    // Conflict analysis scratch.
    std::vector<uint8_t> seen_;
    std::vector<Lit> learnt_lits_;

    SatStats stats_;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_SAT_H_
