// Achilles reproduction -- SMT library.
//
// CDCL SAT solver implementation. The structure follows MiniSat 2.2:
// watched literals with blockers, first-UIP learning, activity-ordered
// decisions with phase saving, geometric restarts.

#include "smt/sat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace achilles {
namespace smt {

namespace {

// Search heuristics. Restarts are geometric: the first after
// kRestartBase conflicts, each later interval kRestartGrowth times the
// previous one. Learnt clauses are capped at max(kLearntFloor,
// clauses / kLearntDivisor) and the cap grows by kLearntGrowthPct
// percent after every ReduceDB.
constexpr int64_t kRestartBase = 100;
constexpr double kRestartGrowth = 1.5;
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr int64_t kLearntFloor = 4000;
constexpr int64_t kLearntDivisor = 3;
constexpr int64_t kLearntGrowthPct = 10;

}  // namespace

void
SatStats::AddTo(obs::CounterView *view) const
{
    view->Add("sat.solve_calls", solve_calls);
    view->Add("sat.decisions", decisions);
    view->Add("sat.propagations", propagations);
    view->Add("sat.conflicts", conflicts);
    view->Add("sat.restarts", restarts);
    view->Add("sat.budget_exhausted", budget_exhausted);
    view->Add("sat.learnt_clauses", learnt_clauses);
    view->Add("sat.reduce_dbs", reduce_dbs);
    view->Add("sat.learnts_removed", learnts_removed);
}

SatSolver::SatSolver() = default;

void
SatSolver::Reset()
{
    // Lists past 2 * NumVars() were emptied by an earlier Reset.
    for (size_t code = 0; code < 2 * size_t{NumVars()}; ++code)
        watches_[code].clear();
    arena_.clear();
    clauses_.clear();
    learnts_.clear();
    assigns_.clear();
    model_.clear();
    saved_phase_.clear();
    activity_.clear();
    level_.clear();
    reason_.clear();
    trail_.clear();
    trail_lim_.clear();
    heap_.clear();
    heap_pos_.clear();
    heap_built_ = false;
    order_cursor_ = 0;
    qhead_ = 0;
    var_inc_ = 1.0;
    cla_inc_ = 1.0;
    learnt_cap_ = 0;
    ok_ = true;
    seen_.clear();
    learnt_lits_.clear();
    stats_ = SatStats();
}

uint32_t
SatSolver::NewVar()
{
    const uint32_t v = static_cast<uint32_t>(assigns_.size());
    assigns_.push_back(LBool::kUndef);
    model_.push_back(LBool::kUndef);
    saved_phase_.push_back(0);
    activity_.push_back(0.0);
    level_.push_back(0);
    reason_.push_back(kNoClause);
    seen_.push_back(0);
    if (watches_.size() < 2 * size_t{v} + 2)
        watches_.resize(2 * size_t{v} + 2);
    heap_pos_.push_back(-1);
    if (heap_built_)
        HeapInsert(v);
    return v;
}

void
SatSolver::BuildOrderHeap()
{
    ACHILLES_CHECK(!heap_built_);
    for (uint32_t v = order_cursor_; v < NumVars(); ++v) {
        heap_pos_[v] = static_cast<int32_t>(heap_.size());
        heap_.push_back(v);
    }
    heap_built_ = true;
}

void
SatSolver::HeapSiftUp(size_t i)
{
    const uint32_t v = heap_[i];
    while (i > 0) {
        const size_t parent = (i - 1) / 2;
        if (!HeapBefore(v, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = static_cast<int32_t>(i);
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int32_t>(i);
}

void
SatSolver::HeapSiftDown(size_t i)
{
    const uint32_t v = heap_[i];
    const size_t n = heap_.size();
    while (true) {
        size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && HeapBefore(heap_[child + 1], heap_[child]))
            ++child;
        if (!HeapBefore(heap_[child], v))
            break;
        heap_[i] = heap_[child];
        heap_pos_[heap_[i]] = static_cast<int32_t>(i);
        i = child;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int32_t>(i);
}

void
SatSolver::HeapInsert(uint32_t var)
{
    if (heap_pos_[var] >= 0)
        return;
    heap_.push_back(var);
    heap_pos_[var] = static_cast<int32_t>(heap_.size() - 1);
    HeapSiftUp(heap_.size() - 1);
}

uint32_t
SatSolver::HeapPop()
{
    const uint32_t top = heap_[0];
    heap_pos_[top] = -1;
    const uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[last] = 0;
        HeapSiftDown(0);
    }
    return top;
}

LBool
SatSolver::LitValue(Lit l) const
{
    const LBool v = assigns_[l.var()];
    if (v == LBool::kUndef)
        return LBool::kUndef;
    const bool b = (v == LBool::kTrue) != l.negated();
    return b ? LBool::kTrue : LBool::kFalse;
}

bool
SatSolver::AddClauseInPlace(Lit *lits, size_t n)
{
    if (!ok_)
        return false;
    BacktrackTo(0);

    // Normalize: sort, dedupe, drop level-0-false literals, detect
    // tautologies and level-0-true literals. The kept literals move to
    // the front of `lits`, in sorted order. Insertion sort, because the
    // bit-blaster's clauses have 1-3 literals; equal codes are equal
    // literals, so the result is the one any sort would give.
    for (size_t i = 1; i < n; ++i) {
        const Lit l = lits[i];
        size_t j = i;
        for (; j > 0 && l.code() < lits[j - 1].code(); --j)
            lits[j] = lits[j - 1];
        lits[j] = l;
    }
    size_t kept = 0;
    Lit prev = Lit::FromCode(0xffffffffu);
    for (size_t i = 0; i < n; ++i) {
        const Lit l = lits[i];
        ACHILLES_CHECK(l.var() < NumVars(), "literal for unknown var");
        if (l == prev)
            continue;
        if (prev.code() != 0xffffffffu && l == ~prev)
            return true;  // tautology
        const LBool v = LitValue(l);
        if (v == LBool::kTrue)
            return true;  // already satisfied at level 0
        if (v == LBool::kFalse)
            continue;  // can never help
        lits[kept++] = l;
        prev = l;
    }

    if (kept == 0) {
        ok_ = false;
        return false;
    }
    if (kept == 1) {
        Enqueue(lits[0], kNoClause);
        if (Propagate() != kNoClause)
            ok_ = false;
        return ok_;
    }
    const ClauseRef cref = AllocClause(lits, kept, /*learnt=*/false);
    clauses_.push_back(cref);
    AttachClause(cref);
    return true;
}

SatSolver::ClauseRef
SatSolver::AllocClause(const Lit *lits, size_t n, bool learnt)
{
    const ClauseRef cref = static_cast<ClauseRef>(arena_.size());
    arena_.push_back(static_cast<uint32_t>(n) | (learnt ? kLearntFlag : 0));
    for (size_t i = 0; i < n; ++i)
        arena_.push_back(lits[i].code());
    if (learnt) {
        arena_.push_back(0);
        SetClauseActivity(cref, 0.0f);
        ++stats_.learnt_clauses;
    }
    return cref;
}

float
SatSolver::ClauseActivity(ClauseRef cref) const
{
    float activity;
    std::memcpy(&activity, &arena_[cref + 1 + ClauseSize(cref)],
                sizeof(activity));
    return activity;
}

void
SatSolver::SetClauseActivity(ClauseRef cref, float activity)
{
    std::memcpy(&arena_[cref + 1 + ClauseSize(cref)], &activity,
                sizeof(activity));
}

void
SatSolver::BumpClause(ClauseRef cref)
{
    const float bumped =
        ClauseActivity(cref) + static_cast<float>(cla_inc_);
    SetClauseActivity(cref, bumped);
    if (bumped > 1e20f) {
        for (ClauseRef c : learnts_)
            SetClauseActivity(c, ClauseActivity(c) * 1e-20f);
        cla_inc_ *= 1e-20;
    }
}

void
SatSolver::AttachClause(ClauseRef cref)
{
    ACHILLES_CHECK(ClauseSize(cref) >= 2);
    const Lit c0 = ClauseLit(cref, 0);
    const Lit c1 = ClauseLit(cref, 1);
    watches_[(~c0).code()].emplace_back(cref, c1);
    watches_[(~c1).code()].emplace_back(cref, c0);
}

void
SatSolver::Enqueue(Lit l, ClauseRef reason)
{
    ACHILLES_CHECK(LitValue(l) == LBool::kUndef, "enqueue on assigned var");
    assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
    level_[l.var()] = DecisionLevel();
    reason_[l.var()] = reason;
    trail_.push_back(l);
}

SatSolver::ClauseRef
SatSolver::Propagate()
{
    ClauseRef conflict = kNoClause;
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;
        std::vector<Watcher> &ws = watches_[p.code()];
        size_t keep = 0;
        size_t i = 0;
        for (; i < ws.size(); ++i) {
            const Watcher w = ws[i];
            // Fast path: blocker already satisfied.
            if (LitValue(w.blocker) == LBool::kTrue) {
                ws[keep++] = w;
                continue;
            }
            const ClauseRef cref = w.cref;
            const uint32_t size = ClauseSize(cref);
            // Ensure the false literal (~p) sits at position 1.
            const Lit false_lit = ~p;
            if (ClauseLit(cref, 0) == false_lit) {
                arena_[cref + 1] = arena_[cref + 2];
                arena_[cref + 2] = false_lit.code();
            }
            const Lit first = ClauseLit(cref, 0);
            if (first != w.blocker && LitValue(first) == LBool::kTrue) {
                ws[keep++] = Watcher{cref, first};
                continue;
            }
            // Look for a new literal to watch.
            bool found = false;
            for (uint32_t k = 2; k < size; ++k) {
                const Lit candidate = ClauseLit(cref, k);
                if (LitValue(candidate) != LBool::kFalse) {
                    arena_[cref + 2] = candidate.code();
                    arena_[cref + 1 + k] = false_lit.code();
                    watches_[(~candidate).code()].emplace_back(cref,
                                                               first);
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            // Clause is unit or conflicting.
            ws[keep++] = Watcher{cref, first};
            if (LitValue(first) == LBool::kFalse) {
                conflict = cref;
                qhead_ = trail_.size();
                // Copy remaining watchers back.
                for (++i; i < ws.size(); ++i)
                    ws[keep++] = ws[i];
                break;
            }
            Enqueue(first, cref);
        }
        ws.resize(keep);
        if (conflict != kNoClause)
            break;
    }
    return conflict;
}

void
SatSolver::BumpVar(uint32_t var)
{
    activity_[var] += var_inc_;
    if (activity_[var] > 1e100)
        RescaleActivities();
    else if (heap_pos_[var] >= 0)
        HeapSiftUp(static_cast<size_t>(heap_pos_[var]));
}

void
SatSolver::DecayVarActivity()
{
    var_inc_ /= kVarDecay;
}

void
SatSolver::DecayClauseActivity()
{
    cla_inc_ /= kClauseDecay;
}

void
SatSolver::RescaleActivities()
{
    for (double &a : activity_)
        a *= 1e-100;
    var_inc_ *= 1e-100;
    // Tiny activities may flush to equal values, which changes the
    // index tie-break order: re-heapify to restore the invariant.
    for (size_t i = heap_.size(); i > 0; --i)
        HeapSiftDown(i - 1);
}

void
SatSolver::Analyze(ClauseRef conflict, std::vector<Lit> *out_learnt,
                   uint32_t *out_btlevel)
{
    out_learnt->clear();
    out_learnt->push_back(Lit());  // placeholder for the asserting literal

    int path_count = 0;
    Lit p;
    bool p_valid = false;
    size_t index = trail_.size();

    ClauseRef c = conflict;
    do {
        ACHILLES_CHECK(c != kNoClause, "analyze hit a decision unexpectedly");
        if (ClauseLearnt(c))
            BumpClause(c);
        const uint32_t size = ClauseSize(c);
        for (uint32_t j = p_valid ? 1 : 0; j < size; ++j) {
            const Lit q = ClauseLit(c, j);
            const uint32_t v = q.var();
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = 1;
                BumpVar(v);
                if (level_[v] >= DecisionLevel())
                    ++path_count;
                else
                    out_learnt->push_back(q);
            }
        }
        // Select the next literal to resolve on.
        while (!seen_[trail_[index - 1].var()])
            --index;
        p = trail_[--index];
        p_valid = true;
        c = reason_[p.var()];
        seen_[p.var()] = 0;
        --path_count;
    } while (path_count > 0);
    (*out_learnt)[0] = ~p;

    // Compute the backtrack level: highest level among the other lits.
    uint32_t btlevel = 0;
    size_t max_i = 1;
    for (size_t i = 1; i < out_learnt->size(); ++i) {
        const uint32_t lvl = level_[(*out_learnt)[i].var()];
        if (lvl > btlevel) {
            btlevel = lvl;
            max_i = i;
        }
    }
    if (out_learnt->size() > 1)
        std::swap((*out_learnt)[1], (*out_learnt)[max_i]);
    *out_btlevel = out_learnt->size() == 1 ? 0 : btlevel;

    for (Lit l : *out_learnt)
        seen_[l.var()] = 0;
}

void
SatSolver::BacktrackTo(uint32_t target_level)
{
    if (DecisionLevel() <= target_level)
        return;
    const size_t bound = trail_lim_[target_level];
    for (size_t i = trail_.size(); i > bound; --i) {
        const Lit l = trail_[i - 1];
        saved_phase_[l.var()] = l.negated() ? 0 : 1;
        assigns_[l.var()] = LBool::kUndef;
        reason_[l.var()] = kNoClause;
        if (heap_built_)
            HeapInsert(l.var());
        else
            order_cursor_ = std::min(order_cursor_, l.var());
    }
    trail_.resize(bound);
    trail_lim_.resize(target_level);
    qhead_ = trail_.size();
}

Lit
SatSolver::PickBranchLit()
{
    if (!heap_built_) {
        // The heap's stand-in (see sat.h): the lowest unassigned var.
        for (; order_cursor_ < NumVars(); ++order_cursor_) {
            const uint32_t v = order_cursor_;
            if (assigns_[v] == LBool::kUndef) {
                ++order_cursor_;
                return Lit(v, saved_phase_[v] == 0);
            }
        }
        return Lit::FromCode(0xffffffffu);
    }
    // Pop the activity order-heap until an unassigned variable surfaces.
    // Every unassigned variable is in the heap (BacktrackTo re-inserts
    // what it unassigns), so an empty heap means a full assignment.
    while (!heap_.empty()) {
        const uint32_t v = HeapPop();
        if (assigns_[v] != LBool::kUndef)
            continue;
        return Lit(v, saved_phase_[v] == 0);
    }
    return Lit::FromCode(0xffffffffu);
}

void
SatSolver::ReduceDB()
{
    ACHILLES_CHECK(DecisionLevel() == 0, "ReduceDB off the root level");
    ++stats_.reduce_dbs;

    // Binary learnts are cheap and valuable; locked clauses (the current
    // reason for a root-level assignment) must survive. Everything else
    // competes on activity, lowest-activity half evicted.
    std::vector<ClauseRef> keep, candidates;
    keep.reserve(learnts_.size());
    candidates.reserve(learnts_.size());
    for (ClauseRef c : learnts_) {
        const Lit first = ClauseLit(c, 0);
        const bool locked = assigns_[first.var()] != LBool::kUndef &&
                            reason_[first.var()] == c;
        if (locked || ClauseSize(c) <= 2)
            keep.push_back(c);
        else
            candidates.push_back(c);
    }
    std::sort(candidates.begin(), candidates.end(),
              [this](ClauseRef a, ClauseRef b) {
                  const float aa = ClauseActivity(a);
                  const float ab = ClauseActivity(b);
                  return aa != ab ? aa > ab : a < b;
              });
    const size_t survivors = candidates.size() / 2;
    stats_.learnts_removed +=
        static_cast<int64_t>(candidates.size() - survivors);
    candidates.resize(survivors);
    keep.insert(keep.end(), candidates.begin(), candidates.end());
    learnts_ = std::move(keep);
    GarbageCollect();
}

void
SatSolver::GarbageCollect()
{
    // Rebuild the arena with only the surviving clauses, then re-derive
    // every ClauseRef-bearing structure (watches, reasons). Watched
    // literals always sit at positions 0/1, so re-attaching preserves
    // the watch invariant.
    std::vector<uint32_t> new_arena;
    new_arena.reserve(arena_.size());
    std::unordered_map<ClauseRef, ClauseRef> relocated;
    relocated.reserve(clauses_.size() + learnts_.size());
    auto move_clause = [&](ClauseRef &cref) {
        const ClauseRef moved = static_cast<ClauseRef>(new_arena.size());
        const uint32_t words =
            1 + ClauseSize(cref) + (ClauseLearnt(cref) ? 1 : 0);
        for (uint32_t i = 0; i < words; ++i)
            new_arena.push_back(arena_[cref + i]);
        relocated.emplace(cref, moved);
        cref = moved;
    };
    for (ClauseRef &c : clauses_)
        move_clause(c);
    for (ClauseRef &c : learnts_)
        move_clause(c);
    arena_ = std::move(new_arena);

    for (uint32_t v = 0; v < NumVars(); ++v) {
        if (assigns_[v] != LBool::kUndef && reason_[v] != kNoClause)
            reason_[v] = relocated.at(reason_[v]);
    }
    for (std::vector<Watcher> &ws : watches_)
        ws.clear();
    for (ClauseRef c : clauses_)
        AttachClause(c);
    for (ClauseRef c : learnts_)
        AttachClause(c);
}

SatStatus
SatSolver::Solve(int64_t max_conflicts)
{
    if (!ok_)
        return SatStatus::kUnsat;
    ++stats_.solve_calls;
    return Search(max_conflicts);
}

SatStatus
SatSolver::Search(int64_t max_conflicts)
{
    BacktrackTo(0);
    if (learnt_cap_ <= 0) {
        learnt_cap_ = std::max<int64_t>(
            kLearntFloor,
            static_cast<int64_t>(clauses_.size()) / kLearntDivisor);
    }
    if (static_cast<int64_t>(learnts_.size()) >= learnt_cap_) {
        ReduceDB();
        learnt_cap_ += learnt_cap_ * kLearntGrowthPct / 100;
    }

    int64_t conflicts = 0;
    int64_t restart_budget = kRestartBase;
    int64_t conflicts_at_restart = 0;

    while (true) {
        const ClauseRef conflict = Propagate();
        if (conflict != kNoClause) {
            ++conflicts;
            ++stats_.conflicts;
            if (DecisionLevel() == 0) {
                ok_ = false;
                return SatStatus::kUnsat;
            }
            if (!heap_built_)
                BuildOrderHeap();
            uint32_t btlevel = 0;
            Analyze(conflict, &learnt_lits_, &btlevel);
            BacktrackTo(btlevel);
            if (learnt_lits_.size() == 1) {
                // Analyze backjumps unit learnts to the root level.
                Enqueue(learnt_lits_[0], kNoClause);
            } else {
                const ClauseRef cref =
                    AllocClause(learnt_lits_.data(), learnt_lits_.size(),
                                /*learnt=*/true);
                learnts_.push_back(cref);
                AttachClause(cref);
                BumpClause(cref);
                Enqueue(learnt_lits_[0], cref);
            }
            DecayVarActivity();
            DecayClauseActivity();
            if (max_conflicts >= 0 && conflicts >= max_conflicts) {
                BacktrackTo(0);
                ++stats_.budget_exhausted;
                return SatStatus::kUnknown;
            }
            if (conflicts - conflicts_at_restart >= restart_budget) {
                conflicts_at_restart = conflicts;
                restart_budget =
                    static_cast<int64_t>(restart_budget * kRestartGrowth);
                ++stats_.restarts;
                BacktrackTo(0);
                if (static_cast<int64_t>(learnts_.size()) >= learnt_cap_) {
                    ReduceDB();
                    learnt_cap_ += learnt_cap_ * kLearntGrowthPct / 100;
                }
            }
            continue;
        }

        const Lit next = PickBranchLit();
        if (next.code() == 0xffffffffu) {
            // All variables assigned: model found. The assignment stays
            // on the trail until the next Solve or AddClause backtracks.
            model_ = assigns_;
            return SatStatus::kSat;
        }
        ++stats_.decisions;
        NewDecisionLevel();
        Enqueue(next, kNoClause);
    }
}

}  // namespace smt
}  // namespace achilles
