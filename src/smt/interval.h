// Achilles reproduction -- SMT library.
//
// Unsigned-interval abstract interpretation over the expression DAG.
// Used as a cheap pre-check before bit-blasting: most UNSAT queries the
// Trojan search generates come from contradictory range checks on message
// fields (e.g. `addr < 100` on one side and `addr >= 100` on the other),
// which interval propagation refutes without touching the SAT solver.
//
// Soundness contract: IntervalCheck only ever answers "definitely UNSAT"
// or "don't know"; it never claims SAT.

#ifndef ACHILLES_SMT_INTERVAL_H_
#define ACHILLES_SMT_INTERVAL_H_

#include <unordered_map>
#include <vector>

#include "smt/expr.h"

namespace achilles {
namespace smt {

/** Closed unsigned interval [lo, hi]; lo > hi encodes the empty set. */
struct Interval
{
    uint64_t lo = 0;
    uint64_t hi = ~0ull;

    bool Empty() const { return lo > hi; }
    bool IsSingleton() const { return lo == hi; }
    bool Contains(uint64_t v) const { return lo <= v && v <= hi; }

    static Interval Full(uint32_t width) { return {0, WidthMask(width)}; }
    static Interval Point(uint64_t v) { return {v, v}; }
    static Interval EmptySet() { return {1, 0}; }

    /** Intersection of two intervals. */
    Interval
    Meet(const Interval &o) const
    {
        return {std::max(lo, o.lo), std::min(hi, o.hi)};
    }

    /** Smallest interval containing both (convex hull). */
    Interval
    Join(const Interval &o) const
    {
        if (Empty())
            return o;
        if (o.Empty())
            return *this;
        return {std::min(lo, o.lo), std::max(hi, o.hi)};
    }
};

/**
 * Interval-based UNSAT pre-check for a conjunction of width-1 assertions.
 *
 * Seeds per-variable ranges from atoms of the shapes `x op const` /
 * `const op x` (also through ZExt), iterates to a fixpoint, then
 * evaluates every assertion in the interval domain. Returns true iff the
 * conjunction is *provably* unsatisfiable.
 */
class IntervalChecker
{
  public:
    /** True iff the conjunction of `assertions` is definitely UNSAT. */
    bool DefinitelyUnsat(const std::vector<ExprRef> &assertions);

    /** Interval of `e` under the last DefinitelyUnsat() environment. */
    Interval IntervalOf(ExprRef e);

  private:
    void SeedFromAtom(ExprRef atom, bool positive);
    void Narrow(ExprRef var_like, const Interval &interval);

    std::unordered_map<uint32_t, Interval> env_;
    std::unordered_map<const Expr *, Interval> memo_;
};

/** Flatten an And-tree of width-1 expressions into conjuncts. */
void FlattenConjunction(ExprRef e, std::vector<ExprRef> *out);

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_INTERVAL_H_
