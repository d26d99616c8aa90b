// Achilles reproduction -- SMT library.

#include "smt/interval.h"

#include <algorithm>

namespace achilles {
namespace smt {

void
FlattenConjunction(ExprRef e, std::vector<ExprRef> *out)
{
    ACHILLES_CHECK(e->width() == 1);
    if (e->kind() == Kind::kAnd) {
        FlattenConjunction(e->kid(0), out);
        FlattenConjunction(e->kid(1), out);
        return;
    }
    out->push_back(e);
}

namespace {

/** Strip ZExt wrappers; returns the inner expression. */
ExprRef
StripZExt(ExprRef e)
{
    while (e->kind() == Kind::kZExt)
        e = e->kid(0);
    return e;
}

}  // namespace

void
IntervalChecker::Narrow(ExprRef var_like, const Interval &interval)
{
    ExprRef inner = StripZExt(var_like);
    if (!inner->IsVar())
        return;
    // The ZExt wrapper does not change the unsigned value, so intervals
    // transfer directly (clipped to the inner width).
    const Interval clipped = interval.Meet(Interval::Full(inner->width()));
    auto [it, inserted] = env_.emplace(inner->VarId(), clipped);
    if (!inserted)
        it->second = it->second.Meet(clipped);
}

void
IntervalChecker::SeedFromAtom(ExprRef atom, bool positive)
{
    if (atom->kind() == Kind::kNot) {
        SeedFromAtom(atom->kid(0), !positive);
        return;
    }
    const Kind kind = atom->kind();
    if (kind != Kind::kEq && kind != Kind::kUlt && kind != Kind::kUle)
        return;
    ExprRef a = atom->kid(0);
    ExprRef b = atom->kid(1);
    const bool a_const = a->IsConst();
    const bool b_const = b->IsConst();
    if (a_const == b_const)
        return;  // need exactly one constant side
    const uint64_t c = (a_const ? a : b)->ConstValue();
    ExprRef x = a_const ? b : a;
    const uint64_t mask = WidthMask(x->width());

    if (kind == Kind::kEq) {
        if (positive)
            Narrow(x, Interval::Point(c));
        // Negative equality only prunes at interval endpoints; skip.
        return;
    }
    // Normalize to "x REL c" with REL in {<, <=, >, >=} (unsigned).
    // atom is (a kind b); flip when the constant is on the left.
    bool lt = kind == Kind::kUlt;
    bool x_on_left = !a_const;
    if (!positive) {
        // !(x < c) == x >= c; !(c < x) == x <= c; etc.
        x_on_left = !x_on_left;
        lt = !lt;  // Ult <-> Ule dual under negation with side flip
    }
    if (x_on_left) {
        // x < c  or  x <= c
        if (lt) {
            if (c == 0)
                Narrow(x, Interval::EmptySet());
            else
                Narrow(x, Interval{0, c - 1});
        } else {
            Narrow(x, Interval{0, c});
        }
    } else {
        // c < x  or  c <= x
        if (lt) {
            if (c == mask)
                Narrow(x, Interval::EmptySet());
            else
                Narrow(x, Interval{c + 1, mask});
        } else {
            Narrow(x, Interval{c, mask});
        }
    }
}

Interval
IntervalChecker::IntervalOf(ExprRef e)
{
    auto it = memo_.find(e);
    if (it != memo_.end())
        return it->second;

    const uint64_t mask = WidthMask(e->width());
    Interval result = Interval::Full(e->width());
    auto kid = [&](size_t i) { return IntervalOf(e->kid(i)); };

    switch (e->kind()) {
      case Kind::kConst:
        result = Interval::Point(e->ConstValue());
        break;
      case Kind::kVar: {
        auto vit = env_.find(e->VarId());
        if (vit != env_.end())
            result = vit->second;
        break;
      }
      case Kind::kAdd: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty()) {
            result = Interval::EmptySet();
        } else if (b.hi <= mask - a.hi) {  // no wrap possible
            result = {a.lo + b.lo, a.hi + b.hi};
        }
        break;
      }
      case Kind::kSub: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty())
            result = Interval::EmptySet();
        else if (a.lo >= b.hi)  // no borrow possible
            result = {a.lo - b.hi, a.hi - b.lo};
        break;
      }
      case Kind::kMul: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty()) {
            result = Interval::EmptySet();
        } else if (a.hi != 0 && b.hi != 0) {
            // Safe only if the max product cannot wrap.
            const unsigned __int128 max_prod =
                static_cast<unsigned __int128>(a.hi) * b.hi;
            if (max_prod <= mask)
                result = {a.lo * b.lo, a.hi * b.hi};
        } else {
            result = Interval::Point(0);
        }
        break;
      }
      case Kind::kAnd: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty())
            result = Interval::EmptySet();
        else
            result = {0, std::min(a.hi, b.hi)};
        break;
      }
      case Kind::kOr: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty()) {
            result = Interval::EmptySet();
        } else {
            // max(or) < 2^ceil(log2(max(a.hi,b.hi)+1)); keep it simple:
            uint64_t bound = a.hi | b.hi;
            // Round up to a contiguous low mask (sound upper bound).
            bound |= bound >> 1;
            bound |= bound >> 2;
            bound |= bound >> 4;
            bound |= bound >> 8;
            bound |= bound >> 16;
            bound |= bound >> 32;
            result = {std::max(a.lo, b.lo), bound & mask};
        }
        break;
      }
      case Kind::kZExt:
        result = kid(0);
        break;
      case Kind::kConcat: {
        const Interval high = kid(0), low = kid(1);
        const uint32_t lw = e->kid(1)->width();
        if (high.Empty() || low.Empty()) {
            result = Interval::EmptySet();
        } else if (low.lo == 0 && low.hi == WidthMask(lw)) {
            result = {high.lo << lw, (high.hi << lw) | low.hi};
        } else {
            result = {(high.lo << lw) | low.lo, (high.hi << lw) | low.hi};
            // Only precise if high is a singleton; otherwise widen the
            // low part to keep soundness.
            if (!high.IsSingleton())
                result = {high.lo << lw, (high.hi << lw) | WidthMask(lw)};
        }
        break;
      }
      case Kind::kExtract: {
        if (e->aux() == 0) {
            const Interval a = kid(0);
            if (a.Empty())
                result = Interval::EmptySet();
            else if (a.hi <= mask)
                result = a;
        }
        break;
      }
      case Kind::kEq: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty())
            result = Interval::EmptySet();
        else if (a.IsSingleton() && b.IsSingleton())
            result = Interval::Point(a.lo == b.lo ? 1 : 0);
        else if (a.Meet(b).Empty())
            result = Interval::Point(0);
        else
            result = {0, 1};
        break;
      }
      case Kind::kUlt: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty())
            result = Interval::EmptySet();
        else if (a.hi < b.lo)
            result = Interval::Point(1);
        else if (a.lo >= b.hi)
            result = Interval::Point(0);
        else
            result = {0, 1};
        break;
      }
      case Kind::kUle: {
        const Interval a = kid(0), b = kid(1);
        if (a.Empty() || b.Empty())
            result = Interval::EmptySet();
        else if (a.hi <= b.lo)
            result = Interval::Point(1);
        else if (a.lo > b.hi)
            result = Interval::Point(0);
        else
            result = {0, 1};
        break;
      }
      case Kind::kNot: {
        if (e->width() == 1) {
            const Interval a = kid(0);
            if (a.Empty())
                result = Interval::EmptySet();
            else if (a.IsSingleton())
                result = Interval::Point(a.lo ? 0 : 1);
            else
                result = {0, 1};
        }
        break;
      }
      case Kind::kIte: {
        const Interval c = kid(0);
        if (c.Empty()) {
            result = Interval::EmptySet();
        } else if (c.IsSingleton()) {
            result = c.lo ? kid(1) : kid(2);
        } else {
            result = kid(1).Join(kid(2));
        }
        break;
      }
      default:
        // Unsupported operators stay at Full (sound).
        break;
    }
    memo_.emplace(e, result);
    return result;
}

bool
IntervalChecker::DefinitelyUnsat(const std::vector<ExprRef> &assertions)
{
    env_.clear();
    memo_.clear();

    std::vector<ExprRef> atoms;
    for (ExprRef e : assertions)
        FlattenConjunction(e, &atoms);
    for (ExprRef atom : atoms)
        SeedFromAtom(atom, /*positive=*/true);
    // A variable narrowed to the empty interval refutes the conjunction.
    for (const auto &[var, interval] : env_) {
        if (interval.Empty())
            return true;
    }
    // Evaluate each atom under the seeded environment.
    for (ExprRef atom : atoms) {
        const Interval v = IntervalOf(atom);
        if (v.Empty() || (v.IsSingleton() && v.lo == 0))
            return true;
    }
    return false;
}

}  // namespace smt
}  // namespace achilles
