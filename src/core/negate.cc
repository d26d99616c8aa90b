// Achilles reproduction -- core library.
//
// Implementation of the custom negate operator.

#include "core/negate.h"

#include <unordered_map>
#include <unordered_set>

namespace achilles {
namespace core {
namespace {

/**
 * True when `e` is a chain of injective links over one variable: each
 * link is `not`, a zero or sign extension, `add`/`sub`/`xor` with a
 * constant on either side, or `mul` by an odd constant. Every such link
 * is one-to-one on its width (an odd multiplier is a unit mod 2^w), so
 * e(x) == e(x') forces x == x'.
 */
bool
IsInjectiveChain(smt::ExprRef e)
{
    while (!e->IsVar()) {
        switch (e->kind()) {
          case smt::Kind::kNot:
          case smt::Kind::kZExt:
          case smt::Kind::kSExt:
            e = e->kid(0);
            break;
          case smt::Kind::kAdd:
          case smt::Kind::kSub:
          case smt::Kind::kXor:
          case smt::Kind::kMul: {
            smt::ExprRef a = e->kid(0);
            smt::ExprRef b = e->kid(1);
            if (a->IsConst() == b->IsConst())
                return false;
            smt::ExprRef k = a->IsConst() ? a : b;
            if (e->kind() == smt::Kind::kMul && (k->ConstValue() & 1) == 0)
                return false;
            e = a->IsConst() ? b : a;
            break;
          }
          default:
            return false;
        }
    }
    return true;
}

}  // namespace

void
NegateStats::AddTo(obs::CounterView *view) const
{
    view->Add("negate.exact_predicates",
              static_cast<int64_t>(exact_predicates));
    view->Add("negate.approx_predicates",
              static_cast<int64_t>(approx_predicates));
    view->Add("negate.abandoned_fields",
              static_cast<int64_t>(abandoned_fields));
    view->Add("negate.overlap_discarded",
              static_cast<int64_t>(overlap_discarded));
    view->Add("negate.overlap_proven", static_cast<int64_t>(overlap_proven));
}

NegateOperator::NegateOperator(smt::ExprContext *ctx, smt::Solver *solver,
                               const MessageLayout *layout,
                               std::vector<smt::ExprRef> server_message)
    : ctx_(ctx), solver_(solver), layout_(layout),
      server_message_(std::move(server_message))
{
    ACHILLES_CHECK(server_message_.size() >= layout_->length(),
                   "server message shorter than layout");
}

std::vector<smt::ExprRef>
NegateOperator::ConstraintsTouching(
    const ClientPathPredicate &pred,
    const std::unordered_set<uint32_t> &vars) const
{
    std::vector<smt::ExprRef> out;
    for (smt::ExprRef c : pred.constraints) {
        std::unordered_set<uint32_t> cvars;
        ctx_->CollectVars(c, &cvars);
        for (uint32_t v : cvars) {
            if (vars.count(v)) {
                out.push_back(c);
                break;
            }
        }
    }
    return out;
}

FieldNegation
NegateOperator::NegateField(const ClientPathPredicate &pred,
                            const FieldSpec &field, smt::ExprRef target)
{
    FieldNegation result;
    result.field = field.name;

    smt::ExprRef e = layout_->FieldExpr(ctx_, pred.bytes, field);

    // Case 1: concrete constant -> target != C (exact complement).
    if (e->IsConst()) {
        result.expr = ctx_->MakeNe(target, e);
        result.exact = true;
        return result;
    }

    std::unordered_set<uint32_t> evars;
    ctx_->CollectVars(e, &evars);
    std::vector<smt::ExprRef> touching = ConstraintsTouching(pred, evars);

    // Does the touching constraint set involve variables beyond the
    // field's own? If so, substitution is not meaningful for this field
    // alone and we must fall through to the fresh-copy encoding.
    std::unordered_set<uint32_t> cons_vars;
    for (smt::ExprRef c : touching)
        ctx_->CollectVars(c, &cons_vars);
    bool self_contained = true;
    for (uint32_t v : cons_vars)
        self_contained &= (evars.count(v) != 0);

    // Case 2: pure input variable with self-contained constraints ->
    // substitute the server field for the variable and negate each
    // constraint (exact complement of the value set).
    if (e->IsVar() && self_contained) {
        if (touching.empty()) {
            // Unconstrained field: its value set is the full domain, so
            // the complement is exactly empty -- nothing to negate, and
            // that omission is exact.
            ++stats_.abandoned_fields;
            result.exact = true;
            return result;
        }
        std::unordered_map<uint32_t, smt::ExprRef> sub{
            {e->VarId(), target}};
        std::vector<smt::ExprRef> negated;
        for (smt::ExprRef c : touching)
            negated.push_back(ctx_->MakeNot(ctx_->Substitute(c, sub)));
        result.expr = ctx_->MakeOrList(negated);
        result.exact = true;
        return result;
    }

    // Case 3: complex expression. Make fresh copies of all involved
    // client variables, require target to be producible by the
    // expression under the *negated* constraints:
    //   target == e(λ') ∧ (¬s1(λ') ∨ ¬s2(λ') ∨ ...)
    if (touching.empty()) {
        // No constraints to negate: abandon this field (paper: "if there
        // are no constraints available, abandon the negation").
        ++stats_.abandoned_fields;
        return result;
    }
    std::unordered_set<uint32_t> all_vars = evars;
    for (uint32_t v : cons_vars)
        all_vars.insert(v);
    std::unordered_map<uint32_t, smt::ExprRef> fresh;
    for (uint32_t v : all_vars) {
        const smt::VarInfo &info = ctx_->InfoOf(v);
        fresh.emplace(v, ctx_->FreshVar(info.name + "~neg", info.width));
    }
    smt::ExprRef e_fresh = ctx_->Substitute(e, fresh);
    std::vector<smt::ExprRef> negated;
    for (smt::ExprRef c : touching)
        negated.push_back(ctx_->MakeNot(ctx_->Substitute(c, fresh)));
    smt::ExprRef candidate = ctx_->MakeAnd(
        ctx_->MakeEq(target, e_fresh), ctx_->MakeOrList(negated));

    // Soundness filter (Section 4.1): if some target value is reachable
    // both under the original constraints and under the negated copy,
    // the candidate overlaps the original value set -- discard it so the
    // negate operator stays an under-approximation of the complement.
    // An injective chain over the one variable its constraints mention
    // cannot overlap: e(λ) == e(λ') forces λ == λ', and no λ satisfies
    // both the constraints and one of their negations. Every other shape
    // asks the solver.
    if (self_contained && IsInjectiveChain(e)) {
        ++stats_.overlap_proven;
    } else {
        std::vector<smt::ExprRef> overlap_query = touching;
        overlap_query.push_back(ctx_->MakeEq(target, e));
        overlap_query.push_back(candidate);
        if (solver_->CheckSat(overlap_query) != smt::CheckResult::kUnsat) {
            ++stats_.overlap_discarded;
            return result;
        }
    }
    result.expr = candidate;
    result.exact = false;
    return result;
}

smt::ExprRef
NegateOperator::NegateFieldAgainst(const ClientPathPredicate &pred,
                                   const FieldSpec &field,
                                   smt::ExprRef probe)
{
    return NegateField(pred, field, probe).expr;
}

NegatedPredicate
NegateOperator::Negate(const ClientPathPredicate &pred)
{
    NegatedPredicate out;
    out.pred_id = pred.id;

    const std::vector<FieldSpec> analyzed = layout_->AnalyzedFields();

    // Exactness additionally requires the analyzed fields to be pairwise
    // variable-disjoint (product structure); compute the per-field
    // variable sets once.
    std::vector<std::unordered_set<uint32_t>> field_vars(analyzed.size());
    for (size_t i = 0; i < analyzed.size(); ++i) {
        smt::ExprRef e = layout_->FieldExpr(ctx_, pred.bytes, analyzed[i]);
        ctx_->CollectVars(e, &field_vars[i]);
        for (smt::ExprRef c : ConstraintsTouching(pred, field_vars[i]))
            ctx_->CollectVars(c, &field_vars[i]);
    }
    bool disjoint = true;
    for (size_t i = 0; i < analyzed.size() && disjoint; ++i) {
        for (size_t j = i + 1; j < analyzed.size() && disjoint; ++j) {
            for (uint32_t v : field_vars[i]) {
                if (field_vars[j].count(v)) {
                    disjoint = false;
                    break;
                }
            }
        }
    }

    bool all_exact = disjoint;
    for (const FieldSpec &field : analyzed) {
        FieldNegation fn =
            NegateField(pred, field, ServerFieldExpr(field));
        all_exact &= fn.exact;
        if (fn.expr != nullptr)
            out.fields.push_back(std::move(fn));
    }
    out.exact = all_exact && !out.fields.empty();
    if (out.exact)
        ++stats_.exact_predicates;
    else
        ++stats_.approx_predicates;
    return out;
}

}  // namespace core
}  // namespace achilles
