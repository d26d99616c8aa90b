// Achilles reproduction -- core library.

#include "core/different_from.h"

#include <unordered_set>

namespace achilles {
namespace core {

namespace {

/** Per-predicate, per-field definition: value expression + constraints. */
struct FieldDef
{
    smt::ExprRef expr = nullptr;
    std::vector<smt::ExprRef> constraints;
    std::unordered_set<uint32_t> vars;
};

FieldDef
DefineField(smt::ExprContext *ctx, const MessageLayout *layout,
            const ClientPathPredicate &pred, const FieldSpec &field)
{
    FieldDef def;
    def.expr = layout->FieldExpr(ctx, pred.bytes, field);
    ctx->CollectVars(def.expr, &def.vars);
    // Constraints touching the field's variables (transitively closed:
    // constraints may link the field vars to further vars).
    bool changed = true;
    std::unordered_set<const smt::Expr *> included;
    while (changed) {
        changed = false;
        for (smt::ExprRef c : pred.constraints) {
            if (included.count(c))
                continue;
            std::unordered_set<uint32_t> cvars;
            ctx->CollectVars(c, &cvars);
            bool touches = false;
            for (uint32_t v : cvars) {
                if (def.vars.count(v)) {
                    touches = true;
                    break;
                }
            }
            if (touches) {
                included.insert(c);
                def.constraints.push_back(c);
                for (uint32_t v : cvars)
                    def.vars.insert(v);
                changed = true;
            }
        }
    }
    return def;
}

}  // namespace

void
DifferentFromStats::AddTo(obs::CounterView *view) const
{
    view->Add("difffrom.independent_fields", independent_fields);
    view->Add("difffrom.dependent_fields", dependent_fields);
    view->Add("difffrom.value_classes", value_classes);
    view->Add("difffrom.solver_queries", solver_queries);
}

void
DifferentFromMatrix::Compute(const std::vector<ClientPathPredicate> &preds,
                             NegateOperator *negate_op)
{
    per_field_.clear();
    const std::vector<FieldSpec> analyzed = layout_->AnalyzedFields();
    const size_t n = preds.size();

    // Field definitions for every (pred, field).
    std::vector<std::vector<FieldDef>> defs(n);
    for (size_t p = 0; p < n; ++p) {
        defs[p].reserve(analyzed.size());
        for (const FieldSpec &field : analyzed)
            defs[p].push_back(DefineField(ctx_, layout_, preds[p], field));
    }

    // A field is independent iff, in every predicate, its variable set
    // is disjoint from every other analyzed field's variable set.
    for (size_t f = 0; f < analyzed.size(); ++f) {
        bool independent = true;
        for (size_t p = 0; p < n && independent; ++p) {
            for (size_t g = 0; g < analyzed.size() && independent; ++g) {
                if (g == f)
                    continue;
                for (uint32_t v : defs[p][f].vars) {
                    if (defs[p][g].vars.count(v)) {
                        independent = false;
                        break;
                    }
                }
            }
        }
        if (!independent) {
            ++stats_.dependent_fields;
            continue;
        }
        ++stats_.independent_fields;

        FieldRelation rel;
        rel.class_of.resize(n);

        // Group predicates into value classes by canonical hash of the
        // field definition (expression + constraints, alpha-renamed).
        CanonicalHasher hasher(ctx_);
        std::unordered_map<uint64_t, uint32_t> class_by_hash;
        for (size_t p = 0; p < n; ++p) {
            std::vector<smt::ExprRef> key{defs[p][f].expr};
            key.insert(key.end(), defs[p][f].constraints.begin(),
                       defs[p][f].constraints.end());
            const uint64_t h = hasher.HashExprs(key);
            auto [it, inserted] = class_by_hash.emplace(
                h, static_cast<uint32_t>(rel.members.size()));
            if (inserted)
                rel.members.emplace_back();
            rel.class_of[p] = it->second;
            rel.members[it->second].push_back(static_cast<uint32_t>(p));
        }
        const size_t c = rel.members.size();
        stats_.value_classes += static_cast<int64_t>(c);

        // Pairwise class queries: does class A contain a field value
        // outside class B's value set?
        rel.different.assign(c, std::vector<uint8_t>(c, 0));
        smt::ExprRef probe =
            ctx_->FreshVar("probe_" + analyzed[f].name,
                           analyzed[f].size * 8);
        for (size_t a = 0; a < c; ++a) {
            const uint32_t pa = rel.members[a][0];
            for (size_t b = 0; b < c; ++b) {
                if (a == b)
                    continue;  // same definition: never different
                const uint32_t pb = rel.members[b][0];
                smt::ExprRef neg_b = negate_op->NegateFieldAgainst(
                    preds[pb], analyzed[f], probe);
                if (neg_b == nullptr) {
                    // Negation abandoned: cannot demonstrate difference.
                    continue;
                }
                std::vector<smt::ExprRef> query = defs[pa][f].constraints;
                query.push_back(ctx_->MakeEq(probe, defs[pa][f].expr));
                query.push_back(neg_b);
                ++stats_.solver_queries;
                if (solver_->CheckSat(query) == smt::CheckResult::kSat)
                    rel.different[a][b] = 1;
            }
        }
        per_field_.emplace(analyzed[f].name, std::move(rel));
    }
}

bool
DifferentFromMatrix::Different(size_t i, size_t j,
                               const std::string &field) const
{
    auto it = per_field_.find(field);
    if (it == per_field_.end())
        return false;
    const FieldRelation &rel = it->second;
    ACHILLES_CHECK(i < rel.class_of.size() && j < rel.class_of.size());
    const uint32_t ci = rel.class_of[i];
    const uint32_t cj = rel.class_of[j];
    if (ci == cj)
        return false;
    return rel.different[ci][cj] != 0;
}

std::vector<uint32_t>
DifferentFromMatrix::SameValueClass(size_t i, const std::string &field) const
{
    auto it = per_field_.find(field);
    if (it == per_field_.end())
        return {};
    const FieldRelation &rel = it->second;
    ACHILLES_CHECK(i < rel.class_of.size());
    return rel.members[rel.class_of[i]];
}

}  // namespace core
}  // namespace achilles
