// Achilles reproduction -- core library.
//
// The differentFrom precomputation (paper Section 3.3).
// differentFrom[i][j][field] == TRUE means there exists a message in
// pathC_i whose value for `field` is not attainable by any message of
// pathC_j. During server exploration, when pathC_i is dropped because of
// a new constraint on an independent field a, every pathC_j with
// differentFrom[j][i][a] == FALSE can be dropped as well without a
// solver call.
//
// The matrix is only computed for *independent* fields -- fields whose
// client-side value expressions and constraints share no variables with
// other fields (the paper's condition for the optimization to be sound).
//
// Implementation note: client paths allocate fresh input variables, so
// structurally identical field definitions are first grouped into value
// classes by canonical hashing; solver queries run between class
// representatives only, which turns the O(n^2) pairwise computation into
// O(c^2) with c = number of distinct value classes (single digits in
// practice).

#ifndef ACHILLES_CORE_DIFFERENT_FROM_H_
#define ACHILLES_CORE_DIFFERENT_FROM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/message.h"
#include "core/negate.h"
#include "core/path_predicate.h"
#include "obs/metrics.h"
#include "smt/solver.h"

namespace achilles {
namespace core {

/** Precomputation counters (single-threaded, like Compute). */
struct DifferentFromStats
{
    int64_t independent_fields = 0;
    int64_t dependent_fields = 0;
    int64_t value_classes = 0;
    int64_t solver_queries = 0;

    /** The one place these counters are named ("difffrom.*"). */
    void AddTo(obs::CounterView *view) const;
};

/** Precomputed differentFrom relation over client path predicates. */
class DifferentFromMatrix
{
  public:
    DifferentFromMatrix(smt::ExprContext *ctx, smt::Solver *solver,
                        const MessageLayout *layout)
        : ctx_(ctx), solver_(solver), layout_(layout)
    {
    }

    /**
     * Compute the relation for all analyzed independent fields.
     * `negate_op` supplies per-field negations for the value-set
     * difference queries.
     */
    void Compute(const std::vector<ClientPathPredicate> &preds,
                 NegateOperator *negate_op);

    /** True iff `field` was classified independent (and computed). */
    bool
    IsIndependentField(const std::string &field) const
    {
        return per_field_.count(field) != 0;
    }

    /**
     * differentFrom[i][j][field]; false for dependent fields and
     * un-computed pairs (the conservative default -- a FALSE answer only
     * ever causes extra solver checks, never wrong dropping).
     */
    bool Different(size_t i, size_t j, const std::string &field) const;

    /** All predicates j with Different(j, i, field) == false. */
    std::vector<uint32_t> SameValueClass(size_t i,
                                         const std::string &field) const;

    /** The precomputation's counters as a name -> value view. */
    obs::CounterView stats() const { return obs::ViewOf(stats_); }

  private:
    struct FieldRelation
    {
        /** Value-class index of each predicate for this field. */
        std::vector<uint32_t> class_of;
        /** Predicates per class (for SameValueClass). */
        std::vector<std::vector<uint32_t>> members;
        /** different[a][b] over class indices. */
        std::vector<std::vector<uint8_t>> different;
    };

    smt::ExprContext *ctx_;
    smt::Solver *solver_;
    const MessageLayout *layout_;
    std::unordered_map<std::string, FieldRelation> per_field_;
    DifferentFromStats stats_;
};

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_DIFFERENT_FROM_H_
