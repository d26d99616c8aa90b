// Achilles reproduction -- SMT library.
//
// Concrete evaluation of expressions under a variable assignment, and the
// Model type returned by the solver. The evaluator is also used by the
// test suite to validate SAT models (every model the solver returns is
// checked against the original constraints) and by the ground-truth
// oracles in the experiment harnesses.

#ifndef ACHILLES_SMT_EVAL_H_
#define ACHILLES_SMT_EVAL_H_

#include <cstdint>
#include <unordered_map>

#include "smt/expr.h"

namespace achilles {
namespace smt {

/**
 * A concrete assignment of symbolic variables.
 *
 * Variables absent from the map default to zero, matching the solver's
 * treatment of don't-care bits.
 */
class Model
{
  public:
    /** Assign a value to a variable (masked to the variable's width). */
    void Set(uint32_t var_id, uint64_t value) { values_[var_id] = value; }

    /** Value of a variable (zero if unassigned). */
    uint64_t
    Get(uint32_t var_id) const
    {
        auto it = values_.find(var_id);
        return it == values_.end() ? 0 : it->second;
    }

    bool Has(uint32_t var_id) const { return values_.count(var_id) != 0; }

    const std::unordered_map<uint32_t, uint64_t> &values() const
    {
        return values_;
    }

  private:
    std::unordered_map<uint32_t, uint64_t> values_;
};

/**
 * Evaluate `e` under `model`, returning the value masked to e->width().
 * Memoizes across the DAG, in per-thread scratch indexed by Expr::id()
 * and cleared per call, so repeated shared sub-expressions (CRC chains)
 * evaluate in linear time.
 */
uint64_t Evaluate(ExprRef e, const Model &model);

/** Evaluate a width-1 expression as a boolean. */
inline bool
EvaluateBool(ExprRef e, const Model &model)
{
    ACHILLES_CHECK(e->width() == 1);
    return Evaluate(e, model) != 0;
}

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_EVAL_H_
