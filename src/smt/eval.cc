// Achilles reproduction -- SMT library.

#include "smt/eval.h"

#include "smt/stamp_table.h"

namespace achilles {
namespace smt {

namespace {

uint64_t
EvalNode(ExprRef e, const Model &model, StampTable<uint64_t> &memo)
{
    if (const uint64_t *hit = memo.Find(e->id()))
        return *hit;

    const uint64_t mask = WidthMask(e->width());
    auto kid = [&](size_t i) { return EvalNode(e->kid(i), model, memo); };

    uint64_t result = 0;
    switch (e->kind()) {
      case Kind::kConst:
        result = e->ConstValue();
        break;
      case Kind::kVar:
        result = model.Get(e->VarId()) & mask;
        break;
      case Kind::kAdd:
        result = kid(0) + kid(1);
        break;
      case Kind::kSub:
        result = kid(0) - kid(1);
        break;
      case Kind::kMul:
        result = kid(0) * kid(1);
        break;
      case Kind::kUDiv: {
        const uint64_t d = kid(1);
        result = d == 0 ? mask : kid(0) / d;
        break;
      }
      case Kind::kURem: {
        const uint64_t d = kid(1);
        result = d == 0 ? kid(0) : kid(0) % d;
        break;
      }
      case Kind::kAnd:
        result = kid(0) & kid(1);
        break;
      case Kind::kOr:
        result = kid(0) | kid(1);
        break;
      case Kind::kXor:
        result = kid(0) ^ kid(1);
        break;
      case Kind::kNot:
        result = ~kid(0);
        break;
      case Kind::kShl: {
        const uint64_t s = kid(1);
        result = s >= e->width() ? 0 : kid(0) << s;
        break;
      }
      case Kind::kLShr: {
        const uint64_t s = kid(1);
        result = s >= e->width() ? 0 : (kid(0) & mask) >> s;
        break;
      }
      case Kind::kAShr: {
        const uint64_t s = kid(1);
        const int64_t sv = SignExtendTo64(kid(0), e->width());
        result = s >= 63 ? static_cast<uint64_t>(sv < 0 ? -1 : 0)
                         : static_cast<uint64_t>(sv >> s);
        break;
      }
      case Kind::kConcat:
        result = (kid(0) << e->kid(1)->width()) | (kid(1) &
                 WidthMask(e->kid(1)->width()));
        break;
      case Kind::kExtract:
        result = kid(0) >> e->aux();
        break;
      case Kind::kZExt:
        result = kid(0) & WidthMask(e->kid(0)->width());
        break;
      case Kind::kSExt:
        result = static_cast<uint64_t>(
            SignExtendTo64(kid(0), e->kid(0)->width()));
        break;
      case Kind::kEq: {
        const uint32_t kw = e->kid(0)->width();
        result = ((kid(0) & WidthMask(kw)) == (kid(1) & WidthMask(kw)))
                     ? 1 : 0;
        break;
      }
      case Kind::kUlt: {
        const uint32_t kw = e->kid(0)->width();
        result = ((kid(0) & WidthMask(kw)) < (kid(1) & WidthMask(kw)))
                     ? 1 : 0;
        break;
      }
      case Kind::kUle: {
        const uint32_t kw = e->kid(0)->width();
        result = ((kid(0) & WidthMask(kw)) <= (kid(1) & WidthMask(kw)))
                     ? 1 : 0;
        break;
      }
      case Kind::kSlt: {
        const uint32_t kw = e->kid(0)->width();
        result = (SignExtendTo64(kid(0), kw) < SignExtendTo64(kid(1), kw))
                     ? 1 : 0;
        break;
      }
      case Kind::kSle: {
        const uint32_t kw = e->kid(0)->width();
        result = (SignExtendTo64(kid(0), kw) <= SignExtendTo64(kid(1), kw))
                     ? 1 : 0;
        break;
      }
      case Kind::kIte:
        result = kid(0) ? kid(1) : kid(2);
        break;
    }
    result &= mask;
    memo.Set(e->id(), result);
    return result;
}

}  // namespace

uint64_t
Evaluate(ExprRef e, const Model &model)
{
    // Per-thread memo by node id, cleared per call (see StampTable).
    thread_local StampTable<uint64_t> memo;
    memo.Clear();
    memo.Reserve(e->id() + size_t{1});
    return EvalNode(e, model, memo);
}

}  // namespace smt
}  // namespace achilles
