// Achilles reproduction -- tests.
//
// Negate operator tests, following the cases of paper Section 3.2:
// concrete fields, constrained pure-variable fields, complex expressions
// with fresh-copy encoding, abandoned fields, and the Section 4.1
// overlap soundness filter, whose structural proof is checked against
// the solver's own overlap verdict.

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/message.h"
#include "core/negate.h"
#include "core/path_predicate.h"
#include "smt/eval.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace achilles {
namespace core {
namespace {

using smt::CheckResult;
using smt::ExprContext;
using smt::ExprRef;
using smt::Model;
using smt::Solver;
using smt::SolverConfig;

class NegateTest : public ::testing::Test
{
  protected:
    NegateTest() : solver(&ctx)
    {
        layout = core::MessageLayout(3);
        layout.AddField("request", 0, 1)
            .AddField("address", 1, 1)
            .AddField("crc", 2, 1);
        for (int i = 0; i < 3; ++i)
            server_msg.push_back(ctx.FreshVar("M", 8));
    }

    NegateOperator
    MakeOp()
    {
        return NegateOperator(&ctx, &solver, &layout, server_msg);
    }

    ExprContext ctx;
    Solver solver;
    MessageLayout layout;
    std::vector<ExprRef> server_msg;
};

TEST_F(NegateTest, ConcreteFieldNegatesToDisequality)
{
    // pathC: request = READ (1), other fields unconstrained vars.
    ClientPathPredicate pred;
    pred.id = 0;
    pred.bytes = {ctx.MakeConst(8, 1), ctx.FreshVar("a", 8),
                  ctx.FreshVar("c", 8)};
    auto op = MakeOp();
    NegatedPredicate neg = op.Negate(pred);

    // Only the concrete field yields a disjunct; the unconstrained vars
    // are abandoned (their complement is empty).
    ASSERT_EQ(neg.fields.size(), 1u);
    EXPECT_EQ(neg.fields[0].field, "request");
    EXPECT_TRUE(neg.fields[0].exact);
    EXPECT_EQ(op.stats().abandoned_fields, 2u);

    // The negation must be (M0 != 1): check both directions.
    Model model;
    ASSERT_EQ(solver.CheckSat({neg.fields[0].expr}, &model),
              CheckResult::kSat);
    EXPECT_NE(model.Get(server_msg[0]->VarId()), 1u);
    EXPECT_EQ(solver.CheckSat({neg.fields[0].expr,
                               ctx.MakeEq(server_msg[0],
                                          ctx.MakeConst(8, 1))}),
              CheckResult::kUnsat);
}

TEST_F(NegateTest, ConstrainedVariableFieldSubstitutes)
{
    // pathC: address = λ with 0 <= λ < 100 (paper Figure 8).
    ExprRef lambda = ctx.FreshVar("addr", 8);
    ClientPathPredicate pred;
    pred.bytes = {ctx.MakeConst(8, 1), lambda, ctx.FreshVar("c", 8)};
    pred.constraints = {
        ctx.MakeSlt(lambda, ctx.MakeConst(8, 100)),
        ctx.MakeSge(lambda, ctx.MakeConst(8, 0)),
    };
    auto op = MakeOp();
    NegatedPredicate neg = op.Negate(pred);

    ExprRef addr_neg = neg.FieldDisjunct("address");
    ASSERT_NE(addr_neg, nullptr);

    // The negation is exactly "address >= 100 or address < 0" (signed)
    // phrased on the server's message variable. Check the boundary
    // cases.
    auto sat_with_addr = [&](uint64_t value) {
        return solver.CheckSat(
            {addr_neg,
             ctx.MakeEq(server_msg[1], ctx.MakeConst(8, value))});
    };
    EXPECT_EQ(sat_with_addr(0), CheckResult::kUnsat);
    EXPECT_EQ(sat_with_addr(99), CheckResult::kUnsat);
    EXPECT_EQ(sat_with_addr(50), CheckResult::kUnsat);
    EXPECT_EQ(sat_with_addr(100), CheckResult::kSat);   // 100 >= 100
    EXPECT_EQ(sat_with_addr(0x80), CheckResult::kSat);  // negative
    EXPECT_EQ(sat_with_addr(0xff), CheckResult::kSat);  // -1
}

TEST_F(NegateTest, ComplexExpressionUsesFreshCopies)
{
    // pathC: crc = 2*λ with λ < 50; the crc field negation keeps the
    // functional form with fresh variables under negated constraints:
    // M2 == 2*λ' ∧ λ' >= 50. (This matches the paper's example:
    // negate((λ = 2x) ∧ (x > 0)) == (λ = 2x) ∧ (x <= 0).)
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef two_x = ctx.MakeMul(ctx.MakeConst(8, 2), x);
    ClientPathPredicate pred;
    pred.bytes = {ctx.MakeConst(8, 1), ctx.FreshVar("a", 8), two_x};
    pred.constraints = {ctx.MakeUlt(x, ctx.MakeConst(8, 50))};
    auto op = MakeOp();
    NegatedPredicate neg = op.Negate(pred);

    ExprRef crc_neg = neg.FieldDisjunct("crc");
    // 2x mod 256 wraps: even values below 100 are reachable both with
    // x < 50 and with x >= 50 (e.g. 2*3 == 2*131 mod 256), so the
    // overlap filter must discard the negation entirely. An even
    // multiplier is not injective, so the solver decides it.
    EXPECT_EQ(crc_neg, nullptr);
    EXPECT_EQ(op.stats().overlap_proven, 0u);
    EXPECT_EQ(op.stats().overlap_discarded, 1u);
    EXPECT_EQ(solver.stats().Get("solver.queries"), 1);
    EXPECT_FALSE(neg.exact);
}

TEST_F(NegateTest, ComplexExpressionWithoutOverlapIsKept)
{
    // crc = λ + 100 with λ < 100 -> values [100, 199]; under the negated
    // constraint λ' >= 100 -> values [200, 255] ∪ [0, 99] (wrapped):
    // disjoint. λ + 100 is injective on a byte, so the negation is kept
    // without an overlap query.
    ExprRef lam = ctx.FreshVar("lam", 8);
    ExprRef affine = ctx.MakeAdd(lam, ctx.MakeConst(8, 100));
    ClientPathPredicate pred;
    pred.bytes = {ctx.MakeConst(8, 1), ctx.FreshVar("a", 8), affine};
    pred.constraints = {ctx.MakeUlt(lam, ctx.MakeConst(8, 100))};
    auto op = MakeOp();
    NegatedPredicate neg = op.Negate(pred);

    ExprRef crc_neg = neg.FieldDisjunct("crc");
    ASSERT_NE(crc_neg, nullptr);
    EXPECT_EQ(op.stats().overlap_proven, 1u);
    EXPECT_EQ(op.stats().overlap_discarded, 0u);
    EXPECT_EQ(solver.stats().Get("solver.queries"), 0);
    // The kept negation covers exactly the values NOT reachable by a
    // correct client: crc in [200, 255] or [0, 99].
    auto sat_with_crc = [&](uint64_t value) {
        return solver.CheckSat(
            {crc_neg,
             ctx.MakeEq(server_msg[2], ctx.MakeConst(8, value))});
    };
    EXPECT_EQ(sat_with_crc(150), CheckResult::kUnsat);  // client value
    EXPECT_EQ(sat_with_crc(100), CheckResult::kUnsat);
    EXPECT_EQ(sat_with_crc(199), CheckResult::kUnsat);
    EXPECT_EQ(sat_with_crc(200), CheckResult::kSat);
    EXPECT_EQ(sat_with_crc(50), CheckResult::kSat);
}

TEST_F(NegateTest, MaskedFieldsAreSkipped)
{
    layout.Mask("crc");
    ClientPathPredicate pred;
    pred.bytes = {ctx.MakeConst(8, 1), ctx.MakeConst(8, 2),
                  ctx.MakeConst(8, 3)};
    auto op = MakeOp();
    NegatedPredicate neg = op.Negate(pred);
    EXPECT_EQ(neg.fields.size(), 2u);
    EXPECT_EQ(neg.FieldDisjunct("crc"), nullptr);
}

TEST_F(NegateTest, ExactFlagRequiresFieldIndependence)
{
    // Two fields sharing the same variable are not a product set; the
    // predicate must not be marked exact even though each field's
    // negation is individually fine.
    ExprRef shared = ctx.FreshVar("s", 8);
    ClientPathPredicate pred;
    pred.bytes = {shared, shared, ctx.MakeConst(8, 0)};
    pred.constraints = {ctx.MakeUlt(shared, ctx.MakeConst(8, 10))};
    auto op = MakeOp();
    NegatedPredicate neg = op.Negate(pred);
    EXPECT_FALSE(neg.exact);

    // Independent fields with exact cases -> exact predicate.
    ExprRef a = ctx.FreshVar("a", 8);
    ClientPathPredicate pred2;
    pred2.bytes = {ctx.MakeConst(8, 7), a, ctx.MakeConst(8, 0)};
    pred2.constraints = {ctx.MakeUlt(a, ctx.MakeConst(8, 10))};
    NegatedPredicate neg2 = op.Negate(pred2);
    EXPECT_TRUE(neg2.exact);
}

TEST_F(NegateTest, DisjunctionCombinesFields)
{
    ExprRef a = ctx.FreshVar("a", 8);
    ClientPathPredicate pred;
    pred.bytes = {ctx.MakeConst(8, 7), a, ctx.MakeConst(8, 9)};
    pred.constraints = {ctx.MakeUlt(a, ctx.MakeConst(8, 10))};
    auto op = MakeOp();
    NegatedPredicate neg = op.Negate(pred);
    ExprRef disj = neg.Disjunction(&ctx);

    // A message matching the predicate exactly fails the disjunction...
    EXPECT_EQ(solver.CheckSat(
                  {disj, ctx.MakeEq(server_msg[0], ctx.MakeConst(8, 7)),
                   ctx.MakeUlt(server_msg[1], ctx.MakeConst(8, 10)),
                   ctx.MakeEq(server_msg[2], ctx.MakeConst(8, 9))}),
              CheckResult::kUnsat);
    // ...but deviating in any single field satisfies it.
    EXPECT_EQ(solver.CheckSat(
                  {disj, ctx.MakeEq(server_msg[0], ctx.MakeConst(8, 8))}),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat(
                  {disj, ctx.MakeEq(server_msg[1], ctx.MakeConst(8, 200))}),
              CheckResult::kSat);
}

TEST_F(NegateTest, MultiByteFieldReassembly)
{
    // A 2-byte field whose bytes are extracts of one 16-bit input must
    // be recognized as a pure variable (the concat-of-extracts folds).
    core::MessageLayout wide_layout(3);
    wide_layout.AddField("id", 0, 2).AddField("tag", 2, 1);
    std::vector<ExprRef> msg{ctx.FreshVar("M", 8), ctx.FreshVar("M", 8),
                             ctx.FreshVar("M", 8)};
    ExprRef id = ctx.FreshVar("id", 16);
    ClientPathPredicate pred;
    pred.bytes = {ctx.MakeExtract(id, 0, 8), ctx.MakeExtract(id, 8, 8),
                  ctx.MakeConst(8, 1)};
    pred.constraints = {ctx.MakeUlt(id, ctx.MakeConst(16, 1000))};
    NegateOperator op(&ctx, &solver, &wide_layout, msg);
    NegatedPredicate neg = op.Negate(pred);
    ExprRef id_neg = neg.FieldDisjunct("id");
    ASSERT_NE(id_neg, nullptr);
    EXPECT_TRUE(neg.exact);

    // id >= 1000 satisfies, id < 1000 does not.
    ExprRef server_id = wide_layout.FieldExpr(&ctx, msg,
                                              *wide_layout.Find("id"));
    EXPECT_EQ(solver.CheckSat({id_neg,
                               ctx.MakeEq(server_id,
                                          ctx.MakeConst(16, 500))}),
              CheckResult::kUnsat);
    EXPECT_EQ(solver.CheckSat({id_neg,
                               ctx.MakeEq(server_id,
                                          ctx.MakeConst(16, 1500))}),
              CheckResult::kSat);
}

/** What negating a one-field message told about its overlap filter. */
struct OneFieldNegation
{
    /** The kept disjunct, or null when the field was discarded. */
    ExprRef negation = nullptr;
    NegateStats stats;
    /** Queries the operator put to its solver. */
    int64_t queries = 0;
    /** The server field expression the negation is phrased over. */
    ExprRef target = nullptr;
    /** The last variable the operator created: for a one-variable
     *  field, its fresh copy. */
    ExprRef fresh = nullptr;
};

/** Negate a message whose one field is `e` (its width a whole number
 *  of bytes) under `constraints`, on an operator with its own solver. */
OneFieldNegation
NegateOneField(ExprContext *ctx, ExprRef e,
               const std::vector<ExprRef> &constraints)
{
    const uint32_t size = e->width() / 8;
    MessageLayout layout(size);
    layout.AddField("f", 0, size);
    std::vector<ExprRef> msg;
    ClientPathPredicate pred;
    for (uint32_t i = 0; i < size; ++i) {
        msg.push_back(ctx->FreshVar("M", 8));
        pred.bytes.push_back(ctx->MakeExtract(e, 8 * i, 8));
    }
    pred.constraints = constraints;
    Solver op_solver(ctx);
    NegateOperator op(ctx, &op_solver, &layout, msg);
    const NegatedPredicate neg = op.Negate(pred);

    OneFieldNegation out;
    out.negation = neg.FieldDisjunct("f");
    out.stats = op.stats();
    out.queries = op_solver.stats().Get("solver.queries");
    out.target = op.ServerFieldExpr(*layout.Find("f"));
    out.fresh = ctx->VarById(ctx->NumVars() - 1);
    return out;
}

/** The constraints that mention a variable of `e`. */
std::vector<ExprRef>
Touching(ExprContext *ctx, ExprRef e, const std::vector<ExprRef> &constraints)
{
    const std::vector<uint32_t> &evars = ctx->VarsOf(e);
    std::vector<ExprRef> out;
    for (ExprRef c : constraints) {
        for (uint32_t v : ctx->VarsOf(c)) {
            if (std::count(evars.begin(), evars.end(), v) != 0) {
                out.push_back(c);
                break;
            }
        }
    }
    return out;
}

/**
 * Section 4.1's overlap query for `e` under `touching`:
 * touching(λ) ∧ target == e(λ) ∧ target == e(λ') ∧ ⋁¬c(λ'), where
 * `negation` is the operator's kept candidate, or null to build the
 * candidate here with fresh copies of every variable involved.
 */
std::vector<ExprRef>
OverlapQuery(ExprContext *ctx, ExprRef e,
             const std::vector<ExprRef> &touching, ExprRef target,
             ExprRef negation)
{
    if (negation == nullptr) {
        std::unordered_map<uint32_t, ExprRef> fresh;
        std::vector<ExprRef> involved = touching;
        involved.push_back(e);
        for (ExprRef x : involved) {
            for (uint32_t v : ctx->VarsOf(x)) {
                if (fresh.count(v) == 0) {
                    fresh.emplace(v, ctx->FreshVar("ref",
                                                   ctx->InfoOf(v).width));
                }
            }
        }
        std::vector<ExprRef> negated;
        for (ExprRef c : touching)
            negated.push_back(ctx->MakeNot(ctx->Substitute(c, fresh)));
        negation = ctx->MakeAnd(
            ctx->MakeEq(target, ctx->Substitute(e, fresh)),
            ctx->MakeOrList(negated));
    }
    std::vector<ExprRef> query = touching;
    query.push_back(ctx->MakeEq(target, e));
    query.push_back(negation);
    return query;
}

/** A fresh solver with no memo cache: the reference verdict. */
CheckResult
ReferenceVerdict(ExprContext *ctx, const std::vector<ExprRef> &query)
{
    SolverConfig config;
    config.enable_cache = false;
    Solver reference(ctx, config);
    return reference.CheckSat(query);
}

TEST_F(NegateTest, StructuralDisjointnessAgreesWithSolver)
{
    auto k8 = [&](uint64_t v) { return ctx.MakeConst(8, v); };
    auto k16 = [&](uint64_t v) { return ctx.MakeConst(16, v); };
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    ExprRef x16 = ctx.FreshVar("x16", 16);
    const std::vector<ExprRef> below100 = {ctx.MakeUlt(x, k8(100))};

    struct Case
    {
        const char *shape;
        ExprRef e;
        std::vector<ExprRef> constraints;
        bool proven;  // the rule keeps it without a query
        bool kept;    // the overlap query is UNSAT
    };
    const std::vector<Case> cases = {
        // Injective chains over x, constraints on x only.
        {"x + c", ctx.MakeAdd(x, k8(100)), below100, true, true},
        {"c - x", ctx.MakeSub(k8(7), x), below100, true, true},
        {"0 - x", ctx.MakeNeg(x), below100, true, true},
        {"x ^ c", ctx.MakeXor(x, k8(0x5a)), below100, true, true},
        {"~x", ctx.MakeNot(x), below100, true, true},
        {"x * 13", ctx.MakeMul(x, k8(13)), below100, true, true},
        {"zext16(x) + c", ctx.MakeAdd(ctx.MakeZExt(x, 16), k16(0x1234)),
         below100, true, true},
        {"sext16(x)", ctx.MakeSExt(x, 16),
         {ctx.MakeSlt(x, k8(50))}, true, true},
        // examples/sensor_tlv.spec: crc == seq * 13 + 7, seq in 1 .. 200.
        {"x * 13 + 7", ctx.MakeAdd(ctx.MakeMul(x, k8(13)), k8(7)),
         {ctx.MakeUle(k8(1), x), ctx.MakeUle(x, k8(200))}, true, true},
        // The synth family's coupled tag, arg * mul + add with odd mul,
        // under its client's two range checks on arg.
        {"x * mul + add", ctx.MakeAdd(ctx.MakeMul(x, k8(29)), k8(201)),
         {ctx.MakeNot(ctx.MakeUlt(x, k8(40))),
          ctx.MakeNot(ctx.MakeUgt(x, k8(75)))},
         true, true},
        // Everything else is the solver's to decide.
        {"x * 2", ctx.MakeMul(x, k8(2)), {ctx.MakeUlt(x, k8(50))}, false,
         false},
        {"x * y", ctx.MakeMul(x, y),
         {ctx.MakeUlt(x, k8(10)), ctx.MakeUlt(y, k8(10))}, false, false},
        {"extract(x16, 0, 8)", ctx.MakeExtract(x16, 0, 8),
         {ctx.MakeUlt(x16, k16(1000))}, false, false},
        {"x << 1", ctx.MakeShl(x, k8(1)), below100, false, false},
        {"x & 0x0f", ctx.MakeAnd(x, k8(0x0f)), below100, false, false},
        {"x / 3", ctx.MakeUDiv(x, k8(3)), below100, false, false},
        // Injective (flips bit 0 below 0x80), but not a chain: kept by
        // the solver's UNSAT verdict.
        {"ite", ctx.MakeIte(ctx.MakeUlt(x, k8(0x80)),
                            ctx.MakeXor(x, k8(1)), x),
         below100, false, true},
        // Injective in x, but the constraint couples x with y: the
        // overlap is SAT (pick y' large), so it must be discarded.
        {"x + 1, x + y < 10", ctx.MakeAdd(x, k8(1)),
         {ctx.MakeUlt(ctx.MakeAdd(x, y), k8(10))}, false, false},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.shape);
        const OneFieldNegation got = NegateOneField(&ctx, c.e, c.constraints);
        const std::vector<ExprRef> touching =
            Touching(&ctx, c.e, c.constraints);
        EXPECT_EQ(got.stats.overlap_proven, c.proven ? 1u : 0u);
        EXPECT_EQ(got.queries, c.proven ? 0 : 1);
        EXPECT_EQ(got.stats.overlap_discarded, c.kept ? 0u : 1u);
        EXPECT_EQ(got.negation != nullptr, c.kept);
        if (c.proven) {
            // The parent's candidate, built from the operator's one
            // fresh variable: target == e(x') ∧ ⋁¬c(x').
            const std::unordered_map<uint32_t, ExprRef> sub{
                {ctx.VarsOf(c.e)[0], got.fresh}};
            std::vector<ExprRef> negated;
            for (ExprRef t : touching)
                negated.push_back(ctx.MakeNot(ctx.Substitute(t, sub)));
            EXPECT_EQ(got.negation,
                      ctx.MakeAnd(ctx.MakeEq(got.target,
                                             ctx.Substitute(c.e, sub)),
                                  ctx.MakeOrList(negated)));
        }
        EXPECT_EQ(ReferenceVerdict(&ctx,
                                   OverlapQuery(&ctx, c.e, touching,
                                                got.target, got.negation)),
                  c.kept ? CheckResult::kUnsat : CheckResult::kSat);
    }
}

TEST_F(NegateTest, RandomChainsProvenOnlyWhenSolverSaysUnsat)
{
    // Seeded random field expressions over an 8- or 16-bit variable:
    // chains of 1-4 links, some injective and some not, under random
    // range constraints that sometimes couple a second variable. The
    // operator's verdict must match a fresh solver's on every draw, and
    // every structurally proven overlap must be UNSAT.
    Rng rng(30);
    size_t proven = 0, solved = 0;
    for (int draw = 0; draw < 500; ++draw) {
        SCOPED_TRACE("draw " + std::to_string(draw));
        const uint32_t width = rng.Chance(0.5) ? 8 : 16;
        ExprRef x = ctx.FreshVar("x", width);
        ExprRef y = ctx.FreshVar("y", width);
        auto konst = [&](uint32_t w) {
            return ctx.MakeConst(w, rng.Below(smt::WidthMask(w)) + 1);
        };
        // Three links in four are injective on their own. Multipliers
        // stay below 8 on 16 bits, where the solver's overlap proof
        // grows with the multiplier's set bits.
        ExprRef e = x;
        const uint64_t depth = rng.Range(1, 4);
        for (uint64_t link = 0; link < depth; ++link) {
            const uint32_t w = e->width();
            const uint64_t mul_limit = w == 8 ? 64 : 8;
            const uint64_t pick = rng.Chance(0.75) ? rng.Below(6)
                                                   : 6 + rng.Below(6);
            switch (pick) {
              case 0: e = ctx.MakeNot(e); break;
              case 1:
                e = w == 8 ? (rng.Chance(0.5) ? ctx.MakeZExt(e, 16)
                                              : ctx.MakeSExt(e, 16))
                           : ctx.MakeNot(e);
                break;
              case 2: e = ctx.MakeAdd(e, konst(w)); break;
              case 3: e = ctx.MakeSub(konst(w), e); break;
              case 4: e = ctx.MakeXor(e, konst(w)); break;
              case 5:
                e = ctx.MakeMul(e,
                                ctx.MakeConst(w, rng.Below(mul_limit) | 1));
                break;
              case 6:
                e = ctx.MakeMul(
                    e, ctx.MakeConst(w, rng.Range(1, mul_limit / 2) * 2));
                break;
              case 7: e = ctx.MakeShl(e, ctx.MakeConst(w, 1)); break;
              case 8: e = ctx.MakeAnd(e, konst(w)); break;
              case 9: e = ctx.MakeUDiv(e, ctx.MakeConst(w, 3)); break;
              case 10:
                e = w == 16 ? ctx.MakeExtract(e, 8 * rng.Below(2), 8)
                            : ctx.MakeLShr(e, ctx.MakeConst(w, 1));
                break;
              default:
                e = ctx.MakeAdd(
                    e, ctx.MakeExtract(ctx.MakeZExt(y, 16), 0, w));
            }
        }
        if (e->IsConst())
            continue;

        std::vector<ExprRef> constraints;
        const uint64_t bound = rng.Below(smt::WidthMask(width)) + 1;
        constraints.push_back(rng.Chance(0.5)
                                  ? ctx.MakeUlt(x, ctx.MakeConst(width, bound))
                                  : ctx.MakeUgt(x, ctx.MakeConst(width,
                                                                 bound - 1)));
        if (rng.Chance(0.3))
            constraints.push_back(ctx.MakeSlt(x, konst(width)));
        if (rng.Chance(0.2)) {
            constraints.push_back(
                ctx.MakeUlt(ctx.MakeAdd(x, y), konst(width)));
        }

        const OneFieldNegation got = NegateOneField(&ctx, e, constraints);
        const std::vector<ExprRef> touching = Touching(&ctx, e, constraints);
        if (got.stats.overlap_proven + got.stats.overlap_discarded == 0 &&
            got.queries == 0) {
            continue;  // case 1 or 2, or abandoned: no overlap filter ran
        }
        const CheckResult verdict = ReferenceVerdict(
            &ctx, OverlapQuery(&ctx, e, touching, got.target,
                               got.negation));
        if (got.stats.overlap_proven != 0) {
            ++proven;
            EXPECT_EQ(got.queries, 0);
            ASSERT_EQ(verdict, CheckResult::kUnsat) << ctx.ToString(e);
        } else {
            ++solved;
            EXPECT_EQ(got.negation != nullptr,
                      verdict == CheckResult::kUnsat)
                << ctx.ToString(e);
        }
    }
    // Both paths must be exercised for the draw to mean anything.
    EXPECT_GT(proven, 50u);
    EXPECT_GT(solved, 50u);
}

}  // namespace
}  // namespace core
}  // namespace achilles
