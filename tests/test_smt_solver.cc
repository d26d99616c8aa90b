// Achilles reproduction -- tests.
//
// End-to-end tests of the QF_BV solver facade: hand-written queries,
// refutations found while clauses are emitted, model
// extraction/validation, and a random-expression property suite
// cross-checked by brute force over small domains.

#include <gtest/gtest.h>

#include <vector>

#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace achilles {
namespace smt {
namespace {

class SolverTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};
};

TEST_F(SolverTest, EmptyQueryIsSat)
{
    EXPECT_EQ(solver.CheckSat({}), CheckResult::kSat);
}

TEST_F(SolverTest, TrivialConstants)
{
    EXPECT_EQ(solver.CheckSat({ctx.True()}), CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({ctx.False()}), CheckResult::kUnsat);
}

TEST_F(SolverTest, PaperExampleLambdaRange)
{
    // From Section 3.2: λ > 0 ∧ λ < -5 is UNSAT; λ > 0 ∧ λ < 5 is SAT
    // with λ = 3 a witness (we accept any valid witness).
    ExprRef lambda = ctx.FreshVar("lambda", 8);
    ExprRef zero = ctx.MakeConst(8, 0);
    ExprRef gt0 = ctx.MakeSlt(zero, lambda);
    ExprRef lt_minus5 = ctx.MakeSlt(lambda, ctx.MakeConst(8, -5 & 0xff));
    ExprRef lt5 = ctx.MakeSlt(lambda, ctx.MakeConst(8, 5));

    EXPECT_EQ(solver.CheckSat({gt0, lt_minus5}), CheckResult::kUnsat);

    Model model;
    ASSERT_EQ(solver.CheckSat({gt0, lt5}, &model), CheckResult::kSat);
    const int64_t v = SignExtendTo64(model.Get(lambda->VarId()), 8);
    EXPECT_GT(v, 0);
    EXPECT_LT(v, 5);
}

TEST_F(SolverTest, UnsignedRangeConflict)
{
    // Contradictory bounds on one field, the shape of many kUnsat match
    // and Trojan queries. Unit propagation refutes each of them while
    // the SAT instance's clauses are emitted, so the one SAT call spends
    // no decision and no conflict.
    ExprRef x = ctx.FreshVar("x", 32);
    ExprRef y = ctx.FreshVar("y", 8);
    ExprRef wide = ctx.MakeZExt(y, 32);
    const std::vector<ExprRef> two_equalities{
        ctx.MakeEq(y, ctx.MakeConst(8, 3)),
        ctx.MakeEq(y, ctx.MakeConst(8, 5))};
    const std::vector<std::vector<ExprRef>> queries{
        {ctx.MakeUlt(x, ctx.MakeConst(32, 100)),
         ctx.MakeUge(x, ctx.MakeConst(32, 100))},
        {ctx.MakeUlt(x, ctx.MakeConst(32, 100)),
         ctx.MakeUge(x, ctx.MakeConst(32, 200))},
        {ctx.MakeUlt(wide, ctx.MakeConst(32, 5)),
         ctx.MakeUgt(wide, ctx.MakeConst(32, 9))},
    };
    SolverConfig config;
    config.enable_cache = false;
    for (size_t i = 0; i < queries.size(); ++i) {
        Solver fresh(&ctx, config);
        EXPECT_EQ(fresh.CheckSat(queries[i]), CheckResult::kUnsat)
            << "query " << i;
        EXPECT_EQ(fresh.stats().Get("solver.sat_calls"), 1) << "query " << i;
        EXPECT_EQ(fresh.stats().Get("solver.sat_decisions"), 0)
            << "query " << i;
        EXPECT_EQ(fresh.stats().Get("solver.sat_conflicts"), 0)
            << "query " << i;
    }

    // Two equalities on one variable. As a verdict-only query, y == 3
    // binds y and turns y == 5 into 3 == 5: refuted before any SAT call.
    // A model query is never rewritten, so it keeps the CNF of the query
    // as asked, which clause emission refutes.
    {
        Solver fresh(&ctx, config);
        EXPECT_EQ(fresh.CheckSat(two_equalities), CheckResult::kUnsat);
        EXPECT_EQ(fresh.stats().Get("solver.sat_calls"), 0);
        EXPECT_EQ(fresh.stats().Get("solver.trivial_unsat"), 1);
        EXPECT_EQ(fresh.stats().Get("solver.rewritten"), 1);
    }
    {
        Solver fresh(&ctx, config);
        Model model;
        EXPECT_EQ(fresh.CheckSat(two_equalities, &model),
                  CheckResult::kUnsat);
        EXPECT_EQ(fresh.stats().Get("solver.sat_calls"), 1);
        EXPECT_EQ(fresh.stats().Get("solver.sat_decisions"), 0);
        EXPECT_EQ(fresh.stats().Get("solver.sat_conflicts"), 0);
        EXPECT_EQ(fresh.stats().Get("solver.rewritten"), 0);
    }

    // Bounds that conflict only through arithmetic: z in [100, 999]
    // makes z + 10 <= 50 false, which takes a short search, so only the
    // verdict is pinned.
    ExprRef z = ctx.FreshVar("z", 16);
    ExprRef z_plus_10 = ctx.MakeAdd(z, ctx.MakeConst(16, 10));
    Solver fresh(&ctx, config);
    EXPECT_EQ(fresh.CheckSat({ctx.MakeUlt(z, ctx.MakeConst(16, 1000)),
                              ctx.MakeUge(z, ctx.MakeConst(16, 100)),
                              ctx.MakeUle(z_plus_10, ctx.MakeConst(16, 50))}),
              CheckResult::kUnsat);
}

TEST_F(SolverTest, EqualityChainPropagation)
{
    ExprRef x = ctx.FreshVar("x", 16);
    ExprRef y = ctx.FreshVar("y", 16);
    ExprRef z = ctx.FreshVar("z", 16);
    Model model;
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, y), ctx.MakeEq(y, z),
                               ctx.MakeEq(x, ctx.MakeConst(16, 0xbeef))},
                              &model),
              CheckResult::kSat);
    EXPECT_EQ(model.Get(z->VarId()), 0xbeefu);
}

TEST_F(SolverTest, ArithmeticWitness)
{
    // x + y == 10, x * 2 == y  =>  x = ...; check via the evaluator.
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    ExprRef sum = ctx.MakeEq(ctx.MakeAdd(x, y), ctx.MakeConst(8, 10));
    ExprRef dbl = ctx.MakeEq(ctx.MakeMul(x, ctx.MakeConst(8, 2)), y);
    Model model;
    ASSERT_EQ(solver.CheckSat({sum, dbl}, &model), CheckResult::kSat);
    EXPECT_TRUE(EvaluateBool(sum, model));
    EXPECT_TRUE(EvaluateBool(dbl, model));
}

TEST_F(SolverTest, XorShiftChain)
{
    // CRC-style chain: c = ((x ^ 0x5a) << 1) ^ x must equal a constant
    // reachable for some x; verify witness.
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef step = ctx.MakeXor(x, ctx.MakeConst(8, 0x5a));
    ExprRef shifted = ctx.MakeShl(step, ctx.MakeConst(8, 1));
    ExprRef crc = ctx.MakeXor(shifted, x);
    // Compute the value for x = 0x21 concretely, then ask the solver to
    // find some x producing it.
    Model probe;
    probe.Set(x->VarId(), 0x21);
    const uint64_t target = Evaluate(crc, probe);
    Model model;
    ASSERT_EQ(solver.CheckSat(
                  {ctx.MakeEq(crc, ctx.MakeConst(8, target))}, &model),
              CheckResult::kSat);
    EXPECT_EQ(Evaluate(crc, model), target);
}

TEST_F(SolverTest, DivisionSemantics)
{
    ExprRef x = ctx.FreshVar("x", 8);
    // x / 0 == 0xff for every x: its negation must be UNSAT.
    ExprRef div0 = ctx.MakeUDiv(x, ctx.MakeConst(8, 0));
    EXPECT_EQ(solver.CheckSat(
                  {ctx.MakeNe(div0, ctx.MakeConst(8, 0xff))}),
              CheckResult::kUnsat);
    // x % 0 == x likewise.
    ExprRef rem0 = ctx.MakeURem(x, ctx.MakeConst(8, 0));
    EXPECT_EQ(solver.CheckSat({ctx.MakeNe(rem0, x)}), CheckResult::kUnsat);
    // 200 / 7 == 28.
    ExprRef q = ctx.MakeUDiv(ctx.MakeConst(8, 200), x);
    Model model;
    ASSERT_EQ(solver.CheckSat(
                  {ctx.MakeEq(q, ctx.MakeConst(8, 28)),
                   ctx.MakeEq(x, ctx.MakeConst(8, 7))}, &model),
              CheckResult::kSat);
}

TEST_F(SolverTest, SymbolicShiftAmount)
{
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef amt = ctx.FreshVar("amt", 8);
    ExprRef shl = ctx.MakeShl(x, amt);
    // Find amt, x such that (x << amt) == 0x80 with x odd: amt must be 7.
    Model model;
    ASSERT_EQ(solver.CheckSat(
                  {ctx.MakeEq(shl, ctx.MakeConst(8, 0x80)),
                   ctx.MakeEq(ctx.MakeAnd(x, ctx.MakeConst(8, 1)),
                              ctx.MakeConst(8, 1))},
                  &model),
              CheckResult::kSat);
    EXPECT_EQ(model.Get(amt->VarId()), 7u);
    // Shift amount >= width forces zero.
    EXPECT_EQ(solver.CheckSat(
                  {ctx.MakeEq(shl, ctx.MakeConst(8, 1)),
                   ctx.MakeUge(amt, ctx.MakeConst(8, 8))}),
              CheckResult::kUnsat);
}

TEST_F(SolverTest, ConcatExtractRoundTrip)
{
    ExprRef hi = ctx.FreshVar("hi", 8);
    ExprRef lo = ctx.FreshVar("lo", 8);
    ExprRef cat = ctx.MakeConcat(hi, lo);
    Model model;
    ASSERT_EQ(solver.CheckSat(
                  {ctx.MakeEq(cat, ctx.MakeConst(16, 0xa55a))}, &model),
              CheckResult::kSat);
    EXPECT_EQ(model.Get(hi->VarId()), 0xa5u);
    EXPECT_EQ(model.Get(lo->VarId()), 0x5au);
}

TEST_F(SolverTest, SignedComparisons)
{
    ExprRef x = ctx.FreshVar("x", 8);
    // x <s 0 and x >u 0x7f together are satisfiable (negative values);
    // x <s 0 and x <u 0x80 together are not.
    EXPECT_EQ(solver.CheckSat(
                  {ctx.MakeSlt(x, ctx.MakeConst(8, 0)),
                   ctx.MakeUgt(x, ctx.MakeConst(8, 0x7f))}),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat(
                  {ctx.MakeSlt(x, ctx.MakeConst(8, 0)),
                   ctx.MakeUlt(x, ctx.MakeConst(8, 0x80))}),
              CheckResult::kUnsat);
}

TEST_F(SolverTest, CacheHitsOnRepeatedQueries)
{
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef q = ctx.MakeUlt(x, ctx.MakeConst(8, 10));
    EXPECT_EQ(solver.CheckSat({q}), CheckResult::kSat);
    const int64_t sat_calls = solver.stats().Get("solver.sat_calls");
    EXPECT_EQ(solver.CheckSat({q}), CheckResult::kSat);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), sat_calls);
    EXPECT_GE(solver.stats().Get("solver.cache_hits"), 1);
}

TEST_F(SolverTest, DisjunctionQueriesWork)
{
    // The Trojan query shape: conjunction of disjunctions of field
    // negations.
    ExprRef f1 = ctx.FreshVar("f1", 8);
    ExprRef f2 = ctx.FreshVar("f2", 8);
    ExprRef neg1 = ctx.MakeOrList({ctx.MakeNe(f1, ctx.MakeConst(8, 1)),
                                   ctx.MakeNe(f2, ctx.MakeConst(8, 2))});
    ExprRef neg2 = ctx.MakeOrList({ctx.MakeNe(f1, ctx.MakeConst(8, 1)),
                                   ctx.MakeNe(f2, ctx.MakeConst(8, 7))});
    ExprRef fix1 = ctx.MakeEq(f1, ctx.MakeConst(8, 1));
    Model model;
    ASSERT_EQ(solver.CheckSat({neg1, neg2, fix1}, &model),
              CheckResult::kSat);
    EXPECT_NE(model.Get(f2->VarId()), 2u);
    EXPECT_NE(model.Get(f2->VarId()), 7u);

    // Pinning f2 to one of the negated values while requiring f1 == 1
    // must be UNSAT.
    EXPECT_EQ(solver.CheckSat(
                  {neg1, fix1, ctx.MakeEq(f2, ctx.MakeConst(8, 2))}),
              CheckResult::kUnsat);
}

TEST_F(SolverTest, ConflictBudgetYieldsUnknown)
{
    // A hard UNSAT instance under a tiny conflict budget: the facade
    // must report kUnknown (and never cache it).
    SolverConfig config;
    config.max_conflicts = 2;
    Solver limited(&ctx, config);
    // Pigeonhole-flavored bitvector instance: five 8-bit vars, pairwise
    // distinct, all below 4 -- UNSAT but needing search.
    std::vector<ExprRef> vars;
    std::vector<ExprRef> query;
    for (int i = 0; i < 5; ++i) {
        vars.push_back(ctx.FreshVar("p", 8));
        query.push_back(ctx.MakeUlt(vars.back(), ctx.MakeConst(8, 4)));
    }
    for (size_t i = 0; i < vars.size(); ++i)
        for (size_t j = i + 1; j < vars.size(); ++j)
            query.push_back(ctx.MakeNe(vars[i], vars[j]));
    EXPECT_EQ(limited.CheckSat(query), CheckResult::kUnknown);
    // The unlimited solver refutes it.
    EXPECT_EQ(solver.CheckSat(query), CheckResult::kUnsat);
}

TEST_F(SolverTest, WideWidthsRoundTrip)
{
    // 64-bit arithmetic end to end.
    ExprRef x = ctx.FreshVar("x", 64);
    ExprRef y = ctx.FreshVar("y", 64);
    Model model;
    ASSERT_EQ(solver.CheckSat(
                  {ctx.MakeEq(ctx.MakeAdd(x, y),
                              ctx.MakeConst(64, 0x123456789abcdef0ull)),
                   ctx.MakeEq(x, ctx.MakeConst(64, 0xdeadbeefcafef00dull))},
                  &model),
              CheckResult::kSat);
    EXPECT_EQ(model.Get(x->VarId()) + model.Get(y->VarId()),
              0x123456789abcdef0ull);
}

TEST_F(SolverTest, IteChainsLikeSymbolicArrayReads)
{
    // The engine's symbolic-index encoding: nested ITEs selecting among
    // cells; the solver must invert it.
    ExprRef idx = ctx.FreshVar("idx", 8);
    ExprRef selected = ctx.MakeConst(8, 0);
    for (uint64_t i = 0; i < 8; ++i) {
        selected = ctx.MakeIte(ctx.MakeEq(idx, ctx.MakeConst(8, i)),
                               ctx.MakeConst(8, 10 * i), selected);
    }
    Model model;
    ASSERT_EQ(solver.CheckSat(
                  {ctx.MakeEq(selected, ctx.MakeConst(8, 50))}, &model),
              CheckResult::kSat);
    EXPECT_EQ(model.Get(idx->VarId()), 5u);
}

// ---------------------------------------------------------------------
// Property suite: random expressions over tiny domains, brute-force
// cross-checked.
// ---------------------------------------------------------------------

struct RandomExprGen
{
    ExprContext *ctx;
    Rng *rng;
    std::vector<ExprRef> vars;
    uint32_t width;

    ExprRef
    Gen(int depth)
    {
        if (depth == 0 || rng->Chance(0.3)) {
            if (rng->Chance(0.5))
                return vars[rng->Below(vars.size())];
            return ctx->MakeConst(width, rng->Below(1ull << width));
        }
        switch (rng->Below(12)) {
          case 0: return ctx->MakeAdd(Gen(depth - 1), Gen(depth - 1));
          case 1: return ctx->MakeSub(Gen(depth - 1), Gen(depth - 1));
          case 2: return ctx->MakeMul(Gen(depth - 1), Gen(depth - 1));
          case 3: return ctx->MakeAnd(Gen(depth - 1), Gen(depth - 1));
          case 4: return ctx->MakeOr(Gen(depth - 1), Gen(depth - 1));
          case 5: return ctx->MakeXor(Gen(depth - 1), Gen(depth - 1));
          case 6: return ctx->MakeNot(Gen(depth - 1));
          case 7: return ctx->MakeShl(Gen(depth - 1), Gen(depth - 1));
          case 8: return ctx->MakeLShr(Gen(depth - 1), Gen(depth - 1));
          case 9: return ctx->MakeUDiv(Gen(depth - 1), Gen(depth - 1));
          case 10: return ctx->MakeURem(Gen(depth - 1), Gen(depth - 1));
          default:
            return ctx->MakeIte(GenPred(depth - 1), Gen(depth - 1),
                                Gen(depth - 1));
        }
    }

    ExprRef
    GenPred(int depth)
    {
        switch (rng->Below(5)) {
          case 0: return ctx->MakeEq(Gen(depth), Gen(depth));
          case 1: return ctx->MakeUlt(Gen(depth), Gen(depth));
          case 2: return ctx->MakeUle(Gen(depth), Gen(depth));
          case 3: return ctx->MakeSlt(Gen(depth), Gen(depth));
          default: return ctx->MakeSle(Gen(depth), Gen(depth));
        }
    }
};

class SolverPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverPropertyTest, RandomQueriesMatchBruteForce)
{
    Rng rng(0xbead5eedull * (GetParam() + 1));
    ExprContext ctx;
    Solver solver(&ctx, SolverConfig{});

    for (int iter = 0; iter < 30; ++iter) {
        const uint32_t width = 3 + rng.Below(3);  // 3..5 bits
        const uint32_t num_vars = 2 + rng.Below(2);  // 2..3 vars
        RandomExprGen gen{&ctx, &rng, {}, width};
        for (uint32_t i = 0; i < num_vars; ++i)
            gen.vars.push_back(ctx.FreshVar("v", width));

        std::vector<ExprRef> assertions;
        const int num_asserts = 1 + rng.Below(3);
        for (int i = 0; i < num_asserts; ++i)
            assertions.push_back(gen.GenPred(2));

        // Brute force over the full domain.
        bool expected = false;
        const uint64_t domain = 1ull << (width * num_vars);
        for (uint64_t enc = 0; enc < domain && !expected; ++enc) {
            Model m;
            for (uint32_t i = 0; i < num_vars; ++i) {
                m.Set(gen.vars[i]->VarId(),
                      (enc >> (i * width)) & WidthMask(width));
            }
            bool all = true;
            for (ExprRef a : assertions)
                all &= EvaluateBool(a, m);
            expected = all;
        }

        Model model;
        const CheckResult got = solver.CheckSat(assertions, &model);
        ASSERT_NE(got, CheckResult::kUnknown);
        EXPECT_EQ(got == CheckResult::kSat, expected)
            << "iter=" << iter << " width=" << width;
        // The solver validates every model it returns; reaching here
        // on SAT means the check passed.
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace smt
}  // namespace achilles
