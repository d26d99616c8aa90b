// Achilles reproduction -- tests.
//
// The solver facade across a stream of queries: the CheckSatAssuming
// surface, cache model-upgrade semantics, the stale-model regression
// (every non-kSat return path must clear the caller's Model), budget
// exhaustion, learnt-clause eviction, a long stateful differential
// stream through the default facade against an unoptimized reference
// (same verdicts, and every requested model is the one a fresh solver
// returns, whatever the stream asked before), the same for the verdicts
// of CheckSatOnSatBase's sliced queries on satisfiable bases and of
// verdict-only queries rewritten by equality substitution, and large
// and small instances interleaved, which crosses both the reset and the
// free path of the per-thread SAT instance.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "smt/bitblast.h"
#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/sat.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace achilles {
namespace smt {
namespace {

class SolverStreamTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};
};

TEST_F(SolverStreamTest, CheckSatAssumingMatchesConjunction)
{
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    std::vector<ExprRef> base{ctx.MakeUlt(x, ctx.MakeConst(8, 100)),
                              ctx.MakeEq(y, ctx.MakeAdd(x, x))};
    ExprRef in_range = ctx.MakeUlt(y, ctx.MakeConst(8, 250));
    ExprRef conflict = ctx.MakeUgt(x, ctx.MakeConst(8, 200));

    EXPECT_EQ(solver.CheckSatAssuming(base, {in_range}),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSatAssuming(base, {conflict}),
              CheckResult::kUnsat);
    // Same answers as the one-vector form.
    std::vector<ExprRef> joined = base;
    joined.push_back(conflict);
    EXPECT_EQ(solver.CheckSat(joined), CheckResult::kUnsat);
}

TEST_F(SolverStreamTest, CachedSatEntryUpgradesToModel)
{
    // First ask without a model (the cache keeps the verdict only),
    // then with one: the facade must re-solve, return a valid witness,
    // and serve later model requests from the cache.
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef q = ctx.MakeEq(ctx.MakeMul(x, ctx.MakeConst(8, 3)),
                           ctx.MakeConst(8, 21));
    EXPECT_EQ(solver.CheckSat({q}), CheckResult::kSat);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), 1);

    Model model;
    ASSERT_EQ(solver.CheckSat({q}, &model), CheckResult::kSat);
    EXPECT_TRUE(EvaluateBool(q, model));
    EXPECT_GE(solver.stats().Get("solver.cache_model_upgrades"), 1);
    const int64_t fresh_calls = solver.stats().Get("solver.sat_calls");
    EXPECT_EQ(fresh_calls, 2);

    Model again;
    ASSERT_EQ(solver.CheckSat({q}, &again), CheckResult::kSat);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), fresh_calls);
    EXPECT_EQ(again.Get(x->VarId()), model.Get(x->VarId()));
}

TEST_F(SolverStreamTest, StaleModelClearedOnEveryUnsatPath)
{
    // Regression: early kUnsat returns (and the trivial-unsat return)
    // used to leave the caller's Model untouched, so reusing one Model
    // object across queries read the previous query's values.
    ExprRef x = ctx.FreshVar("x", 8);
    Model model;
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    ASSERT_EQ(model.Get(x->VarId()), 42u);

    // Range conflict: SolveFresh returns kUnsat once clause emission
    // fails, before any search.
    EXPECT_EQ(solver.CheckSat({ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
                               ctx.MakeUgt(x, ctx.MakeConst(8, 20))},
                              &model),
              CheckResult::kUnsat);
    EXPECT_FALSE(model.Has(x->VarId()));
    EXPECT_TRUE(model.values().empty());

    // Trivially-false assertion.
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({ctx.False()}, &model), CheckResult::kUnsat);
    EXPECT_TRUE(model.values().empty());

    // UNSAT refuted by the SAT search: the model must still come back
    // empty.
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    ExprRef y = ctx.FreshVar("y", 8);
    EXPECT_EQ(solver.CheckSat({ctx.MakeEq(ctx.MakeXor(x, y),
                                          ctx.MakeConst(8, 1)),
                               ctx.MakeEq(x, y)},
                              &model),
              CheckResult::kUnsat);
    EXPECT_TRUE(model.values().empty());

    // Cache-served UNSAT clears too.
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
                               ctx.MakeUgt(x, ctx.MakeConst(8, 20))},
                              &model),
              CheckResult::kUnsat);
    EXPECT_TRUE(model.values().empty());
    EXPECT_GE(solver.stats().Get("solver.cache_hits"), 1);
}

TEST_F(SolverStreamTest, BudgetExhaustionIsUnknownAndUncached)
{
    SolverConfig config;
    config.max_conflicts = 2;
    Solver limited(&ctx, config);
    // Pairwise-distinct pigeonhole instance, too hard for 2 conflicts.
    std::vector<ExprRef> vars, query;
    for (int i = 0; i < 5; ++i) {
        vars.push_back(ctx.FreshVar("p", 8));
        query.push_back(ctx.MakeUlt(vars.back(), ctx.MakeConst(8, 4)));
    }
    for (size_t i = 0; i < vars.size(); ++i)
        for (size_t j = i + 1; j < vars.size(); ++j)
            query.push_back(ctx.MakeNe(vars[i], vars[j]));

    EXPECT_EQ(limited.CheckSat(query), CheckResult::kUnknown);
    EXPECT_GE(limited.stats().Get("solver.sat_calls"), 1);
    // Not cached: the repeat costs another solve attempt, no cache hit.
    EXPECT_EQ(limited.CheckSat(query), CheckResult::kUnknown);
    EXPECT_EQ(limited.stats().Get("solver.cache_hits"), 0);
}

// ------------------------------------------ stateful differential stream

TEST(SolverStreamDifferentialTest, LongStreamAgreesWithUnoptimizedReference)
{
    // One default solver -- its memo cache carrying state from query
    // to query -- answers a long seeded stream whose base grows, shrinks
    // and stays shared between consecutive queries, the shape of the
    // explorer's pathS streams. Every verdict must match a fresh solver
    // with the cache off, and every requested model must satisfy its
    // query and equal the fresh solver's model for it: the solver
    // carries nothing but its memo cache from query to query.
    ExprContext ctx;
    std::vector<ExprRef> vars;
    for (int i = 0; i < 4; ++i)
        vars.push_back(ctx.FreshVar("s", 8));
    Rng rng(0x57a7e);
    auto operand = [&]() -> ExprRef {
        return rng.Chance(0.5) ? vars[rng.Below(vars.size())]
                               : ctx.MakeConst(8, rng.Below(256));
    };
    std::vector<ExprRef> pool;
    while (pool.size() < 32) {
        ExprRef a = vars[rng.Below(vars.size())];
        switch (rng.Below(4)) {
          case 0: a = ctx.MakeAdd(a, operand()); break;
          case 1: a = ctx.MakeXor(a, operand()); break;
          default: break;
        }
        const ExprRef b = operand();
        ExprRef atom;
        switch (rng.Below(5)) {
          case 0: atom = ctx.MakeEq(a, b); break;
          case 1: atom = ctx.MakeNe(a, b); break;
          case 2: atom = ctx.MakeUle(a, b); break;
          default: atom = ctx.MakeUlt(a, b); break;
        }
        if (!atom->IsConst())
            pool.push_back(atom);
    }
    auto draw = [&]() { return pool[rng.Below(pool.size())]; };

    SolverConfig reference_config;
    reference_config.enable_cache = false;
    auto reference_check = [&](const std::vector<ExprRef> &assertions,
                               Model *model) {
        Solver reference(&ctx, reference_config);
        return reference.CheckSat(assertions, model);
    };

    Solver solver(&ctx);
    std::vector<ExprRef> base;
    std::vector<ExprRef> extras;
    int sat = 0, unsat = 0;
    for (int q = 0; q < 2400; ++q) {
        // Every tenth query or so repeats the previous one verbatim (a
        // memo-cache hit); otherwise the base grows, shrinks at a random
        // position or stays shared, and fresh extras are drawn.
        if (q == 0 || !rng.Chance(0.1)) {
            const uint64_t move = rng.Below(3);
            if (base.size() < 2 || (move == 0 && base.size() < 7)) {
                base.push_back(draw());
            } else if (move == 1) {
                base.erase(base.begin() +
                           static_cast<ptrdiff_t>(rng.Below(base.size())));
            }
            extras.assign(1 + rng.Below(2), nullptr);
            for (ExprRef &e : extras)
                e = draw();
        }
        std::vector<ExprRef> query = base;
        query.insert(query.end(), extras.begin(), extras.end());

        // A sprinkling of model requests upgrades cached verdict-only
        // entries in between.
        Model model, reference_model;
        const bool want_model = q % 16 == 0;
        const CheckResult got = solver.CheckSatAssuming(
            base, extras, want_model ? &model : nullptr);
        const CheckResult want =
            reference_check(query, want_model ? &reference_model : nullptr);
        ASSERT_NE(want, CheckResult::kUnknown);
        ASSERT_EQ(got, want) << "query " << q;
        if (got == CheckResult::kSat) {
            ++sat;
            if (want_model) {
                for (ExprRef e : query)
                    ASSERT_TRUE(EvaluateBool(e, model)) << "query " << q;
                ASSERT_EQ(model.values(), reference_model.values())
                    << "query " << q;
            }
            continue;
        }
        ++unsat;
    }
    // The stream is mixed, and both the cache and the SAT path took
    // part.
    EXPECT_GT(sat, 400);
    EXPECT_GT(unsat, 400);
    EXPECT_GE(solver.stats().Get("solver.sat_calls"), 500);
    EXPECT_GE(solver.stats().Get("solver.cache_hits"), 100);
}

// ------------------------------------- sliced verdict-only queries

/** Keeps the assertions of the last CheckSatAssuming call it got. */
class RecordingSolver : public Solver
{
  public:
    using Solver::Solver;

    CheckResult
    CheckSatAssuming(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> &extras,
                     Model *model) override
    {
        last_base = base;
        last_extras = extras;
        return Solver::CheckSatAssuming(base, extras, model);
    }

    std::vector<ExprRef> last_base;
    std::vector<ExprRef> last_extras;
};

TEST(SolverSliceDifferentialTest, SlicedVerdictsMatchFullQueries)
{
    // Bases are drawn over four disjoint clusters of three variables,
    // with equality chains inside a cluster (x == y, y < 7): a slice
    // that keeps only the assertions sharing a variable with the query
    // directly, not transitively, answers kSat where the full query is
    // kUnsat. A cache-off reference proves every base kSat before it is
    // used -- CheckSatOnSatBase's precondition -- and answers every
    // query in full; one default solver answers it sliced. The verdicts
    // must match, and the slice it passed on must be closed: every
    // assertion it dropped shares no variable with the kept ones or with
    // the extras (checked with CollectVars, not the VarsOf memo the
    // slicer reads).
    ExprContext ctx;
    constexpr int kClusters = 4;
    std::vector<std::vector<ExprRef>> clusters(kClusters);
    for (std::vector<ExprRef> &cluster : clusters)
        for (int i = 0; i < 3; ++i)
            cluster.push_back(ctx.FreshVar("c", 8));
    Rng rng(0x511ced);
    auto small = [&]() { return ctx.MakeConst(8, rng.Below(8)); };
    // A non-constant atom over variables of `a` and `b`.
    auto atom = [&](const std::vector<ExprRef> &a,
                    const std::vector<ExprRef> &b) -> ExprRef {
        for (;;) {
            const ExprRef x = a[rng.Below(a.size())];
            const ExprRef y = b[rng.Below(b.size())];
            ExprRef e;
            switch (rng.Below(6)) {
              case 0:
              case 1: e = ctx.MakeEq(x, y); break;
              case 2: e = ctx.MakeUlt(x, small()); break;
              case 3: e = ctx.MakeUlt(small(), x); break;
              case 4: e = ctx.MakeNe(x, small()); break;
              default:
                e = ctx.MakeEq(ctx.MakeAdd(x, ctx.MakeConst(8, 1)), y);
                break;
            }
            if (!e->IsConst())
                return e;
        }
    };
    auto cluster = [&]() -> const std::vector<ExprRef> & {
        return clusters[rng.Below(kClusters)];
    };
    auto vars_of = [&](const std::vector<ExprRef> &assertions) {
        std::unordered_set<uint32_t> vars;
        for (ExprRef e : assertions)
            ctx.CollectVars(e, &vars);
        return vars;
    };

    SolverConfig reference_config;
    reference_config.enable_cache = false;
    Solver reference(&ctx, reference_config);
    RecordingSolver solver(&ctx);
    std::vector<ExprRef> base;
    std::vector<ExprRef> extras;
    constexpr int kQueries = 2400;
    int sat = 0, unsat = 0, sliced = 0, transitive = 0;
    for (int q = 0; q < kQueries; ++q) {
        // The base grows by an atom inside one cluster (kept only if
        // the base stays satisfiable), loses one, or stays shared.
        const uint64_t move = rng.Below(3);
        if (base.size() < 3 || (move == 0 && base.size() < 10)) {
            const std::vector<ExprRef> &c = cluster();
            base.push_back(atom(c, c));
            if (reference.CheckSat(base) != CheckResult::kSat)
                base.pop_back();
        } else if (move == 1) {
            base.erase(base.begin() +
                       static_cast<ptrdiff_t>(rng.Below(base.size())));
        }
        ASSERT_EQ(reference.CheckSat(base), CheckResult::kSat)
            << "query " << q;
        // One or two extras, now and then linking two clusters.
        extras.assign(1 + rng.Below(2), nullptr);
        for (ExprRef &e : extras) {
            const std::vector<ExprRef> &a = cluster();
            e = atom(a, rng.Chance(0.15) ? cluster() : a);
        }

        const CheckResult got = solver.CheckSatOnSatBase(base, extras);
        const CheckResult want = reference.CheckSatAssuming(base, extras);
        ASSERT_NE(want, CheckResult::kUnknown);
        ASSERT_EQ(got, want) << "query " << q;
        (got == CheckResult::kSat ? sat : unsat) += 1;

        ASSERT_EQ(solver.last_extras, extras) << "query " << q;
        std::vector<ExprRef> dropped = base;
        for (ExprRef e : solver.last_base) {
            const auto it = std::find(dropped.begin(), dropped.end(), e);
            ASSERT_NE(it, dropped.end()) << "query " << q << ": "
                                         << ctx.ToString(e)
                                         << " is not a base assertion";
            dropped.erase(it);
        }
        std::unordered_set<uint32_t> kept_vars = vars_of(extras);
        for (uint32_t v : vars_of(solver.last_base))
            kept_vars.insert(v);
        for (uint32_t v : vars_of(dropped)) {
            ASSERT_EQ(kept_vars.count(v), 0u)
                << "query " << q << ": a dropped assertion shares "
                << ctx.InfoOf(v).name << " with the slice";
        }
        if (!dropped.empty())
            ++sliced;
        // The slice reached past the assertions sharing a variable with
        // the extras directly.
        const std::unordered_set<uint32_t> extra_vars = vars_of(extras);
        for (ExprRef e : solver.last_base) {
            const std::unordered_set<uint32_t> vars = vars_of({e});
            if (std::none_of(vars.begin(), vars.end(), [&](uint32_t v) {
                    return extra_vars.count(v) != 0;
                })) {
                ++transitive;
                break;
            }
        }
    }
    // Both verdicts occur (1,982 kSat and 418 kUnsat at this seed).
    // Slicing leaves part of the base out of 9 queries in 10 (2,371),
    // and on 294 queries it keeps an assertion that shares no variable
    // with the extras directly.
    EXPECT_GT(sat, 1000);
    EXPECT_GT(unsat, 300);
    EXPECT_GT(sliced, kQueries * 9 / 10);
    EXPECT_GT(transitive, 200);
}

// --------------------------- equality substitution of verdict queries

TEST(SolverRewriteDifferentialTest, RewrittenVerdictsMatchUnrewrittenQueries)
{
    // Verdict-only queries have their `var == const` bindings
    // substituted before the memo cache and the SAT instance; model
    // queries never do. So one default solver answers a seeded stream
    // model-less -- rewritten, its memo cache carrying state from query
    // to query -- and a cache-off reference answers each query with a
    // Model, as asked. The verdicts must match.
    //
    // The atoms are over four 8-bit variables, with small constants so
    // that equalities collide: `v == c`, `v != c`, ranges, `v == w`
    // links and arithmetic on one or two variables. The stream counts
    // the shapes the rewrite has to get right -- two equalities on one
    // variable with equal and with different constants, an equality in
    // the extras pinning a base variable -- and requires each to occur.
    ExprContext ctx;
    std::vector<ExprRef> vars;
    for (int i = 0; i < 4; ++i)
        vars.push_back(ctx.FreshVar("r", 8));
    Rng rng(0xe9b17d);
    auto var = [&]() { return vars[rng.Below(vars.size())]; };
    auto small = [&]() { return ctx.MakeConst(8, rng.Below(6)); };
    auto atom = [&]() -> ExprRef {
        for (;;) {
            const ExprRef x = var();
            ExprRef e;
            switch (rng.Below(10)) {
              case 0:
              case 1:
              case 2: e = ctx.MakeEq(x, small()); break;
              case 3: e = ctx.MakeNe(x, small()); break;
              case 4: e = ctx.MakeUlt(x, ctx.MakeConst(8, rng.Below(8))); break;
              case 5: e = ctx.MakeUlt(small(), x); break;
              case 6: e = ctx.MakeEq(x, var()); break;
              case 7:
                e = ctx.MakeEq(ctx.MakeAdd(x, var()),
                               ctx.MakeConst(8, rng.Below(12)));
                break;
              case 8:
                e = ctx.MakeUle(ctx.MakeMul(x, ctx.MakeConst(8, 3)),
                                ctx.MakeConst(8, rng.Below(20)));
                break;
              default:
                e = ctx.MakeNe(ctx.MakeXor(x, var()), small());
                break;
            }
            if (!e->IsConst())
                return e;
        }
    };
    // The variable and constant of a `var == const` assertion, as
    // MakeEq builds it.
    auto binding = [](ExprRef e, uint32_t *v, uint64_t *c) {
        if (e->kind() != Kind::kEq || !e->kid(0)->IsVar() ||
            !e->kid(1)->IsConst()) {
            return false;
        }
        *v = e->kid(0)->VarId();
        *c = e->kid(1)->ConstValue();
        return true;
    };

    SolverConfig reference_config;
    reference_config.enable_cache = false;
    Solver reference(&ctx, reference_config);
    Solver solver(&ctx);
    std::vector<ExprRef> base;
    std::vector<ExprRef> extras;
    constexpr int kQueries = 2400;
    int sat = 0, unsat = 0, with_binding = 0, no_sat_call = 0;
    int same_constant = 0, different_constants = 0, pins_base = 0;
    for (int q = 0; q < kQueries; ++q) {
        // As in the stream above: every tenth query or so repeats the
        // previous one; otherwise the base grows, loses an assertion or
        // stays shared, and fresh extras are drawn.
        if (q == 0 || !rng.Chance(0.1)) {
            const uint64_t move = rng.Below(3);
            if (base.size() < 2 || (move == 0 && base.size() < 6)) {
                base.push_back(atom());
            } else if (move == 1) {
                base.erase(base.begin() +
                           static_cast<ptrdiff_t>(rng.Below(base.size())));
            }
            extras.assign(1 + rng.Below(2), nullptr);
            for (ExprRef &e : extras)
                e = atom();
        }
        std::vector<ExprRef> query = base;
        query.insert(query.end(), extras.begin(), extras.end());

        // Which shapes this query holds.
        std::unordered_map<uint32_t, std::vector<uint64_t>> bound;
        bool has_binding = false, same = false, different = false;
        for (ExprRef e : query) {
            uint32_t v;
            uint64_t c;
            if (!binding(e, &v, &c))
                continue;
            has_binding = true;
            for (uint64_t other : bound[v])
                (other == c ? same : different) = true;
            bound[v].push_back(c);
        }
        std::unordered_set<uint32_t> base_vars;
        for (ExprRef e : base)
            ctx.CollectVars(e, &base_vars);
        for (ExprRef e : extras) {
            uint32_t v;
            uint64_t c;
            if (binding(e, &v, &c) && base_vars.count(v) != 0) {
                ++pins_base;
                break;
            }
        }

        const int64_t calls_before = solver.stats().Get("solver.sat_calls");
        const int64_t hits_before = solver.stats().Get("solver.cache_hits");
        const int64_t rewritten_before =
            solver.stats().Get("solver.rewritten");
        const CheckResult got = solver.CheckSatAssuming(base, extras);
        Model model;
        const CheckResult want = reference.CheckSat(query, &model);
        ASSERT_NE(want, CheckResult::kUnknown);
        ASSERT_EQ(got, want) << "query " << q;
        (got == CheckResult::kSat ? sat : unsat) += 1;

        // The rewrite fires exactly on the queries holding a binding.
        ASSERT_EQ(solver.stats().Get("solver.rewritten") - rewritten_before,
                  has_binding ? 1 : 0)
            << "query " << q;
        with_binding += has_binding;
        same_constant += same;
        different_constants += different;
        if (solver.stats().Get("solver.sat_calls") == calls_before &&
            solver.stats().Get("solver.cache_hits") == hits_before) {
            ++no_sat_call;
        }
    }
    // Both verdicts, and every shape, occur often (at this seed: 1,080
    // kSat, 1,320 kUnsat; 105 queries with two equal equalities on one
    // variable, 503 with two different ones, 741 with an extra pinning a
    // base variable). The rewrite fired on 2,028 of the 2,400 queries,
    // and folded 1,071 to a verdict with no cache hit and no SAT call.
    EXPECT_GT(sat, 500);
    EXPECT_GT(unsat, 500);
    EXPECT_GT(same_constant, 50);
    EXPECT_GT(different_constants, 300);
    EXPECT_GT(pins_base, 500);
    EXPECT_EQ(solver.stats().Get("solver.rewritten"), with_binding);
    EXPECT_GT(with_binding, kQueries * 3 / 4);
    EXPECT_GT(no_sat_call, kQueries / 4);
    // The reference answered every query as asked: never rewritten.
    EXPECT_EQ(reference.stats().Get("solver.rewritten"), 0);
}

// ------------------------------------------- large and small instances

TEST(SolverStreamSizeTest, LargeInstancesInterleavedMatchReverseOrder)
{
    // SolveFresh keeps one SAT instance per thread and Resets it before
    // each query, but frees it after a query larger than
    // kMaxRetainedSatVars. A stream mixing 32-bit multiply/divide
    // queries (above the bound) with small 8-bit ones crosses both
    // paths; answered forward and in reverse, on fresh solvers, every
    // verdict and model must be the same.
    ExprContext ctx;
    const ExprRef x = ctx.FreshVar("x", 32);
    const ExprRef y = ctx.FreshVar("y", 32);
    const ExprRef z = ctx.FreshVar("z", 32);
    const ExprRef a = ctx.FreshVar("a", 8);
    const ExprRef b = ctx.FreshVar("b", 8);
    auto c32 = [&](uint64_t v) { return ctx.MakeConst(32, v); };
    auto c8 = [&](uint64_t v) { return ctx.MakeConst(8, v); };

    Rng rng(0xb16b00b5ull);
    std::vector<std::vector<ExprRef>> queries;
    std::vector<bool> large;
    for (int i = 0; i < 24; ++i) {
        const uint64_t p = 1 + rng.Below(1u << 16);
        const uint64_t q = 1 + rng.Below(1u << 16);
        const uint64_t k = rng.Below(256);
        const uint64_t m = rng.Below(256);
        switch (i % 6) {
          case 0:  // product of two pinned factors
            queries.push_back({ctx.MakeEq(ctx.MakeMul(x, y), z),
                               ctx.MakeEq(x, c32(p)), ctx.MakeEq(y, c32(q))});
            break;
          case 1:  // the same with a wrong product: UNSAT
            queries.push_back(
                {ctx.MakeEq(ctx.MakeMul(x, y), z), ctx.MakeEq(x, c32(p)),
                 ctx.MakeEq(y, c32(q)),
                 ctx.MakeNe(z, c32(p * q & 0xffffffffu))});
            break;
          case 2:  // a dividend for a quotient and divisor
            queries.push_back({ctx.MakeEq(ctx.MakeUDiv(x, y), c32(p)),
                               ctx.MakeEq(y, c32(q & 0xff))});
            break;
          case 3:  // small 8-bit queries
            queries.push_back({ctx.MakeEq(ctx.MakeAdd(a, b), c8(k)),
                               ctx.MakeUlt(a, c8(m))});
            break;
          case 4:  // a + b is even when a == b: UNSAT
            queries.push_back({ctx.MakeEq(ctx.MakeAdd(a, b), c8(k | 1)),
                               ctx.MakeEq(ctx.MakeXor(a, b), c8(0))});
            break;
          default:
            queries.push_back({ctx.MakeEq(ctx.MakeAdd(a, b), c8(k)),
                               ctx.MakeEq(ctx.MakeXor(a, b), c8(m))});
            break;
        }
        large.push_back(i % 6 < 3);
    }

    for (size_t i = 0; i < queries.size(); ++i) {
        if (!large[i])
            continue;
        SatSolver sat;
        BitBlaster blaster(&sat);
        for (ExprRef e : queries[i])
            blaster.AssertTrue(e);
        ASSERT_GT(sat.NumVars(), Solver::kMaxRetainedSatVars)
            << "query " << i;
    }

    auto answer = [&](bool reverse, std::vector<CheckResult> *verdicts,
                      std::vector<Model> *models) {
        Solver solver(&ctx);
        verdicts->assign(queries.size(), CheckResult::kUnknown);
        models->assign(queries.size(), Model());
        for (size_t n = 0; n < queries.size(); ++n) {
            const size_t i = reverse ? queries.size() - 1 - n : n;
            (*verdicts)[i] = solver.CheckSat(queries[i], &(*models)[i]);
        }
    };
    std::vector<CheckResult> forward, backward;
    std::vector<Model> forward_models, backward_models;
    answer(false, &forward, &forward_models);
    answer(true, &backward, &backward_models);
    int sat[2] = {0, 0}, unsat[2] = {0, 0};
    for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_NE(forward[i], CheckResult::kUnknown) << "query " << i;
        ASSERT_EQ(forward[i], backward[i]) << "query " << i;
        ASSERT_EQ(forward_models[i].values(), backward_models[i].values())
            << "query " << i;
        const int side = large[i] ? 1 : 0;
        if (forward[i] == CheckResult::kSat)
            ++sat[side];
        else
            ++unsat[side];
    }
    // Both verdicts, on both sides of the bound.
    for (int is_large = 0; is_large < 2; ++is_large) {
        EXPECT_GT(sat[is_large], 0);
        EXPECT_GT(unsat[is_large], 0);
    }
}

// ----------------------------------------------------------------- SAT

TEST(SatLearntCapTest, ReduceDBEvictsAndStaysCorrect)
{
    // Pigeonhole instances force plenty of learnt clauses; with a tiny
    // retention cap, ReduceDB must run (evicting + garbage-collecting
    // the arena) and the verdict must stay UNSAT across repeated calls.
    SatSolver sat;
    sat.SetLearntCap(8);
    const int holes = 6, pigeons = 7;
    std::vector<std::vector<uint32_t>> var(pigeons,
                                           std::vector<uint32_t>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            var[p][h] = sat.NewVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.emplace_back(var[p][h], false);
        sat.AddClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                sat.AddBinary(Lit(var[p1][h], true), Lit(var[p2][h], true));

    EXPECT_EQ(sat.Solve(), SatStatus::kUnsat);
    EXPECT_GE(sat.stats().Get("sat.reduce_dbs"), 1);
    EXPECT_GE(sat.stats().Get("sat.learnts_removed"), 1);
    // Still answers correctly after eviction.
    EXPECT_EQ(sat.Solve(), SatStatus::kUnsat);
}

}  // namespace
}  // namespace smt
}  // namespace achilles
