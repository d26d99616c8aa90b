// Achilles reproduction -- tests.
//
// Unit and property tests for the CDCL SAT solver, including brute-force
// cross-checks on random 3-SAT instances, a Reset solver checked against
// a new one, and the pinned counters of a seeded instance stream.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "smt/sat.h"
#include "support/rng.h"

namespace achilles {
namespace smt {
namespace {

TEST(SatSolverTest, EmptyInstanceIsSat)
{
    SatSolver s;
    EXPECT_EQ(s.Solve(), SatStatus::kSat);
}

TEST(SatSolverTest, SingleUnit)
{
    SatSolver s;
    const uint32_t v = s.NewVar();
    ASSERT_TRUE(s.AddUnit(Lit(v, false)));
    ASSERT_EQ(s.Solve(), SatStatus::kSat);
    EXPECT_TRUE(s.Value(v));
}

TEST(SatSolverTest, ConflictingUnitsAreUnsat)
{
    SatSolver s;
    const uint32_t v = s.NewVar();
    EXPECT_TRUE(s.AddUnit(Lit(v, false)));
    EXPECT_FALSE(s.AddUnit(Lit(v, true)));
    EXPECT_EQ(s.Solve(), SatStatus::kUnsat);
}

TEST(SatSolverTest, SimpleImplicationChain)
{
    SatSolver s;
    // a, a->b, b->c  so c must be true.
    const uint32_t a = s.NewVar();
    const uint32_t b = s.NewVar();
    const uint32_t c = s.NewVar();
    s.AddUnit(Lit(a, false));
    s.AddBinary(Lit(a, true), Lit(b, false));
    s.AddBinary(Lit(b, true), Lit(c, false));
    ASSERT_EQ(s.Solve(), SatStatus::kSat);
    EXPECT_TRUE(s.Value(a));
    EXPECT_TRUE(s.Value(b));
    EXPECT_TRUE(s.Value(c));
}

TEST(SatSolverTest, RequiresConflictAnalysis)
{
    SatSolver s;
    // (a|b) (a|~b) (~a|c) (~a|~c) is UNSAT.
    const uint32_t a = s.NewVar();
    const uint32_t b = s.NewVar();
    const uint32_t c = s.NewVar();
    s.AddBinary(Lit(a, false), Lit(b, false));
    s.AddBinary(Lit(a, false), Lit(b, true));
    s.AddBinary(Lit(a, true), Lit(c, false));
    s.AddBinary(Lit(a, true), Lit(c, true));
    EXPECT_EQ(s.Solve(), SatStatus::kUnsat);
}

TEST(SatSolverTest, TautologyClausesAreIgnored)
{
    SatSolver s;
    const uint32_t a = s.NewVar();
    EXPECT_TRUE(s.AddClause({Lit(a, false), Lit(a, true)}));
    EXPECT_EQ(s.Solve(), SatStatus::kSat);
}

TEST(SatSolverTest, DuplicateLiteralsAreDeduped)
{
    SatSolver s;
    const uint32_t a = s.NewVar();
    const uint32_t b = s.NewVar();
    EXPECT_TRUE(s.AddClause(
        {Lit(a, false), Lit(a, false), Lit(b, false)}));
    s.AddUnit(Lit(a, true));
    ASSERT_EQ(s.Solve(), SatStatus::kSat);
    EXPECT_TRUE(s.Value(b));
}

TEST(SatSolverTest, IncrementalClauseAddition)
{
    SatSolver s;
    const uint32_t a = s.NewVar();
    const uint32_t b = s.NewVar();
    s.AddBinary(Lit(a, false), Lit(b, false));
    ASSERT_EQ(s.Solve(), SatStatus::kSat);
    s.AddUnit(Lit(a, true));
    ASSERT_EQ(s.Solve(), SatStatus::kSat);
    EXPECT_TRUE(s.Value(b));
    s.AddUnit(Lit(b, true));
    EXPECT_EQ(s.Solve(), SatStatus::kUnsat);
}

TEST(SatSolverTest, ResolveAfterSatDecidesUnassignedVars)
{
    // The first Solve decides every var (false) without a conflict; the
    // clause added afterwards backtracks them all, and the second Solve
    // must decide them again -- a and b, after which c propagates --
    // not stop where the first one left off.
    SatSolver s;
    const uint32_t a = s.NewVar();
    const uint32_t b = s.NewVar();
    const uint32_t c = s.NewVar();
    ASSERT_EQ(s.Solve(), SatStatus::kSat);
    s.AddTernary(Lit(a, false), Lit(b, false), Lit(c, false));
    ASSERT_EQ(s.Solve(), SatStatus::kSat);
    EXPECT_TRUE(s.Value(a) || s.Value(b) || s.Value(c));
    EXPECT_EQ(s.counters().decisions, 5);
}

/** Pigeonhole principle PHP(n+1, n): always UNSAT, needs real search. */
void
BuildPigeonhole(SatSolver *s, int holes)
{
    const int pigeons = holes + 1;
    std::vector<std::vector<uint32_t>> var(pigeons,
                                           std::vector<uint32_t>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            var[p][h] = s->NewVar();
    // Every pigeon in some hole.
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.emplace_back(var[p][h], false);
        s->AddClause(clause);
    }
    // No two pigeons share a hole.
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s->AddBinary(Lit(var[p1][h], true), Lit(var[p2][h], true));
}

TEST(SatSolverTest, PigeonholeUnsat)
{
    for (int holes = 2; holes <= 6; ++holes) {
        SatSolver s;
        BuildPigeonhole(&s, holes);
        EXPECT_EQ(s.Solve(), SatStatus::kUnsat) << "holes=" << holes;
    }
}

TEST(SatSolverTest, ConflictBudgetReturnsUnknown)
{
    SatSolver s;
    BuildPigeonhole(&s, 8);
    // A tiny budget cannot refute PHP(9,8).
    EXPECT_EQ(s.Solve(2), SatStatus::kUnknown);
}

/** Brute-force satisfiability of a clause set over n <= 20 vars. */
bool
BruteForceSat(uint32_t num_vars,
              const std::vector<std::vector<Lit>> &clauses)
{
    for (uint64_t assign = 0; assign < (1ull << num_vars); ++assign) {
        bool all_sat = true;
        for (const auto &clause : clauses) {
            bool clause_sat = false;
            for (Lit l : clause) {
                const bool val = ((assign >> l.var()) & 1) != 0;
                if (val != l.negated()) {
                    clause_sat = true;
                    break;
                }
            }
            if (!clause_sat) {
                all_sat = false;
                break;
            }
        }
        if (all_sat)
            return true;
    }
    return false;
}

class RandomThreeSatTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomThreeSatTest, MatchesBruteForce)
{
    Rng rng(0xace0fba5eull + GetParam());
    for (int iter = 0; iter < 40; ++iter) {
        const uint32_t num_vars = 4 + rng.Below(8);  // 4..11
        // Around the 3-SAT phase transition (~4.3 clauses/var) both SAT
        // and UNSAT instances are generated.
        const uint32_t num_clauses =
            static_cast<uint32_t>(num_vars * (3.0 + rng.NextDouble() * 3));
        SatSolver s;
        for (uint32_t v = 0; v < num_vars; ++v)
            s.NewVar();
        std::vector<std::vector<Lit>> clauses;
        bool trivially_unsat = false;
        for (uint32_t i = 0; i < num_clauses; ++i) {
            std::vector<Lit> clause;
            for (int k = 0; k < 3; ++k) {
                clause.emplace_back(
                    static_cast<uint32_t>(rng.Below(num_vars)),
                    rng.Chance(0.5));
            }
            clauses.push_back(clause);
            if (!s.AddClause(clause))
                trivially_unsat = true;
        }
        const bool expected = BruteForceSat(num_vars, clauses);
        const SatStatus got = s.Solve();
        if (trivially_unsat) {
            EXPECT_FALSE(expected);
            EXPECT_EQ(got, SatStatus::kUnsat);
            continue;
        }
        EXPECT_EQ(got, expected ? SatStatus::kSat : SatStatus::kUnsat)
            << "vars=" << num_vars << " clauses=" << num_clauses
            << " iter=" << iter;
        if (got == SatStatus::kSat) {
            // Validate the model against the original clause set.
            for (const auto &clause : clauses) {
                bool sat = false;
                for (Lit l : clause)
                    sat |= (s.Value(l.var()) != l.negated());
                EXPECT_TRUE(sat);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomThreeSatTest,
                         ::testing::Range(0, 8));

// ------------------------------------------------ seeded instance stream

/**
 * Build and solve instance `index` of a seeded stream:
 *   - random 3-SAT near the phase transition (~4.26 clauses/var), so
 *     both verdicts occur and most instances conflict;
 *   - a pigeonhole refutation, some under a small learnt cap so that
 *     ReduceDB evicts and the arena is garbage-collected;
 *   - PHP(9, 8) under a 2-conflict budget, which returns kUnknown.
 * `s` must be empty.
 */
SatStatus
SolveStreamInstance(SatSolver *s, uint64_t index)
{
    Rng rng(0x5eed5a7ull * (index + 1));
    switch (rng.Below(6)) {
      case 0:
        BuildPigeonhole(s, static_cast<int>(3 + rng.Below(3)));
        if (rng.Chance(0.5))
            s->SetLearntCap(8);
        return s->Solve();
      case 1:
        BuildPigeonhole(s, 8);
        return s->Solve(2);
      default: {
        const uint32_t num_vars = static_cast<uint32_t>(20 + rng.Below(61));
        for (uint32_t v = 0; v < num_vars; ++v)
            s->NewVar();
        const uint32_t num_clauses =
            static_cast<uint32_t>(num_vars * 4.26 + 0.5);
        for (uint32_t i = 0; i < num_clauses; ++i) {
            s->AddTernary(
                Lit(static_cast<uint32_t>(rng.Below(num_vars)),
                    rng.Chance(0.5)),
                Lit(static_cast<uint32_t>(rng.Below(num_vars)),
                    rng.Chance(0.5)),
                Lit(static_cast<uint32_t>(rng.Below(num_vars)),
                    rng.Chance(0.5)));
        }
        return s->Solve();
      }
    }
}

constexpr uint64_t kStreamInstances = 80;

TEST(SatSolverTest, ResetMatchesFreshInstance)
{
    // One solver Reset between instances must behave exactly like a new
    // solver per instance: same verdict, same model, same counters.
    SatSolver reused;
    int verdicts[3] = {0, 0, 0};
    for (uint64_t i = 0; i < kStreamInstances; ++i) {
        if (i > 0)
            reused.Reset();
        SatSolver fresh;
        const SatStatus want = SolveStreamInstance(&fresh, i);
        const SatStatus got = SolveStreamInstance(&reused, i);
        ++verdicts[static_cast<int>(want)];
        ASSERT_EQ(got, want) << "instance " << i;
        ASSERT_EQ(reused.NumVars(), fresh.NumVars()) << "instance " << i;
        if (want == SatStatus::kSat) {
            for (uint32_t v = 0; v < fresh.NumVars(); ++v)
                ASSERT_EQ(reused.Value(v), fresh.Value(v))
                    << "instance " << i << " var " << v;
        }
        ASSERT_EQ(reused.stats().All(), fresh.stats().All())
            << "instance " << i;
    }
    EXPECT_GT(verdicts[static_cast<int>(SatStatus::kSat)], 0);
    EXPECT_GT(verdicts[static_cast<int>(SatStatus::kUnsat)], 0);
    EXPECT_GT(verdicts[static_cast<int>(SatStatus::kUnknown)], 0);
}

TEST(SatSolverTest, SeededStreamCountersArePinned)
{
    // The summed counters, verdict counts (verdict.<SatStatus>) and a
    // digest of every model of the seeded stream, each instance on a
    // new solver. Any change to decision order, clause normalization or
    // learning moves them. The values were recorded with an order heap
    // kept from the first var on and clauses normalized in a copy, so
    // they also pin that the lazy heap and in-place normalization
    // decide exactly as those did.
    obs::CounterView total;
    uint64_t model_digest = 0xcbf29ce484222325ull;
    for (uint64_t i = 0; i < kStreamInstances; ++i) {
        SatSolver s;
        const SatStatus status = SolveStreamInstance(&s, i);
        total.Merge(s.stats());
        total.Add("verdict." + std::to_string(static_cast<int>(status)), 1);
        if (status != SatStatus::kSat)
            continue;
        for (uint32_t v = 0; v < s.NumVars(); ++v)
            model_digest = (model_digest ^ (s.Value(v) ? 1 : 0)) *
                           0x100000001b3ull;
    }
    const std::map<std::string, int64_t> want = {
        {"sat.budget_exhausted", 8}, {"sat.conflicts", 3814},
        {"sat.decisions", 5062},     {"sat.learnt_clauses", 3587},
        {"sat.learnts_removed", 200}, {"sat.propagations", 56913},
        {"sat.reduce_dbs", 4},       {"sat.restarts", 12},
        {"sat.solve_calls", 80},     {"verdict.0", 31},
        {"verdict.1", 41},           {"verdict.2", 8},
    };
    EXPECT_EQ(total.All(), want);
    EXPECT_EQ(model_digest, 11710914944715472621ull);
}

}  // namespace
}  // namespace smt
}  // namespace achilles
