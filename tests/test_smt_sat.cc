// Achilles reproduction -- tests.
//
// Unit and property tests for the CDCL SAT solver, including brute-force
// cross-checks on random 3-SAT instances.

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace smt
}  // namespace achilles
