// Achilles reproduction -- tests.
//
// Pins the end-to-end conservatism contract for kUnknown solver
// answers (budget-exhausted queries): an undecided query must never
// prune explorer states, never drop a client predicate from the live
// set, never mark a differentFrom entry, and never mint a Trojan
// witness. A solver that times out on everything must degrade Achilles
// to plain exhaustive exploration with zero (false) findings, not to
// wrong ones.

#include <gtest/gtest.h>

#include "core/achilles.h"
#include "core/different_from.h"
#include "core/negate.h"
#include "core/server_explorer.h"
#include "proto/toy/toy_protocol.h"
#include "smt/solver.h"

namespace achilles {
namespace core {
namespace {

using smt::CheckResult;
using smt::ExprContext;
using smt::ExprRef;
using smt::Model;
using smt::Solver;

/**
 * A solver whose budget is always exhausted: every non-trivial query
 * answers kUnknown. Trivial queries are still decided so program
 * control flow over constant conditions behaves.
 */
class UnknownSolver : public Solver
{
  public:
    explicit UnknownSolver(ExprContext *ctx) : Solver(ctx) {}

    CheckResult
    CheckSat(const std::vector<ExprRef> &assertions, Model *model) override
    {
        for (ExprRef e : assertions) {
            if (e->IsFalse()) {
                if (model)
                    *model = Model();
                return CheckResult::kUnsat;
            }
        }
        if (model)
            *model = Model();
        return CheckResult::kUnknown;
    }

    CheckResult
    CheckSatAssuming(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> &extras,
                     Model *model) override
    {
        std::vector<ExprRef> all = base;
        all.insert(all.end(), extras.begin(), extras.end());
        return CheckSat(all, model);
    }
};

class UnknownConservatismTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};

    /** Client predicates + negations extracted with the real solver, so
     *  the explorer under test has a normal-looking input set. */
    void
    BuildInputs()
    {
        client = toy::MakeClient();
        server = toy::MakeServer();
        layout = toy::MakeLayout(/*mask_crc=*/true);
        pc = ExtractClientPredicate(&ctx, &solver, {&client}, layout);
        ASSERT_EQ(pc.paths.size(), 2u);
        for (uint32_t i = 0; i < layout.length(); ++i)
            message.push_back(ctx.FreshVar("msg", 8));
        negate_op = std::make_unique<NegateOperator>(&ctx, &solver,
                                                     &layout, message);
        for (const ClientPathPredicate &pred : pc.paths)
            negations.push_back(negate_op->Negate(pred));
    }

    symexec::Program client, server;
    MessageLayout layout;
    ClientPredicate pc;
    std::vector<ExprRef> message;
    std::unique_ptr<NegateOperator> negate_op;
    std::vector<NegatedPredicate> negations;
};

TEST_F(UnknownConservatismTest, BudgetExhaustionNeverPrunesOrDrops)
{
    BuildInputs();

    // Reference run with the real solver.
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(pc.paths, negate_op.get());
    ServerExplorerConfig config;
    ServerExplorer real_explorer(&ctx, &solver, &server, &layout,
                                 &pc.paths, &negations, &matrix, config,
                                 message);
    const ServerAnalysis real = real_explorer.Run();
    EXPECT_FALSE(real.trojans.empty());

    // Same exploration on the always-unknown solver.
    UnknownSolver unknown(&ctx);
    DifferentFromMatrix unknown_matrix(&ctx, &unknown, &layout);
    unknown_matrix.Compute(pc.paths, negate_op.get());
    ServerExplorer explorer(&ctx, &unknown, &server, &layout, &pc.paths,
                            &negations, &unknown_matrix, config, message);
    const ServerAnalysis analysis = explorer.Run();

    // No pruning: every kUnknown Trojan query must keep the state alive,
    // so at least as many accepting paths survive as under the real
    // solver (src/core/server_explorer.cc prunes only on kUnsat).
    EXPECT_EQ(analysis.stats.Get("explorer.states_pruned"), 0);
    EXPECT_GE(analysis.accepting_paths.size(), real.accepting_paths.size());

    // No predicate drops: kUnknown keeps every predicate matching, so
    // every live-set sample stays at full size.
    EXPECT_EQ(analysis.stats.Get("explorer.predicate_drops"), 0);
    EXPECT_EQ(analysis.stats.Get("explorer.difffrom_drops"), 0);
    ASSERT_FALSE(analysis.live_samples.empty());
    for (const LiveSetSample &sample : analysis.live_samples)
        EXPECT_EQ(sample.live_predicates, pc.paths.size());

    // No witnesses minted from undecided queries: emission requires a
    // kSat model.
    EXPECT_TRUE(analysis.trojans.empty());
    EXPECT_GE(analysis.stats.Get("explorer.accepting_without_trojans"), 1);
}

TEST_F(UnknownConservatismTest, DifferentFromEntriesStayUnmarked)
{
    BuildInputs();

    // The real solver proves READ/WRITE differ on the request field; a
    // budget-exhausted solver must leave every entry unmarked
    // (src/core/different_from.cc marks only on kSat), disabling the
    // transitive-drop optimization rather than corrupting it.
    UnknownSolver unknown(&ctx);
    DifferentFromMatrix matrix(&ctx, &unknown, &layout);
    matrix.Compute(pc.paths, negate_op.get());
    for (size_t i = 0; i < pc.paths.size(); ++i) {
        for (size_t j = 0; j < pc.paths.size(); ++j) {
            EXPECT_FALSE(matrix.Different(i, j, "request"));
            EXPECT_FALSE(matrix.Different(i, j, "address"));
        }
    }
}

TEST_F(UnknownConservatismTest, RealBudgetExhaustionIsConservative)
{
    // The same contract driven by an actual conflict budget instead of
    // a stub. kUnsat answers stay sound under any budget (the solver
    // only reports what it proved), so a budget-starved run may prune
    // and drop less, never more: it must explore a superset of the real
    // run's accepting paths, and whatever witnesses it does emit are
    // model-validated (the solver panics on a model that fails).
    BuildInputs();

    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(pc.paths, negate_op.get());
    ServerExplorerConfig config;
    ServerExplorer real_explorer(&ctx, &solver, &server, &layout,
                                 &pc.paths, &negations, &matrix, config,
                                 message);
    const ServerAnalysis real = real_explorer.Run();

    smt::SolverConfig budget_config;
    budget_config.max_conflicts = 0;
    Solver budget_solver(&ctx, budget_config);
    DifferentFromMatrix budget_matrix(&ctx, &budget_solver, &layout);
    budget_matrix.Compute(pc.paths, negate_op.get());
    ServerExplorer explorer(&ctx, &budget_solver, &server, &layout,
                            &pc.paths, &negations, &budget_matrix, config,
                            message);
    const ServerAnalysis analysis = explorer.Run();

    // Budget-starved kUnsat proofs are a subset of the real solver's,
    // so pruning can only be weaker: the explored accepting paths are a
    // superset. (Predicate drops can still happen soundly --
    // refutations found during clause emission cost no conflicts -- so
    // live counts are not pinned.)
    EXPECT_GE(analysis.accepting_paths.size(), real.accepting_paths.size());
    EXPECT_FALSE(analysis.live_samples.empty());
}

}  // namespace
}  // namespace core
}  // namespace achilles
