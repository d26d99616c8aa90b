// Achilles reproduction -- tests.
//
// The differentFrom matrix on independent-field branches (value-class
// grouping, transitive predicate drops without solver calls), the
// negate operator on layouts with no analyzed fields, and the parallel
// exploration determinism guarantee: identical TrojanWitness sets
// (definitions and concrete bytes) for any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/achilles.h"
#include "core/different_from.h"
#include "core/negate.h"
#include "core/server_explorer.h"
#include "proto/toy/toy_protocol.h"
#include "smt/solver.h"
#include "symexec/program.h"

namespace achilles {
namespace core {
namespace {

using smt::ExprContext;
using smt::ExprRef;
using smt::Solver;
using symexec::Program;
using symexec::ProgramBuilder;
using symexec::Val;

class DifferentFromTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};

    /** Two single-byte fields: a (offset 0) and b (offset 1). */
    MessageLayout
    TwoFieldLayout()
    {
        MessageLayout layout(2);
        layout.AddField("a", 0, 1).AddField("b", 1, 1);
        return layout;
    }

    /** Predicate sending [a_value, v] with v constrained to [lo, hi). */
    ClientPathPredicate
    MakePred(uint64_t id, uint64_t a_value, uint64_t lo, uint64_t hi)
    {
        ClientPathPredicate pred;
        pred.id = id;
        pred.origin = "manual";
        ExprRef v = ctx.FreshVar("in", 8);
        pred.bytes = {ctx.MakeConst(8, a_value), v};
        pred.constraints = {ctx.MakeUge(v, ctx.MakeConst(8, lo)),
                            ctx.MakeUlt(v, ctx.MakeConst(8, hi))};
        return pred;
    }

    std::vector<ExprRef>
    FreshMessage(uint32_t len)
    {
        std::vector<ExprRef> msg;
        for (uint32_t i = 0; i < len; ++i)
            msg.push_back(ctx.FreshVar("msg", 8));
        return msg;
    }
};

TEST_F(DifferentFromTest, ValueClassesAndPairwiseDifference)
{
    const MessageLayout layout = TwoFieldLayout();
    // Field a takes values {1, 2, 1}: two value classes; field b has the
    // same range everywhere: one class, never different.
    std::vector<ClientPathPredicate> preds{MakePred(0, 1, 0, 10),
                                           MakePred(1, 2, 0, 10),
                                           MakePred(2, 1, 0, 10)};
    std::vector<ExprRef> msg = FreshMessage(layout.length());
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(preds, &negate_op);

    EXPECT_TRUE(matrix.IsIndependentField("a"));
    EXPECT_TRUE(matrix.IsIndependentField("b"));
    EXPECT_FALSE(matrix.IsIndependentField("nonexistent"));

    // Across classes of a: 1 is unattainable for the a=2 predicate.
    EXPECT_TRUE(matrix.Different(0, 1, "a"));
    EXPECT_TRUE(matrix.Different(1, 0, "a"));
    // Within a class: never different.
    EXPECT_FALSE(matrix.Different(0, 2, "a"));
    EXPECT_FALSE(matrix.Different(2, 0, "a"));
    // Same b range everywhere: no differences.
    EXPECT_FALSE(matrix.Different(0, 1, "b"));
    EXPECT_FALSE(matrix.Different(1, 2, "b"));
    // Unknown fields answer false (the conservative default).
    EXPECT_FALSE(matrix.Different(0, 1, "nonexistent"));

    const std::vector<uint32_t> cls = matrix.SameValueClass(0, "a");
    EXPECT_EQ(cls, (std::vector<uint32_t>{0, 2}));
}

TEST_F(DifferentFromTest, OverlappingRangesAreDifferentBothWays)
{
    const MessageLayout layout = TwoFieldLayout();
    // b ranges [0,10) vs [5,20): each contains values outside the other.
    std::vector<ClientPathPredicate> preds{MakePred(0, 1, 0, 10),
                                           MakePred(1, 1, 5, 20)};
    std::vector<ExprRef> msg = FreshMessage(layout.length());
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(preds, &negate_op);

    ASSERT_TRUE(matrix.IsIndependentField("b"));
    EXPECT_TRUE(matrix.Different(0, 1, "b"));
    EXPECT_TRUE(matrix.Different(1, 0, "b"));
    // Nested ranges: [5,10) has nothing outside [0,10) ... but not vice
    // versa (strict subset relation shows as one-directional difference).
    std::vector<ClientPathPredicate> nested{MakePred(0, 1, 0, 10),
                                            MakePred(1, 1, 5, 10)};
    DifferentFromMatrix nested_matrix(&ctx, &solver, &layout);
    nested_matrix.Compute(nested, &negate_op);
    EXPECT_TRUE(nested_matrix.Different(0, 1, "b"));
    EXPECT_FALSE(nested_matrix.Different(1, 0, "b"));
}

TEST_F(DifferentFromTest, IndependentFieldBranchDropsWholeValueClass)
{
    const MessageLayout layout = TwoFieldLayout();
    // Two value classes for a ({p0,p1}: a=1, {p2,p3}: a=2) with
    // distinguishable b constraints so predicates do not deduplicate.
    std::vector<ClientPathPredicate> preds{MakePred(0, 1, 0, 10),
                                           MakePred(1, 1, 100, 200),
                                           MakePred(2, 2, 0, 10),
                                           MakePred(3, 2, 0, 50)};
    std::vector<ExprRef> msg = FreshMessage(layout.length());
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    std::vector<NegatedPredicate> negations;
    for (const ClientPathPredicate &pred : preds)
        negations.push_back(negate_op.Negate(pred));
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(preds, &negate_op);
    ASSERT_TRUE(matrix.IsIndependentField("a"));

    // Server branching on the independent field a: the a==2 branch drops
    // the whole a=1 class -- one solver refutation for p0, then p1 goes
    // transitively via the matrix without a match query.
    ProgramBuilder b("server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 2);
        Val a = b.Local(
            "a", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0)));
        b.If(a == 2, [&] { b.MarkAccept("two"); },
             [&] { b.MarkReject("other"); });
    });
    const Program server = b.Build();

    ServerExplorer explorer(&ctx, &solver, &server, &layout, &preds,
                            &negations, &matrix, {}, msg);
    ServerAnalysis analysis = explorer.Run();
    EXPECT_GE(analysis.stats.Get("explorer.predicate_drops"), 1);
    EXPECT_GE(analysis.stats.Get("explorer.difffrom_drops"), 1);
    // The a==2 path still carries Trojans (e.g. b outside both ranges).
    ASSERT_FALSE(analysis.trojans.empty());
    for (const TrojanWitness &t : analysis.trojans) {
        EXPECT_EQ(t.concrete[0], 2);     // on the accepting branch
        EXPECT_GE(t.concrete[1], 50);    // outside every client b range
    }
}

TEST_F(DifferentFromTest, NegateOnZeroFieldLayouts)
{
    // A layout with no fields at all: nothing is analyzable, so the
    // negation must come back unusable (and must not crash).
    MessageLayout empty_layout(4);
    std::vector<ExprRef> msg = FreshMessage(4);
    NegateOperator negate_op(&ctx, &solver, &empty_layout, msg);

    ClientPathPredicate pred;
    pred.id = 0;
    for (int i = 0; i < 4; ++i)
        pred.bytes.push_back(ctx.MakeConst(8, 0x10 + i));
    NegatedPredicate negation = negate_op.Negate(pred);
    EXPECT_FALSE(negation.Usable());
    EXPECT_FALSE(negation.exact);
    EXPECT_TRUE(negation.fields.empty());
    // The empty disjunction is False: no message is certified Trojan.
    EXPECT_TRUE(negation.Disjunction(&ctx)->IsFalse());
    EXPECT_EQ(negation.FieldDisjunct("anything"), nullptr);

    // Fully masked layout: same outcome through the masking path.
    MessageLayout masked_layout(4);
    masked_layout.AddField("f", 0, 4).Mask("f");
    NegateOperator masked_op(&ctx, &solver, &masked_layout, msg);
    NegatedPredicate masked = masked_op.Negate(pred);
    EXPECT_FALSE(masked.Usable());

    // An explorer running with only unusable negations prunes every
    // state (no message can be certified as a Trojan) and emits none.
    ProgramBuilder b("accept-all");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 4);
        b.MarkAccept("all");
    });
    const Program server = b.Build();
    std::vector<ClientPathPredicate> preds{pred};
    std::vector<NegatedPredicate> negations{negation};
    ServerExplorer explorer(&ctx, &solver, &server, &empty_layout, &preds,
                            &negations, nullptr, {}, msg);
    ServerAnalysis analysis = explorer.Run();
    EXPECT_TRUE(analysis.trojans.empty());
    EXPECT_GE(analysis.stats.Get("explorer.blocked_by_unusable_negation"),
              1);
}

/** Witness summary that is comparable across independent runs. */
using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t, size_t>;

std::vector<WitnessSummary>
SummarizeTrojans(const ExprContext &ctx,
                 const std::vector<TrojanWitness> &trojans)
{
    std::vector<WitnessSummary> out;
    out.reserve(trojans.size());
    CanonicalHasher hasher(&ctx);
    for (const TrojanWitness &t : trojans) {
        out.emplace_back(t.accept_label, t.concrete,
                         hasher.HashExprs(t.definition),
                         t.definition.size());
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(ParallelDeterminismTest, IdenticalTrojanWitnessSetsAcrossWorkerCounts)
{
    const Program client = toy::MakeClient();
    const Program server = toy::MakeServer();

    auto run = [&](size_t workers) {
        // Each run gets its own context + solver: the comparison below
        // is between fully independent executions.
        ExprContext ctx;
        Solver solver(&ctx);
        AchillesConfig config;
        config.layout = toy::MakeLayout(/*mask_crc=*/true);
        config.clients = {&client};
        config.server = &server;
        config.server_config.engine.num_workers = workers;
        AchillesResult result = RunAchilles(&ctx, &solver, config);
        return SummarizeTrojans(ctx, result.server.trojans);
    };

    const std::vector<WitnessSummary> serial = run(1);
    ASSERT_FALSE(serial.empty());
    // Bitwise-identical witness sets: same accept labels, same concrete
    // bytes, alpha-equivalent definitions, across num_workers in
    // {1, 2, 4, 8}.
    for (size_t workers : {2, 4, 8})
        EXPECT_EQ(run(workers), serial) << "workers=" << workers;
}

}  // namespace
}  // namespace core
}  // namespace achilles
