// Achilles reproduction -- tests.
//
// Symbolic execution engine tests: DSL construction, concrete and
// symbolic control flow, forking, arrays with symbolic indices, function
// calls, environment intrinsics and annotations, and which path
// conditions count as proven satisfiable, so that checks on them are
// sliced.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "smt/eval.h"
#include "smt/solver.h"
#include "symexec/engine.h"
#include "symexec/program.h"
#include "symexec/state.h"

namespace achilles {
namespace symexec {
namespace {

using smt::CheckResult;
using smt::ExprContext;
using smt::Model;
using smt::Solver;

class SymexecTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};

    std::vector<PathResult>
    RunProgram(const Program &program, Mode mode,
               std::vector<smt::ExprRef> incoming = {},
               EngineConfig config = {})
    {
        Engine engine(&ctx, &solver, &program, mode, config);
        if (!incoming.empty())
            engine.SetIncomingMessage(std::move(incoming));
        return engine.Run();
    }

    std::vector<smt::ExprRef>
    FreshMessage(uint32_t len)
    {
        std::vector<smt::ExprRef> bytes;
        for (uint32_t i = 0; i < len; ++i)
            bytes.push_back(ctx.FreshVar("m", 8));
        return bytes;
    }

    static size_t
    CountOutcome(const std::vector<PathResult> &results, PathOutcome o)
    {
        return std::count_if(results.begin(), results.end(),
                             [o](const PathResult &r) {
                                 return r.outcome == o;
                             });
    }
};

TEST_F(SymexecTest, StraightLineClientSendsConcreteMessage)
{
    ProgramBuilder b("client");
    b.Function("main", {}, 0, [&] {
        b.Array("msg", 8, 2);
        b.Store("msg", Val::Const(8, 0), Val::Const(8, 0x11));
        b.Store("msg", Val::Const(8, 1), Val::Const(8, 0x22));
        b.SendMessage("msg");
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kClient);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, PathOutcome::kClientDone);
    ASSERT_EQ(results[0].sent.size(), 1u);
    ASSERT_EQ(results[0].sent[0].bytes.size(), 2u);
    EXPECT_EQ(results[0].sent[0].bytes[0]->ConstValue(), 0x11u);
    EXPECT_EQ(results[0].sent[0].bytes[1]->ConstValue(), 0x22u);
}

TEST_F(SymexecTest, ConcreteBranchDoesNotFork)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val x = b.Local("x", 8, Val::Const(8, 5));
        b.If(x == 5, [&] { b.Halt(); }, [&] { b.Halt(); });
    });
    const Program p = b.Build();
    Engine engine(&ctx, &solver, &p, Mode::kClient);
    auto results = engine.Run();
    EXPECT_EQ(results.size(), 1u);
    EXPECT_EQ(engine.stats().Get("engine.forks"), 0);
}

TEST_F(SymexecTest, SymbolicBranchForksBothWays)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val x = b.ReadInput("x", 8);
        b.If(x < 10, [&] { b.Halt(); }, [&] { b.Halt(); });
    });
    const Program p = b.Build();
    Engine engine(&ctx, &solver, &p, Mode::kClient);
    auto results = engine.Run();
    EXPECT_EQ(results.size(), 2u);
    EXPECT_EQ(engine.stats().Get("engine.forks"), 1);
    // The two paths carry complementary constraints.
    ASSERT_EQ(results[0].constraints.size(), 1u);
    ASSERT_EQ(results[1].constraints.size(), 1u);
    EXPECT_EQ(results[0].constraints[0],
              ctx.MakeNot(results[1].constraints[0]));
}

TEST_F(SymexecTest, InfeasibleBranchIsNotExplored)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val x = b.ReadInput("x", 8);
        b.Assume(x < 5);
        // x >= 5 side is infeasible given the assume.
        b.If(x < 5, [&] { b.Halt(); }, [&] { b.Halt(); });
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kClient);
    EXPECT_EQ(results.size(), 1u);
}

TEST_F(SymexecTest, NestedIfProducesFourPaths)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val x = b.ReadInput("x", 8);
        Val y = b.ReadInput("y", 8);
        b.If(x < 10, [&] {}, [&] {});
        b.If(y < 10, [&] {}, [&] {});
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kClient);
    EXPECT_EQ(results.size(), 4u);
    // Each path records two symbolic branch decisions.
    for (const auto &r : results)
        EXPECT_EQ(r.depth, 2u);
}

TEST_F(SymexecTest, WhileLoopUnrollsPerIteration)
{
    // Loop over a concrete counter: one path, no forks.
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val i = b.Local("i", 8, Val::Const(8, 0));
        Val acc = b.Local("acc", 8, Val::Const(8, 0));
        b.While(i < 5, [&] {
            b.Assign(acc, acc + i);
            b.Assign(i, i + 1);
        });
        b.Halt();
    });
    const Program p = b.Build();
    Engine engine(&ctx, &solver, &p, Mode::kClient);
    auto results = engine.Run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(engine.stats().Get("engine.forks"), 0);
}

TEST_F(SymexecTest, SwitchLowersToPathPerCase)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val x = b.ReadInput("x", 8);
        b.Switch(x,
                 {{1, [&] { b.MarkAccept("one"); }},
                  {2, [&] { b.MarkAccept("two"); }}},
                 [&] { b.MarkReject("other"); });
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kServer, FreshMessage(1));
    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kAccepted), 2u);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kRejected), 1u);
}

TEST_F(SymexecTest, FunctionCallPassesArgsAndReturns)
{
    ProgramBuilder b("prog");
    b.Function("double_it", {{"v", 8}}, 8, [&] {
        Val v = ProgramBuilder::Var("v", 8);
        b.Return(v + v);
    });
    b.Function("main", {}, 0, [&] {
        Val r = b.Call("double_it", {Val::Const(8, 21)});
        b.If(r == 42, [&] { b.MarkAccept(); }, [&] { b.MarkReject(); });
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kServer, FreshMessage(1));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, PathOutcome::kAccepted);
}

TEST_F(SymexecTest, RecvBindsIncomingMessage)
{
    ProgramBuilder b("server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 4);
        Val m0 = ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0));
        b.If(m0 == 0x7f, [&] { b.MarkAccept(); },
             [&] { b.MarkReject(); });
    });
    const Program p = b.Build();
    auto incoming = FreshMessage(4);
    auto results = RunProgram(p, Mode::kServer, incoming);
    ASSERT_EQ(results.size(), 2u);
    // The accepting path must constrain the first incoming byte to 0x7f.
    for (const auto &r : results) {
        if (r.outcome != PathOutcome::kAccepted)
            continue;
        Model model;
        ASSERT_EQ(solver.CheckSat(r.constraints, &model),
                  CheckResult::kSat);
        EXPECT_EQ(smt::Evaluate(incoming[0], model), 0x7fu);
    }
}

TEST_F(SymexecTest, ServerDefaultClassification)
{
    // No explicit markers: replying == accept, silent return == reject.
    ProgramBuilder b("server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 1);
        b.Array("reply", 8, 1);
        Val m0 = ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0));
        b.If(m0 == 1, [&] { b.SendMessage("reply"); }, [&] {});
        b.Return();
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kServer, FreshMessage(1));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kAccepted), 1u);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kRejected), 1u);
}

TEST_F(SymexecTest, SymbolicArrayIndexReadsViaIte)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        b.Array("data", 8, 4);
        b.For(4, [&](uint32_t i) {
            b.Store("data", Val::Const(8, i), Val::Const(8, 10 * (i + 1)));
        });
        Val idx = b.ReadInput("idx", 8);
        b.Assume(idx < 4);
        Val v = b.Local("v", 8,
                        ProgramBuilder::ArrayAt("data", 8, idx));
        b.If(v == 30, [&] { b.MarkAccept(); }, [&] { b.MarkReject(); });
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kServer, FreshMessage(1));
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        if (r.outcome != PathOutcome::kAccepted)
            continue;
        // v == 30 forces idx == 2.
        Model model;
        ASSERT_EQ(solver.CheckSat(r.constraints, &model),
                  CheckResult::kSat);
        // idx is the only input variable; find it by name.
        bool found = false;
        for (const auto &[var, value] : model.values()) {
            if (ctx.InfoOf(var).name.rfind("idx", 0) == 0) {
                EXPECT_EQ(value, 2u);
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST_F(SymexecTest, OutOfBoundsReadYieldsUnconstrainedValue)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        b.Array("data", 8, 2);
        Val v = b.Local("v", 8, ProgramBuilder::ArrayAt(
                                    "data", 8, Val::Const(8, 10)));
        // v is unconstrained: both branches must be feasible.
        b.If(v == 0, [&] {}, [&] {});
    });
    const Program p = b.Build();
    Engine engine(&ctx, &solver, &p, Mode::kClient);
    auto results = engine.Run();
    EXPECT_EQ(results.size(), 2u);
    EXPECT_EQ(engine.stats().Get("engine.oob_reads"), 1);
}

TEST_F(SymexecTest, DropPathKillsSilently)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val x = b.ReadInput("x", 8);
        b.If(x < 100, [&] { b.DropPath(); }, [&] { b.Halt(); });
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kClient);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kKilled), 1u);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kClientDone), 1u);
}

TEST_F(SymexecTest, OverApproximateAnnotation)
{
    // The paper's Figure 9 idiom: getPeerID() returning [0, 10].
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val peer = b.OverApproximate("peer", 8, 0, 10);
        b.If(peer > 10, [&] { b.MarkAccept("impossible"); },
             [&] { b.MarkReject(); });
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kServer, FreshMessage(1));
    // The "impossible" branch must never be reached.
    EXPECT_EQ(CountOutcome(results, PathOutcome::kAccepted), 0u);
}

TEST_F(SymexecTest, StepLimitTerminatesInfiniteLoops)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val t = b.Local("t", 1, Val::Const(1, 1));
        b.While(t == 1, [&] {});
        b.Halt();
    });
    const Program p = b.Build();
    EngineConfig config;
    config.max_steps_per_state = 100;
    auto results = RunProgram(p, Mode::kClient, {}, config);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, PathOutcome::kLimit);
}

/** Listener that prunes every branch whose constraint is an inequality. */
class PruneListener : public Listener
{
  public:
    bool
    OnBranch(State &state, smt::ExprRef constraint) override
    {
        (void)state;
        ++branch_events;
        return constraint->kind() != smt::Kind::kNot;
    }
    void OnAccept(State &state) override
    {
        (void)state;
        ++accept_events;
    }
    int branch_events = 0;
    int accept_events = 0;
};

TEST_F(SymexecTest, ListenerCanPruneAndObserve)
{
    ProgramBuilder b("server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 1);
        Val m0 = ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0));
        b.If(m0 == 3, [&] { b.MarkAccept(); }, [&] { b.MarkAccept(); });
    });
    const Program p = b.Build();
    Engine engine(&ctx, &solver, &p, Mode::kServer);
    engine.SetIncomingMessage(FreshMessage(1));
    PruneListener listener;
    engine.SetListener(&listener);
    auto results = engine.Run();
    EXPECT_EQ(listener.branch_events, 2);
    // The (m0 != 3) side was pruned: only one accept fires.
    EXPECT_EQ(listener.accept_events, 1);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kKilled), 1u);
    EXPECT_EQ(CountOutcome(results, PathOutcome::kAccepted), 1u);
}

TEST_F(SymexecTest, MakeSymbolicHavocsLocalState)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] {
        Val x = b.Local("x", 8, Val::Const(8, 7));
        b.MakeSymbolic("x", 8);
        b.If(x == 7, [&] {}, [&] {});
        b.Halt();
    });
    const Program p = b.Build();
    auto results = RunProgram(p, Mode::kClient);
    // After havoc both branches are feasible.
    EXPECT_EQ(results.size(), 2u);
}

// ------------------------------------------------ proven-satisfiable paths

TEST(StatePathSatTest, EmptyPathIsSatAndClonesKeepTheBit)
{
    ExprContext ctx;
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program p = b.Build();
    State state(0, &p);
    EXPECT_TRUE(state.path_sat());

    const smt::ExprRef x = ctx.FreshVar("x", 8);
    state.AddConstraint(ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
                        /*proven_sat=*/false);
    EXPECT_FALSE(state.path_sat());
    EXPECT_FALSE(state.Clone(1)->path_sat());
    state.AddConstraint(ctx.MakeUlt(x, ctx.MakeConst(8, 5)),
                        /*proven_sat=*/true);
    EXPECT_TRUE(state.path_sat());
    EXPECT_TRUE(state.Clone(2)->path_sat());
}

/**
 * Records every CheckSatAssuming call, and answers kUnknown -- a spent
 * conflict budget -- to each one whose extras mention a variable of
 * `unknown_vars`.
 */
class GuardSolver : public Solver
{
  public:
    struct Call
    {
        std::vector<smt::ExprRef> base;
        std::vector<smt::ExprRef> extras;
    };

    explicit GuardSolver(ExprContext *ctx) : Solver(ctx) {}

    CheckResult
    CheckSatAssuming(const std::vector<smt::ExprRef> &base,
                     const std::vector<smt::ExprRef> &extras,
                     Model *model) override
    {
        calls.push_back({base, extras});
        std::unordered_set<uint32_t> vars;
        for (smt::ExprRef e : extras)
            ctx()->CollectVars(e, &vars);
        for (uint32_t v : vars) {
            if (unknown_vars.count(v) != 0) {
                if (model)
                    *model = Model();
                return CheckResult::kUnknown;
            }
        }
        return Solver::CheckSatAssuming(base, extras, model);
    }

    std::vector<Call> calls;
    std::unordered_set<uint32_t> unknown_vars;
};

TEST_F(SymexecTest, UnknownVerdictKeepsFullPathUntilKSat)
{
    // Four forks in a row, on bytes m0..m3. The solver answers kUnknown
    // to every check on m0 or m1, so below those forks no path is proven
    // satisfiable: the checks on m1 and m2 must get the state's whole
    // constraint list, although it shares no variable with them. The
    // checks on m2 answer kSat, which proves their paths again, so the
    // checks on m3 are sliced down to nothing.
    ProgramBuilder b("server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 4);
        auto byte = [](uint64_t i) {
            return ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, i));
        };
        b.If(byte(0) == 5, [&] {}, [&] {});
        b.If(byte(1) < 10, [&] {}, [&] {});
        b.If(byte(2) < 10, [&] {}, [&] {});
        b.If(byte(3) < 10, [&] {}, [&] {});
        b.Halt();
    });
    const Program p = b.Build();
    const std::vector<smt::ExprRef> message = FreshMessage(4);
    GuardSolver guard(&ctx);
    guard.unknown_vars = {message[0]->VarId(), message[1]->VarId()};
    Engine engine(&ctx, &guard, &p, Mode::kServer);
    engine.SetIncomingMessage(message);
    const std::vector<PathResult> results = engine.Run();
    EXPECT_EQ(results.size(), 16u);

    // The byte a check is on, and the bytes its base constrains.
    auto byte_of = [&](smt::ExprRef e) {
        std::unordered_set<uint32_t> vars;
        ctx.CollectVars(e, &vars);
        EXPECT_EQ(vars.size(), 1u);
        for (size_t i = 0; i < message.size(); ++i) {
            if (vars.count(message[i]->VarId()) != 0)
                return i;
        }
        ADD_FAILURE() << "not a message byte: " << ctx.ToString(e);
        return message.size();
    };
    std::vector<int> checks(message.size(), 0);
    for (const GuardSolver::Call &call : guard.calls) {
        ASSERT_EQ(call.extras.size(), 1u);
        const size_t level = byte_of(call.extras[0]);
        ASSERT_LT(level, message.size());
        ++checks[level];
        std::vector<size_t> base_bytes;
        for (smt::ExprRef e : call.base)
            base_bytes.push_back(byte_of(e));
        std::sort(base_bytes.begin(), base_bytes.end());
        // Levels 1 and 2: the full path, one constraint per byte above.
        // Level 0 has the empty path; level 3 is sliced to nothing.
        std::vector<size_t> want;
        if (level == 1 || level == 2) {
            for (size_t i = 0; i < level; ++i)
                want.push_back(i);
        }
        EXPECT_EQ(base_bytes, want) << "check on m" << level;
    }
    // Two checks per state at each fork, and the states double.
    EXPECT_EQ(checks, (std::vector<int>{2, 4, 8, 16}));
}

}  // namespace
}  // namespace symexec
}  // namespace achilles
