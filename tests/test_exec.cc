// Achilles reproduction -- tests.
//
// Parallel exploration subsystem: the expression bridge (id-aligned
// mirroring, round trips, model portability, state transfer), the
// work-stealing scheduler (local pops, steal-half, termination, state
// budget) and the server-mode ParallelEngine (parity with the serial
// engine, schedule-independent determinism, global path caps, surfaced
// counters).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "core/path_predicate.h"
#include "exec/expr_transfer.h"
#include "exec/scheduler.h"
#include "exec/worker.h"
#include "smt/solver.h"
#include "symexec/program.h"

namespace achilles {
namespace exec {
namespace {

using smt::CheckResult;
using smt::ExprContext;
using smt::ExprRef;
using smt::Model;
using smt::Solver;
using symexec::EngineConfig;
using symexec::Mode;
using symexec::PathOutcome;
using symexec::PathResult;
using symexec::Program;
using symexec::ProgramBuilder;
using symexec::State;
using symexec::Val;

/** `depth` independent branches on the message bytes: 2^depth server
 *  paths. */
Program
MakeForkyServer(uint32_t depth)
{
    ProgramBuilder b("forky");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", depth);
        for (uint32_t i = 0; i < depth; ++i) {
            Val x = b.Local("x" + std::to_string(i), 8,
                            ProgramBuilder::ArrayAt("msg", 8,
                                                    Val::Const(8, i)));
            b.If(x < 128, [&] {}, [&] {});
        }
        b.Halt();
    });
    return b.Build();
}

/** `n` fresh message byte variables in `ctx`. */
std::vector<ExprRef>
FreshMessage(ExprContext *ctx, uint32_t n)
{
    std::vector<ExprRef> message;
    for (uint32_t i = 0; i < n; ++i)
        message.push_back(ctx->FreshVar("msg", 8));
    return message;
}

/** Tiny server: accepts iff byte0 < 16 and byte1 == 7. */
Program
MakeTinyServer()
{
    ProgramBuilder b("tiny-server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 2);
        Val b0 = b.Local(
            "b0", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0)));
        Val b1 = b.Local(
            "b1", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 1)));
        b.If(
            b0 < 16,
            [&] {
                b.If(b1 == 7, [&] { b.MarkAccept("hit"); },
                     [&] { b.MarkReject("near"); });
            },
            [&] { b.MarkReject("far"); });
    });
    return b.Build();
}

/** Canonical (alpha-renaming-insensitive) summary of a path result. */
std::pair<uint64_t, int>
PathSignature(const ExprContext &ctx, const PathResult &r)
{
    core::CanonicalHasher hasher(&ctx);
    std::vector<ExprRef> exprs = r.constraints;
    for (const symexec::SentMessage &m : r.sent)
        exprs.insert(exprs.end(), m.bytes.begin(), m.bytes.end());
    return {hasher.HashExprs(exprs), static_cast<int>(r.outcome)};
}

std::multiset<std::pair<uint64_t, int>>
PathSignatures(const ExprContext &ctx, const std::vector<PathResult> &rs)
{
    std::multiset<std::pair<uint64_t, int>> out;
    for (const PathResult &r : rs)
        out.insert(PathSignature(ctx, r));
    return out;
}

// --------------------------------------------------------------- bridge

TEST(ExprBridgeTest, MirrorAlignsIdsAndRoundTripsToIdentity)
{
    ExprContext home;
    ExprRef x = home.FreshVar("x", 8);
    ExprRef y = home.FreshVar("y", 16);
    ExprRef e = home.MakeUlt(home.MakeAdd(x, home.MakeConst(8, 3)),
                             home.MakeExtract(y, 0, 8));

    ExprContext remote;
    std::mutex mutex;
    ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();
    EXPECT_EQ(remote.NumVars(), home.NumVars());

    ExprRef r = bridge.ToRemote(e);
    // Same structure, same rendered form (mirrored names), other arena.
    EXPECT_EQ(remote.ToString(r), home.ToString(e));
    EXPECT_EQ(r->struct_hash(), e->struct_hash());
    // Round trip restores the identical interned home node.
    EXPECT_EQ(bridge.ToHome(r), e);
}

TEST(ExprBridgeTest, SolversAgreeOnModelsAcrossIdAlignedContexts)
{
    ExprContext home;
    ExprRef x = home.FreshVar("x", 8);
    ExprRef q = home.MakeEq(home.MakeAdd(x, home.MakeConst(8, 1)),
                            home.MakeConst(8, 7));

    ExprContext remote;
    std::mutex mutex;
    ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();
    ExprRef rq = bridge.ToRemote(q);

    // Two independent solvers, one per context: a model is keyed by
    // variable id, so the aligned ids make both models the same map.
    Solver home_solver(&home);
    Solver remote_solver(&remote);
    Model m1, m2;
    EXPECT_EQ(home_solver.CheckSat({q}, &m1), CheckResult::kSat);
    EXPECT_EQ(remote_solver.CheckSat({rq}, &m2), CheckResult::kSat);
    EXPECT_EQ(m1.Get(x->VarId()), 6u);
    EXPECT_EQ(m1.values(), m2.values());
}

TEST(ExprBridgeTest, RemoteBornVariablesGetHomeCounterparts)
{
    ExprContext home;
    home.FreshVar("x", 8);
    ExprContext remote;
    std::mutex mutex;
    ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();

    // A variable created mid-run on the worker (id beyond the mirror).
    ExprRef w = remote.FreshVar("oob", 8);
    ExprRef h = bridge.ToHome(w);
    EXPECT_TRUE(h->IsVar());
    EXPECT_EQ(home.InfoOf(h->VarId()).width, 8u);
    // The correspondence is remembered in both directions.
    EXPECT_EQ(bridge.ToRemote(h), w);
}

TEST(ExprBridgeTest, TransferStateRehomesAllExpressions)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    ExprContext home;
    ExprRef m0 = home.FreshVar("msg", 8);

    std::mutex mutex;
    ExprContext ctx_a, ctx_b;
    ExprBridge bridge_a(&home, &ctx_a, &mutex);
    ExprBridge bridge_b(&home, &ctx_b, &mutex);
    bridge_a.MirrorHomeVars();
    bridge_b.MirrorHomeVars();

    State state(7, &program);
    ExprRef c = ctx_a.MakeUlt(bridge_a.ToRemote(m0),
                              ctx_a.MakeConst(8, 9));
    state.AddConstraint(c);
    state.TopFrame().locals["v"] = {8, bridge_a.ToRemote(m0)};

    auto moved = TransferState(state, &bridge_a, &bridge_b);
    ASSERT_EQ(moved->constraints().size(), 1u);
    EXPECT_EQ(ctx_b.ToString(moved->constraints()[0]),
              ctx_a.ToString(c));
    EXPECT_EQ(moved->id(), state.id());
    // The original state is untouched.
    EXPECT_EQ(state.constraints()[0], c);
}

// ------------------------------------------------------------ scheduler

TEST(SchedulerTest, LocalPopAndTermination)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    WorkStealingScheduler scheduler(/*num_workers=*/2,
                                    /*max_queued_states=*/1 << 20);
    scheduler.Seed(0, std::make_unique<State>(1, &program));

    WorkStealingScheduler::Batch batch;
    ASSERT_TRUE(scheduler.Next(0, &batch));
    EXPECT_EQ(batch.owner, 0u);
    ASSERT_EQ(batch.states.size(), 1u);
    scheduler.OnStateFinished();
    EXPECT_FALSE(scheduler.Next(0, &batch));
    EXPECT_FALSE(scheduler.Next(1, &batch));
}

TEST(SchedulerTest, IdleWorkerStealsHalf)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    WorkStealingScheduler scheduler(/*num_workers=*/2,
                                    /*max_queued_states=*/1 << 20);
    for (uint64_t i = 0; i < 4; ++i) {
        auto state = std::make_unique<State>(i, &program);
        if (i == 0)
            scheduler.Seed(0, std::move(state));
        else
            ASSERT_TRUE(scheduler.Push(0, &state, /*fresh=*/true));
    }

    WorkStealingScheduler::Batch batch;
    ASSERT_TRUE(scheduler.Next(1, &batch));
    EXPECT_EQ(batch.owner, 0u);  // stolen, still in worker 0's context
    EXPECT_EQ(batch.states.size(), 2u);  // the older half
    // The oldest states are taken first.
    EXPECT_EQ(batch.states[0]->id(), 0u);
    EXPECT_EQ(batch.states[1]->id(), 1u);
    EXPECT_EQ(scheduler.states_stolen(), 2);
    EXPECT_EQ(scheduler.steal_batches(), 1);
    EXPECT_EQ(scheduler.queued().load(), 2);
}

TEST(SchedulerTest, FreshPushRespectsStateBudget)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    WorkStealingScheduler scheduler(/*num_workers=*/1,
                                    /*max_queued_states=*/2);
    auto s1 = std::make_unique<State>(1, &program);
    auto s2 = std::make_unique<State>(2, &program);
    auto s3 = std::make_unique<State>(3, &program);
    EXPECT_TRUE(scheduler.Push(0, &s1, true));
    EXPECT_TRUE(scheduler.Push(0, &s2, true));
    EXPECT_FALSE(scheduler.Push(0, &s3, true));
    ASSERT_NE(s3, nullptr);  // rejected state stays with the caller
    // Re-queues are exempt (the state was already admitted once).
    EXPECT_TRUE(scheduler.Push(0, &s3, false));
}

TEST(SchedulerTest, StealsNeverPushFreshStatesOverBudget)
{
    // A chain of single-child states keeps about one state queued, so
    // idle workers steal each child the moment it is pushed. A steal
    // must never drive the queued count below zero: the unsigned count
    // would wrap past max_queued_states and reject the next fork.
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    constexpr size_t kWorkers = 4;
    WorkStealingScheduler scheduler(kWorkers,
                                    /*max_queued_states=*/1 << 20);
    scheduler.Seed(0, std::make_unique<State>(0, &program));
    constexpr uint64_t kStates = 20000;
    std::atomic<uint64_t> next_id{1};
    std::atomic<int> rejected{0};
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            WorkStealingScheduler::Batch batch;
            while (scheduler.Next(w, &batch)) {
                if (batch.owner != w) {
                    for (auto &s : batch.states)
                        scheduler.Push(w, &s, /*fresh=*/false);
                    continue;
                }
                const uint64_t id = next_id.fetch_add(1);
                if (id < kStates) {
                    auto child = std::make_unique<State>(id, &program);
                    if (!scheduler.Push(w, &child, /*fresh=*/true))
                        ++rejected;
                }
                scheduler.OnStateFinished();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(rejected.load(), 0);
    EXPECT_GE(next_id.load(), kStates);
}

// ------------------------------------------------------- parallel engine

TEST(ParallelEngineTest, ForkyServerMatchesSerialEngine)
{
    const Program program = MakeForkyServer(5);

    ExprContext serial_ctx;
    Solver serial_solver(&serial_ctx);
    symexec::Engine serial(&serial_ctx, &serial_solver, &program,
                           Mode::kServer);
    serial.SetIncomingMessage(FreshMessage(&serial_ctx, 5));
    std::vector<PathResult> serial_paths = serial.Run();
    ASSERT_EQ(serial_paths.size(), 32u);

    ExprContext home;
    EngineConfig config;
    config.num_workers = 4;
    ParallelEngine parallel(&home, &program, config);
    parallel.SetIncomingMessage(FreshMessage(&home, 5));
    std::vector<PathResult> parallel_paths = parallel.Run();

    ASSERT_EQ(parallel_paths.size(), 32u);
    EXPECT_EQ(PathSignatures(serial_ctx, serial_paths),
              PathSignatures(home, parallel_paths));
    EXPECT_EQ(parallel.stats().Get("exec.workers"), 4);
    EXPECT_EQ(parallel.stats().All().count("exec.states_stolen"), 1u);
    // The worker solvers' counters are merged in too.
    EXPECT_GT(parallel.stats().Get("solver.queries"), 0);
}

TEST(ParallelEngineTest, ServerModeProducesHomeContextResults)
{
    const Program program = MakeTinyServer();

    ExprContext home;
    std::vector<ExprRef> message{home.FreshVar("msg", 8),
                                 home.FreshVar("msg", 8)};

    EngineConfig config;
    config.num_workers = 3;
    ParallelEngine engine(&home, &program, config);
    engine.SetIncomingMessage(message);
    std::vector<PathResult> paths = engine.Run();

    ASSERT_EQ(paths.size(), 3u);
    size_t accepted = 0;
    for (const PathResult &r : paths) {
        if (r.outcome == PathOutcome::kAccepted) {
            ++accepted;
            EXPECT_EQ(r.accept_label, "hit");
            // Constraints are home-context expressions over the home
            // message variables: re-solving them here must pin the
            // accepting bytes.
            Solver solver(&home);
            Model model;
            ASSERT_EQ(solver.CheckSat(r.constraints, &model),
                      CheckResult::kSat);
            EXPECT_LT(model.Get(message[0]->VarId()), 16u);
            EXPECT_EQ(model.Get(message[1]->VarId()), 7u);
        }
    }
    EXPECT_EQ(accepted, 1u);
}

TEST(ParallelEngineTest, ResultsAreIdenticalAcrossWorkerCounts)
{
    const Program program = MakeTinyServer();

    auto run = [&](size_t workers, ExprContext *ctx,
                   std::vector<PathResult> *out) {
        std::vector<ExprRef> message{ctx->FreshVar("msg", 8),
                                     ctx->FreshVar("msg", 8)};
        EngineConfig config;
        config.num_workers = workers;
        ParallelEngine engine(ctx, &program, config);
        engine.SetIncomingMessage(message);
        *out = engine.Run();
    };

    ExprContext ctx2, ctx4;
    std::vector<PathResult> paths2, paths4;
    run(2, &ctx2, &paths2);
    run(4, &ctx4, &paths4);

    ASSERT_EQ(paths2.size(), paths4.size());
    for (size_t i = 0; i < paths2.size(); ++i) {
        // Tree-derived ids and structural canonicalization make the
        // merged result streams bitwise-comparable across worker counts.
        EXPECT_EQ(paths2[i].state_id, paths4[i].state_id);
        EXPECT_EQ(paths2[i].outcome, paths4[i].outcome);
        EXPECT_EQ(paths2[i].accept_label, paths4[i].accept_label);
        ASSERT_EQ(paths2[i].constraints.size(),
                  paths4[i].constraints.size());
        for (size_t c = 0; c < paths2[i].constraints.size(); ++c) {
            EXPECT_EQ(ctx2.ToString(paths2[i].constraints[c]),
                      ctx4.ToString(paths4[i].constraints[c]));
        }
    }
}

TEST(ParallelEngineTest, GlobalPathCapIsRespected)
{
    const Program program = MakeForkyServer(6);  // 64 paths

    // Serial: the engine caps the recorded results exactly.
    ExprContext serial_ctx;
    Solver serial_solver(&serial_ctx);
    EngineConfig config;
    config.max_finished_paths = 7;
    symexec::Engine serial(&serial_ctx, &serial_solver, &program,
                           Mode::kServer, config);
    serial.SetIncomingMessage(FreshMessage(&serial_ctx, 6));
    EXPECT_EQ(serial.Run().size(), 7u);
    EXPECT_GE(serial.stats().Get("engine.finished_path_drops"), 0);

    // Parallel: the finalize gate enforces the same cap across workers.
    ExprContext home;
    config.num_workers = 4;
    ParallelEngine parallel(&home, &program, config);
    parallel.SetIncomingMessage(FreshMessage(&home, 6));
    EXPECT_EQ(parallel.Run().size(), 7u);
}

TEST(ParallelEngineTest, ListenerNeverSeesPathsDroppedByTheCap)
{
    // Server where every path accepts: 2^4 = 16 accepting paths.
    ProgramBuilder b("all-accept");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 4);
        for (uint32_t i = 0; i < 4; ++i) {
            Val x = b.Local("x" + std::to_string(i), 8,
                            ProgramBuilder::ArrayAt("msg", 8,
                                                    Val::Const(8, i)));
            b.If(x < 128, [&] {}, [&] {});
        }
        b.MarkAccept("yes");
    });
    const Program program = b.Build();

    class CountingListener : public symexec::Listener
    {
      public:
        void OnAccept(State &) override { ++accepts; }
        size_t accepts = 0;
    };

    ExprContext ctx;
    Solver solver(&ctx);
    std::vector<ExprRef> message;
    for (uint32_t i = 0; i < 4; ++i)
        message.push_back(ctx.FreshVar("msg", 8));

    EngineConfig config;
    config.max_finished_paths = 5;
    symexec::Engine engine(&ctx, &solver, &program, Mode::kServer, config);
    engine.SetIncomingMessage(message);
    CountingListener listener;
    engine.SetListener(&listener);
    const size_t results = engine.Run().size();
    EXPECT_EQ(results, 5u);
    // OnAccept fires only for admitted paths: a listener (e.g. the
    // Trojan emitter) must never act on a path the budget dropped.
    EXPECT_EQ(listener.accepts, results);
}

}  // namespace
}  // namespace exec
}  // namespace achilles
