// Achilles reproduction -- SMT solver micro-benchmarks.
//
// Measures the solver substrate: a range conflict refuted while its
// clauses are emitted, arithmetic and Trojan-shaped queries, expression
// interning, concrete evaluation, and raw CDCL search on a hard
// instance.

#include <benchmark/benchmark.h>

#include <vector>

#include "smt/eval.h"
#include "smt/sat.h"
#include "smt/solver.h"
#include "support/rng.h"

using namespace achilles;
using namespace achilles::smt;

namespace {

/** Range conflict on one field: unit propagation refutes it while the
 *  clauses are emitted, with no decision or conflict. */
void
BM_RangeConflictUnsat(benchmark::State &state)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 32);
    std::vector<ExprRef> query{
        ctx.MakeUlt(x, ctx.MakeConst(32, 100)),
        ctx.MakeUge(x, ctx.MakeConst(32, 200)),
    };
    for (auto _ : state) {
        SolverConfig config;
        config.enable_cache = false;
        Solver solver(&ctx, config);
        benchmark::DoNotOptimize(solver.CheckSat(query));
    }
}
BENCHMARK(BM_RangeConflictUnsat);

/** SAT query with arithmetic: multiply/add chains like CRC checks. */
void
BM_ArithmeticSat(benchmark::State &state)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 16);
    ExprRef y = ctx.FreshVar("y", 16);
    ExprRef crc = ctx.MakeXor(
        ctx.MakeMul(x, ctx.MakeConst(16, 13)),
        ctx.MakeMul(y, ctx.MakeConst(16, 31)));
    std::vector<ExprRef> query{
        ctx.MakeEq(crc, ctx.MakeConst(16, 0x1234)),
        ctx.MakeUlt(x, ctx.MakeConst(16, 1000)),
    };
    for (auto _ : state) {
        SolverConfig config;
        config.enable_cache = false;
        Solver solver(&ctx, config);
        benchmark::DoNotOptimize(solver.CheckSat(query));
    }
}
BENCHMARK(BM_ArithmeticSat);

/** Trojan-query shape: conjunction of per-predicate disjunctions. */
void
BM_TrojanQueryShape(benchmark::State &state)
{
    const int num_preds = static_cast<int>(state.range(0));
    ExprContext ctx;
    std::vector<ExprRef> bytes;
    for (int i = 0; i < 8; ++i)
        bytes.push_back(ctx.FreshVar("m", 8));
    std::vector<ExprRef> query;
    Rng rng(99);
    for (int p = 0; p < num_preds; ++p) {
        std::vector<ExprRef> disj;
        for (int f = 0; f < 4; ++f) {
            disj.push_back(ctx.MakeNe(
                bytes[rng.Below(8)],
                ctx.MakeConst(8, rng.Below(256))));
        }
        query.push_back(ctx.MakeOrList(disj));
    }
    for (auto _ : state) {
        SolverConfig config;
        config.enable_cache = false;
        Solver solver(&ctx, config);
        benchmark::DoNotOptimize(solver.CheckSat(query));
    }
}
BENCHMARK(BM_TrojanQueryShape)->Arg(8)->Arg(32)->Arg(128);

/** Raw CDCL on pigeonhole (hard UNSAT; measures learning machinery). */
void
BM_SatPigeonhole(benchmark::State &state)
{
    const int holes = static_cast<int>(state.range(0));
    for (auto _ : state) {
        SatSolver solver;
        const int pigeons = holes + 1;
        std::vector<std::vector<uint32_t>> var(
            pigeons, std::vector<uint32_t>(holes));
        for (int p = 0; p < pigeons; ++p)
            for (int h = 0; h < holes; ++h)
                var[p][h] = solver.NewVar();
        for (int p = 0; p < pigeons; ++p) {
            std::vector<Lit> clause;
            for (int h = 0; h < holes; ++h)
                clause.emplace_back(var[p][h], false);
            solver.AddClause(clause);
        }
        for (int h = 0; h < holes; ++h)
            for (int p1 = 0; p1 < pigeons; ++p1)
                for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                    solver.AddBinary(Lit(var[p1][h], true),
                                     Lit(var[p2][h], true));
        benchmark::DoNotOptimize(solver.Solve());
    }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7);

/** Expression interning throughput (hash-consing hit path). */
void
BM_ExprInterning(benchmark::State &state)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 32);
    ExprRef c = ctx.MakeConst(32, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ctx.MakeAdd(ctx.MakeMul(x, c), ctx.MakeConst(32, 3)));
    }
}
BENCHMARK(BM_ExprInterning);

/** Concrete evaluation over a deep shared DAG. */
void
BM_Evaluate(benchmark::State &state)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 32);
    ExprRef acc = x;
    for (int i = 0; i < 64; ++i)
        acc = ctx.MakeXor(ctx.MakeMul(acc, ctx.MakeConst(32, 13)), x);
    Model model;
    model.Set(x->VarId(), 0xDEADBEEF);
    for (auto _ : state)
        benchmark::DoNotOptimize(Evaluate(acc, model));
}
BENCHMARK(BM_Evaluate);

}  // namespace

BENCHMARK_MAIN();
