// Achilles reproduction -- SMT solver micro-benchmarks (ablation).
//
// Measures the design choices DESIGN.md calls out for the solver
// substrate: the interval fast path vs full bit-blasting, expression
// interning, and raw CDCL search on a hard instance.
//
// Besides the Google Benchmark suite, an incremental-vs-fresh
// comparison runs on the shared-prefix Trojan-query workload (phase 2's
// dominant query shape: one pathS prefix, many ¬pathC_i iterated
// against it) whenever `--compare-incremental` or `--json <path>` is on
// the command line, and `--trail-reuse` adds the assumption-trail-reuse
// ablation on the same stream; their metrics feed the perf-trajectory
// artifacts CI collects.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "smt/bitblast.h"
#include "smt/eval.h"
#include "smt/interval.h"
#include "smt/sat.h"
#include "smt/solver.h"
#include "support/rng.h"
#include "support/timer.h"

using namespace achilles;
using namespace achilles::smt;

namespace {

/** Range-conflict queries: the interval pre-check refutes these. */
void
BM_IntervalFastPathUnsat(benchmark::State &state)
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
BENCHMARK(BM_IntervalFastPathUnsat);

/** The same queries with the interval check disabled: full bit-blast. */
void
BM_BitblastUnsat(benchmark::State &state)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 32);
    std::vector<ExprRef> query{
        ctx.MakeUlt(x, ctx.MakeConst(32, 100)),
        ctx.MakeUge(x, ctx.MakeConst(32, 200)),
    };
    for (auto _ : state) {
        SolverConfig config;
        config.use_interval_check = false;
        config.enable_cache = false;
        Solver solver(&ctx, config);
        benchmark::DoNotOptimize(solver.CheckSat(query));
    }
}
BENCHMARK(BM_BitblastUnsat);

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

// ---------------------------------------------------------------------
// Incremental-vs-fresh comparison on the shared-prefix Trojan workload.
// ---------------------------------------------------------------------

struct TrojanWorkload
{
    ExprContext ctx;
    /** Growing pathS prefixes: prefix[d] has d+1 byte constraints. */
    std::vector<std::vector<ExprRef>> prefixes;
    /** Per-predicate negation disjunctions (¬pathC_i). */
    std::vector<ExprRef> negations;
    /** Match-shaped probes that conflict with deep prefixes: byte
     *  pins just outside a prefix range constraint, so the stream
     *  mixes kUnsat answers in the proportion the explorer's match
     *  loop sees. */
    std::vector<ExprRef> match_probes;
};

/** Phase-2 query shape: pathS over 16 message bytes, 96 predicate
 *  negations, a CRC-ish arithmetic coupling to keep the SAT core
 *  honest. */
std::unique_ptr<TrojanWorkload>
MakeTrojanWorkload()
{
    auto w = std::make_unique<TrojanWorkload>();
    ExprContext &ctx = w->ctx;
    Rng rng(0x7101a);
    std::vector<ExprRef> bytes;
    for (int i = 0; i < 16; ++i)
        bytes.push_back(ctx.FreshVar("m", 8));

    // pathS: per-byte range constraints plus a running checksum bound at
    // every depth, the way server parse paths accumulate arithmetic over
    // the bytes consumed so far. The deepening multiply/xor chain is
    // what makes re-bit-blasting the prefix per query expensive on the
    // fresh-instance path and free (memoized CNF) on the incremental
    // one.
    std::vector<ExprRef> prefix;
    ExprRef crc = ctx.MakeConst(8, 0x5a);
    for (size_t i = 0; i < bytes.size(); ++i) {
        crc = ctx.MakeXor(ctx.MakeMul(crc, ctx.MakeConst(8, 13)),
                          bytes[i]);
        prefix.push_back(i % 3 == 0
                             ? ctx.MakeUlt(bytes[i], ctx.MakeConst(8, 240))
                             : ctx.MakeNe(bytes[i],
                                          ctx.MakeConst(8, rng.Below(256))));
        prefix.push_back(ctx.MakeUlt(crc, ctx.MakeConst(8, 250)));
        w->prefixes.push_back(prefix);
    }

    for (int p = 0; p < 96; ++p) {
        std::vector<ExprRef> disj;
        for (int f = 0; f < 4; ++f) {
            disj.push_back(ctx.MakeNe(bytes[rng.Below(bytes.size())],
                                      ctx.MakeConst(8, rng.Below(256))));
        }
        w->negations.push_back(ctx.MakeOrList(disj));
    }

    // Byte positions with an Ult(byte, 240) range constraint in the
    // prefix: pinning 250 there is UNSAT once the prefix is deep
    // enough, SAT before.
    for (size_t i = 0; i < bytes.size(); i += 3)
        w->match_probes.push_back(
            ctx.MakeEq(bytes[i], ctx.MakeConst(8, 250)));
    return w;
}

/** Run the full query stream; returns seconds. Results are recorded so
 *  the configurations can be cross-checked. */
double
RunTrojanStream(TrojanWorkload *w, bool incremental,
                std::vector<CheckStatus> *results)
{
    SolverConfig config;
    config.enable_incremental = incremental;
    config.enable_cache = false;  // isolate the backend, not the memo
    Solver solver(&w->ctx, config);
    results->clear();
    Timer timer;
    // Every state (prefix depth) sweeps all live predicates, exactly the
    // HandleBranch/TrojanQuery iteration pattern.
    for (const std::vector<ExprRef> &prefix : w->prefixes) {
        for (ExprRef neg : w->negations)
            results->push_back(solver.CheckSatAssuming(prefix, {neg}));
        for (ExprRef probe : w->match_probes)
            results->push_back(solver.CheckSatAssuming(prefix, {probe}));
    }
    return timer.Seconds();
}

/**
 * The trail-reuse target shape: refutation sweeps against one deep
 * shared prefix (the regime ROADMAP calls "deep-prefix streams that
 * miss solution reuse"). A refuting probe misses solution reuse by
 * definition -- no standing model satisfies it -- so without trail
 * reuse every query re-establishes all 256 assumption levels; with it,
 * consecutive probes resume where their sorted assumption vectors
 * diverge. Probes are swept in structural (canonical assumption) order,
 * mirroring the explorer's fixed predicate iteration, so each query
 * keeps the prefix up to the previous probe's position.
 */
struct TrailWorkload
{
    ExprContext ctx;
    std::vector<ExprRef> prefix;
    std::vector<ExprRef> probes;
};

std::unique_ptr<TrailWorkload>
MakeTrailWorkload()
{
    auto w = std::make_unique<TrailWorkload>();
    ExprContext &ctx = w->ctx;
    Rng rng(0x77a11);
    std::vector<ExprRef> bytes;
    for (int i = 0; i < 64; ++i)
        bytes.push_back(ctx.FreshVar("t", 8));
    for (ExprRef b : bytes) {
        w->prefix.push_back(ctx.MakeUlt(b, ctx.MakeConst(8, 240)));
        w->prefix.push_back(ctx.MakeUge(b, ctx.MakeConst(8, 3)));
        w->prefix.push_back(
            ctx.MakeNe(b, ctx.MakeConst(8, 5 + rng.Below(230))));
        w->prefix.push_back(
            ctx.MakeNe(b, ctx.MakeConst(8, 5 + rng.Below(230))));
    }
    // One refuting pin per byte (250 violates the Ult(b, 240) range).
    for (ExprRef b : bytes)
        w->probes.push_back(ctx.MakeEq(b, ctx.MakeConst(8, 250)));
    std::sort(w->probes.begin(), w->probes.end(),
              [](ExprRef a, ExprRef b) {
                  return StructuralCompare(a, b) < 0;
              });
    return w;
}

double
RunProbeStream(TrailWorkload *w, bool trail_reuse,
               std::vector<CheckStatus> *results, int64_t *trail_reuses)
{
    SolverConfig config;
    config.enable_cache = false;  // isolate the backend, not the memo
    // Bypass the interval pre-check: it decides the range-conflict
    // probes outright, and this ablation measures the SAT trail.
    config.use_interval_check = false;
    config.enable_trail_reuse = trail_reuse;
    Solver solver(&w->ctx, config);
    results->clear();
    Timer timer;
    // Enough sweeps to push the measurement window well past scheduler
    // jitter: the trend gate watches the on/off ratio.
    for (int rep = 0; rep < 32; ++rep) {
        for (ExprRef probe : w->probes)
            results->push_back(solver.CheckSatAssuming(w->prefix, {probe}));
    }
    const double seconds = timer.Seconds();
    if (trail_reuses != nullptr)
        *trail_reuses = solver.stats().Get("solver.trail_reuses");
    return seconds;
}

/** Trail-reuse ablation: the deep-prefix probe stream with
 *  assumption-prefix trail reuse on vs off. */
bool
CompareTrailReuse()
{
    bench::Header("Assumption-trail reuse vs full re-establishment "
                  "(deep-prefix probe stream)");
    std::unique_ptr<TrailWorkload> w = MakeTrailWorkload();
    std::vector<CheckStatus> off_results, on_results;
    int64_t reuses = 0;
    // Warm once to stabilize allocator state, then measure.
    RunProbeStream(w.get(), /*trail_reuse=*/false, &off_results, nullptr);
    const double off_s = RunProbeStream(w.get(), /*trail_reuse=*/false,
                                        &off_results, nullptr);
    const double on_s = RunProbeStream(w.get(), /*trail_reuse=*/true,
                                       &on_results, &reuses);
    const bool agree = off_results == on_results;

    bench::Metric("smt.no_trail_reuse_seconds", off_s, "s");
    bench::Metric("smt.trail_reuse_seconds", on_s, "s");
    bench::Metric("smt.trail_reuse_speedup",
                  on_s > 0 ? off_s / on_s : 0.0, "x");
    bench::Metric("smt.trail_reuses", static_cast<double>(reuses));
    bench::Metric("smt.trail_results_identical", agree ? 1 : 0);
    if (!agree)
        std::printf("  ERROR: trail-reuse verdicts diverged\n");
    return agree;
}

bool
CompareIncrementalVsFresh()
{
    bench::Header("Incremental assumption-based backend vs fresh "
                  "instances (shared-prefix Trojan stream)");
    std::unique_ptr<TrojanWorkload> w = MakeTrojanWorkload();
    std::vector<CheckStatus> fresh_results, inc_results;
    // Warm once to stabilize allocator state, then measure.
    RunTrojanStream(w.get(), /*incremental=*/false, &fresh_results);
    const double fresh_s =
        RunTrojanStream(w.get(), /*incremental=*/false, &fresh_results);
    const double inc_s =
        RunTrojanStream(w.get(), /*incremental=*/true, &inc_results);
    const bool agree = fresh_results == inc_results;

    bench::Metric("smt.trojan_stream_queries",
                  static_cast<double>(fresh_results.size()));
    bench::Metric("smt.fresh_seconds", fresh_s, "s");
    bench::Metric("smt.incremental_seconds", inc_s, "s");
    bench::Metric("smt.incremental_speedup",
                  inc_s > 0 ? fresh_s / inc_s : 0.0, "x");
    bench::Metric("smt.results_identical", agree ? 1 : 0);
    if (!agree)
        std::printf("  ERROR: incremental and fresh verdicts diverged\n");
    return agree;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::ParseBenchArgs(argc, argv);
    bool compare = false;
    bool trail_reuse = false;
    // Strip harness-only flags before handing argv to Google Benchmark.
    std::vector<char *> gbench_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            compare = true;
            ++i;
        } else if (std::strcmp(argv[i], "--compare-incremental") == 0) {
            compare = true;
        } else if (std::strcmp(argv[i], "--trail-reuse") == 0) {
            trail_reuse = true;
        } else {
            gbench_argv.push_back(argv[i]);
        }
    }
    // A verdict divergence must fail the process (CI gates on it).
    bool agree = compare ? CompareIncrementalVsFresh() : true;
    if (trail_reuse)
        agree &= CompareTrailReuse();

    int gbench_argc = static_cast<int>(gbench_argv.size());
    benchmark::Initialize(&gbench_argc, gbench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                               gbench_argv.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return agree ? 0 : 1;
}
