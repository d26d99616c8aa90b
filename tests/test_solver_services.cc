// Achilles reproduction -- tests.
//
// The shared solver-services layer: assumption-prefix trail reuse
// (SAT-level prefix keeping and facade-level stream equivalence),
// and witness determinism at 1/2/4/8 workers with the concrete
// pre-filter off and on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "proto/fsp/fsp_protocol.h"
#include "smt/sat.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace achilles {
namespace {

using smt::CheckResult;
using smt::CheckStatus;
using smt::ExprContext;
using smt::ExprRef;
using smt::Lit;
using smt::Model;
using smt::SatSolver;
using smt::SatStatus;
using smt::Solver;
using smt::SolverConfig;

// ------------------------------------------------- SAT trail reuse

TEST(SatTrailReuseTest, PrefixKeptAcrossSolves)
{
    SatSolver sat;
    std::vector<Lit> v;
    for (int i = 0; i < 8; ++i)
        v.emplace_back(sat.NewVar(), false);
    for (int i = 0; i + 1 < 8; ++i)
        sat.AddBinary(v[i], v[i + 1]);
    sat.AddBinary(~v[3], ~v[4]);  // v3 and v4 conflict

    // Establishing {v0..v4} fails on the last assumption; the
    // established prefix survives.
    ASSERT_EQ(sat.Solve({v[0], v[1], v[2], v[3], v[4]}),
              SatStatus::kUnsat);

    // The follow-up shares the first four assumptions: the kept trail
    // answers without re-establishing them.
    ASSERT_EQ(sat.Solve({v[0], v[1], v[2], v[3]}), SatStatus::kSat);
    EXPECT_GE(sat.stats().Get("sat.trail_reuses"), 1);
    EXPECT_TRUE(sat.Value(v[0].var()));
    EXPECT_TRUE(sat.Value(v[3].var()));
    EXPECT_FALSE(sat.Value(v[4].var()));

    // Diverging at the first position falls back to a fresh stack and
    // still answers correctly.
    ASSERT_EQ(sat.Solve({~v[3], v[4]}), SatStatus::kSat);
    EXPECT_FALSE(sat.Value(v[3].var()));
    EXPECT_TRUE(sat.Value(v[4].var()));
}

TEST(SatTrailReuseTest, RandomStreamsMatchNoReuse)
{
    // Property: on identical clause sets and an identical stream of
    // assumption queries, trail reuse never changes a verdict.
    Rng rng(0x5eed5);
    constexpr int kVars = 14;
    SatSolver with, without;
    without.SetTrailReuse(false);
    for (int i = 0; i < kVars; ++i) {
        with.NewVar();
        without.NewVar();
    }
    for (int c = 0; c < 40; ++c) {
        std::vector<Lit> clause;
        const size_t len = 2 + rng.Below(3);
        for (size_t k = 0; k < len; ++k)
            clause.emplace_back(rng.Below(kVars), rng.Chance(0.5));
        with.AddClause(clause);
        without.AddClause(clause);
    }
    for (int q = 0; q < 200; ++q) {
        std::vector<Lit> assumptions;
        const size_t len = rng.Below(7);
        for (size_t k = 0; k < len; ++k)
            assumptions.emplace_back(rng.Below(kVars), rng.Chance(0.5));
        ASSERT_EQ(with.Solve(assumptions), without.Solve(assumptions))
            << "query " << q;
    }
    EXPECT_GE(with.stats().Get("sat.trail_reuses"), 1);
    EXPECT_EQ(without.stats().Get("sat.trail_reuses"), 0);
}

// ------------------------------------------- facade trail reuse

TEST(SolverTrailReuseTest, SharedPrefixStreamEquivalence)
{
    // The explorer's query shape -- one pathS prefix, many ¬pathC_i /
    // match probes iterated against it -- must answer identically with
    // trail reuse on and off, and the reuse must actually engage.
    ExprContext ctx;
    std::vector<ExprRef> bytes;
    for (int i = 0; i < 8; ++i)
        bytes.push_back(ctx.FreshVar("m", 8));
    std::vector<ExprRef> prefix;
    for (int i = 0; i < 8; ++i)
        prefix.push_back(ctx.MakeUlt(bytes[i], ctx.MakeConst(8, 200)));

    SolverConfig on_config;
    on_config.enable_cache = false;
    // Isolate the backend: with the pre-check on, the interval check
    // would answer the range-conflicting probes before the SAT trail
    // ever gets a chance to be reused.
    on_config.use_interval_check = false;
    SolverConfig off_config = on_config;
    off_config.enable_trail_reuse = false;
    Solver on(&ctx, on_config);
    Solver off(&ctx, off_config);

    Rng rng(77);
    int unsat = 0;
    for (int q = 0; q < 120; ++q) {
        const size_t byte = rng.Below(8);
        // Mix satisfiable pins with range-conflicting ones.
        ExprRef probe =
            rng.Chance(0.4)
                ? ctx.MakeEq(bytes[byte], ctx.MakeConst(8, 250))
                : ctx.MakeNe(bytes[byte],
                             ctx.MakeConst(8, rng.Below(200)));
        const CheckResult a = on.CheckSatAssuming(prefix, {probe});
        const CheckResult b = off.CheckSatAssuming(prefix, {probe});
        ASSERT_EQ(a, b) << "query " << q;
        unsat += a == CheckResult::kUnsat ? 1 : 0;
    }
    EXPECT_GT(unsat, 0);
    EXPECT_GE(on.stats().Get("solver.trail_reuses"), 1);
    EXPECT_EQ(off.stats().Get("solver.trail_reuses"), 0);
}

// ------------------------------------------- explorer contracts

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

std::vector<WitnessSummary>
RunFspPipeline(size_t workers, bool prefilter)
{
    ExprContext ctx;
    Solver solver(&ctx);

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();
    core::AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (size_t i = 0; i < 2; ++i)
        config.clients.push_back(&clients[i]);
    config.server = &server;
    config.server_config.engine.num_workers = workers;
    config.server_config.use_different_from = false;
    config.server_config.use_concrete_prefilter = prefilter;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    std::vector<WitnessSummary> witnesses;
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        witnesses.emplace_back(t.accept_label, t.concrete,
                               hasher.HashExprs(t.definition));
    }
    std::sort(witnesses.begin(), witnesses.end());
    return witnesses;
}

TEST(WorkerSweepTest, WitnessesIdenticalAcrossWorkerCounts)
{
    // The hard determinism constraint: Trojan witness sets (labels,
    // definitions, concrete bytes) are bitwise identical at every
    // worker count and with the concrete pre-filter off or on. Witness
    // bytes always come from the deterministic fresh-instance path,
    // whatever the workers' incremental backends learned along the way,
    // and a pre-filter hit only ever stands in for a kSat the solver
    // would have answered too.
    const std::vector<WitnessSummary> baseline =
        RunFspPipeline(1, /*prefilter=*/true);
    ASSERT_FALSE(baseline.empty());
    for (const bool prefilter : {false, true}) {
        for (size_t workers : {1, 2, 4, 8}) {
            if (prefilter && workers == 1)
                continue;  // the baseline itself
            EXPECT_EQ(RunFspPipeline(workers, prefilter), baseline)
                << "diverged at " << workers
                << " workers, prefilter=" << prefilter;
        }
    }
}

}  // namespace
}  // namespace achilles
