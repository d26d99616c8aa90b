// Achilles reproduction -- tests.
//
// Explorer contracts on FSP: witnesses and exploration counts at
// 1/2/4/8 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "proto/fsp/fsp_protocol.h"
#include "smt/solver.h"

namespace achilles {
namespace {

using smt::ExprContext;
using smt::Solver;

// ------------------------------------------- explorer contracts

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

/** The server stats that must not depend on the worker count: every
 *  explorer.* entry, the fork count and the finished-path count. */
std::map<std::string, int64_t>
ScheduleIndependentCounts(const obs::CounterView &stats)
{
    std::map<std::string, int64_t> out;
    for (const auto &[name, value] : stats.All()) {
        if (name.rfind("explorer.", 0) == 0 || name == "engine.forks" ||
            name == "engine.paths_finished") {
            out[name] = value;
        }
    }
    return out;
}

std::vector<WitnessSummary>
RunFspPipeline(size_t workers,
               std::map<std::string, int64_t> *counts = nullptr)
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
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);
    if (counts != nullptr)
        *counts = ScheduleIndependentCounts(result.server.stats);

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
    // worker count. Witness bytes come from a fresh SAT instance per
    // query, whatever each worker asked before. The explorer's and the
    // engines' counts are too: each state runs the same checks on
    // whichever worker, and the merge counts every plane exactly once.
    std::map<std::string, int64_t> baseline_counts;
    const std::vector<WitnessSummary> baseline =
        RunFspPipeline(1, &baseline_counts);
    ASSERT_FALSE(baseline.empty());
    EXPECT_GT(baseline_counts["explorer.match_queries"], 0);
    EXPECT_GT(baseline_counts["explorer.trojans"], 0);
    EXPECT_GT(baseline_counts["engine.forks"], 0);
    for (size_t workers : {2, 4, 8}) {
        std::map<std::string, int64_t> counts;
        EXPECT_EQ(RunFspPipeline(workers, &counts), baseline)
            << "diverged at " << workers << " workers";
        EXPECT_EQ(counts, baseline_counts)
            << "counts diverged at " << workers << " workers";
    }
}

}  // namespace
}  // namespace achilles
