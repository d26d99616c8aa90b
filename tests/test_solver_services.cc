// Achilles reproduction -- tests.
//
// Explorer contracts on FSP: witness determinism at 1/2/4/8 workers.

#include <gtest/gtest.h>

#include <algorithm>
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

std::vector<WitnessSummary>
RunFspPipeline(size_t workers)
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
    // query, whatever each worker asked before.
    const std::vector<WitnessSummary> baseline = RunFspPipeline(1);
    ASSERT_FALSE(baseline.empty());
    for (size_t workers : {2, 4, 8}) {
        EXPECT_EQ(RunFspPipeline(workers), baseline)
            << "diverged at " << workers << " workers";
    }
}

}  // namespace
}  // namespace achilles
