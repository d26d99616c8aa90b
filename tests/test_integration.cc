// Achilles reproduction -- tests.
//
// Cross-module integration tests:
//  * PBFT symbolic replica vs the concrete oracle on random messages
//    (model consistency, like the FSP version);
//  * configuration equivalence -- every optimization configuration of
//    the server explorer must discover the same FSP Trojan types;
//  * search-order independence of the discovered Trojan set;
//  * completeness of the optimized pipeline: on every registered
//    protocol and both example specs, the default configuration and an
//    unoptimized reference configuration emit identical witnesses.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "core/path_predicate.h"
#include "proto/fsp/fsp_concrete.h"
#include "proto/fsp/fsp_protocol.h"
#include "proto/pbft/pbft_concrete.h"
#include "proto/pbft/pbft_protocol.h"
#include "proto/registry.h"
#include "proto/spec/lower.h"
#include "support/rng.h"

namespace achilles {
namespace {

class PbftModelConsistencyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PbftModelConsistencyTest, SymbolicReplicaMatchesOracle)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    const symexec::Program replica = pbft::MakeReplica();

    Rng rng(0xBF7 + GetParam());
    for (int iter = 0; iter < 15; ++iter) {
        pbft::Bytes msg = pbft::EncodeRequest(
            static_cast<uint16_t>(rng.Below(pbft::kNumClients + 2)),
            static_cast<uint16_t>(1 + rng.Below(100)),
            {static_cast<uint8_t>(rng.Below(256)), 0, 0, 0},
            static_cast<uint16_t>(rng.Below(4)),
            static_cast<uint16_t>(rng.Below(8)));
        if (rng.Chance(0.3))
            msg = pbft::CorruptMac(std::move(msg),
                                   static_cast<uint32_t>(rng.Below(4)));
        if (rng.Chance(0.2))
            msg[pbft::kOffTag] ^= 0xff;
        if (rng.Chance(0.2))
            msg[pbft::kOffDigest + rng.Below(16)] ^= 1;

        std::vector<smt::ExprRef> bytes;
        for (uint8_t b : msg)
            bytes.push_back(ctx.MakeConst(8, b));
        symexec::Engine engine(&ctx, &solver, &replica,
                               symexec::Mode::kServer);
        engine.SetIncomingMessage(bytes);
        const auto results = engine.Run();

        // The replica's rid check compares against havocked local
        // state, so on a concrete message the symbolic model may fork
        // (accept for small last_rid, reject for large). The oracle
        // with last_rid = 0 must agree with the *acceptance
        // possibility*.
        bool model_can_accept = false;
        for (const auto &r : results)
            model_can_accept |=
                r.outcome == symexec::PathOutcome::kAccepted;
        EXPECT_EQ(model_can_accept, pbft::ReplicaAccepts(msg, 0))
            << "iter=" << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbftModelConsistencyTest,
                         ::testing::Range(0, 4));

namespace {

std::set<fsp::LengthTrojanType>
FspTypesUnder(core::ServerExplorerConfig server_config)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();
    core::AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (const symexec::Program &c : clients)
        config.clients.push_back(&c);
    config.server = &server;
    config.server_config = server_config;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);
    std::set<fsp::LengthTrojanType> types;
    for (const core::TrojanWitness &t : result.server.trojans) {
        const fsp::Bytes m(t.concrete.begin(), t.concrete.end());
        EXPECT_TRUE(fsp::IsTrojan(m)) << "false positive";
        if (auto type = fsp::ClassifyLengthTrojan(m))
            types.insert(*type);
    }
    return types;
}

}  // namespace

TEST(ConfigEquivalenceTest, AllOptimizationConfigsFindTheSameTypes)
{
    core::ServerExplorerConfig base;
    const auto reference = FspTypesUnder(base);
    EXPECT_EQ(reference.size(), 80u);

    core::ServerExplorerConfig no_dff = base;
    no_dff.use_different_from = false;
    EXPECT_EQ(FspTypesUnder(no_dff), reference);

    core::ServerExplorerConfig no_drop = base;
    no_drop.drop_client_predicates = false;
    EXPECT_EQ(FspTypesUnder(no_drop), reference);

    core::ServerExplorerConfig no_prune = base;
    no_prune.prune_trojan_free_states = false;
    EXPECT_EQ(FspTypesUnder(no_prune), reference);

    core::ServerExplorerConfig apost = base;
    apost.mode = core::SearchMode::kAPosteriori;
    EXPECT_EQ(FspTypesUnder(apost), reference);
}

TEST(ConfigEquivalenceTest, SearchOrderDoesNotChangeTheTypes)
{
    core::ServerExplorerConfig base;
    const auto dfs = FspTypesUnder(base);

    core::ServerExplorerConfig bfs = base;
    bfs.engine.order = symexec::SearchOrder::kBfs;
    EXPECT_EQ(FspTypesUnder(bfs), dfs);

    core::ServerExplorerConfig random = base;
    random.engine.order = symexec::SearchOrder::kRandom;
    random.engine.random_seed = 1234;
    EXPECT_EQ(FspTypesUnder(random), dfs);
}

/** A witness as two independent runs can compare it: server path id,
 *  accept label, concrete bytes and the definition's canonical hash. */
using WitnessKey =
    std::tuple<uint64_t, std::string, std::vector<uint8_t>, uint64_t>;

/**
 * One serial RunAchilles over `factory`'s protocol. The reference
 * configuration turns off the solver's memo cache and the explorer's
 * differentFrom matrix, leaving the paper's predicate dropping and
 * state pruning on fresh SAT instances.
 */
std::vector<WitnessKey>
WitnessesOf(const proto::ProtocolFactory &factory, bool reference)
{
    const proto::ProtocolBundle bundle = factory.Make();
    smt::SolverConfig solver_config;
    core::AchillesConfig config;
    if (reference) {
        solver_config.enable_cache = false;
        config.server_config.use_different_from = false;
    }
    smt::ExprContext ctx;
    smt::Solver solver(&ctx, solver_config);
    config.layout = bundle.layout;
    config.clients = bundle.ClientPtrs();
    config.server = &bundle.server;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    core::CanonicalHasher hasher(&ctx);
    std::vector<WitnessKey> out;
    for (const core::TrojanWitness &t : result.server.trojans) {
        out.emplace_back(t.server_path_id, t.accept_label, t.concrete,
                         hasher.HashExprs(t.definition));
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(ReferenceConfigTest, RegistryWitnessesMatchUnoptimizedReference)
{
    proto::ProtocolRegistry specs;
    for (const char *file : {"kv_union.spec", "sensor_tlv.spec"}) {
        std::string name, error;
        ASSERT_TRUE(spec::RegisterSpecFile(std::string(ACHILLES_SOURCE_DIR) +
                                               "/examples/" + file,
                                           &specs, &name, &error))
            << error;
    }
    auto factories = proto::ProtocolRegistry::Global().All();
    for (const auto &factory : specs.All())
        factories.push_back(factory);

    size_t witnesses = 0;
    for (const auto &factory : factories) {
        const std::vector<WitnessKey> optimized =
            WitnessesOf(*factory, /*reference=*/false);
        EXPECT_EQ(optimized, WitnessesOf(*factory, /*reference=*/true))
            << factory->info().name;
        witnesses += optimized.size();
    }
    EXPECT_GE(factories.size(), 129u);
    EXPECT_GT(witnesses, 0u);
}

}  // namespace
}  // namespace achilles
