// Achilles reproduction -- tests.
//
// Cross-module integration tests:
//  * PBFT symbolic replica vs the concrete oracle on random messages
//    (model consistency, like the FSP version);
//  * configuration equivalence -- every optimization configuration of
//    the server explorer must discover the same FSP Trojan types;
//  * completeness of the optimized pipeline: on every registered
//    protocol and both example specs, the default configuration and an
//    unoptimized reference configuration emit identical witnesses;
//  * pinned witness bytes: on the same protocols, serial and 4-worker
//    runs match the counts and digests in tests/witness_digests.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
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

/** A witness as two independent runs can compare it: server path id,
 *  accept label, concrete bytes and the definition's canonical hash. */
using WitnessKey =
    std::tuple<uint64_t, std::string, std::vector<uint8_t>, uint64_t>;

/**
 * One RunAchilles over `factory`'s protocol on `workers` workers. The
 * reference configuration turns off the solver's memo cache and the
 * explorer's differentFrom matrix, leaving the paper's predicate
 * dropping and state pruning on fresh SAT instances.
 */
std::vector<WitnessKey>
WitnessesOf(const proto::ProtocolFactory &factory, bool reference,
            size_t workers = 1)
{
    const proto::ProtocolBundle bundle = factory.Make();
    smt::SolverConfig solver_config;
    core::AchillesConfig config;
    if (reference) {
        solver_config.enable_cache = false;
        config.server_config.use_different_from = false;
    }
    config.server_config.engine.num_workers = workers;
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

/** Every registered protocol plus the two example specs. */
std::vector<std::shared_ptr<const proto::ProtocolFactory>>
AllProtocols()
{
    proto::ProtocolRegistry specs;
    for (const char *file : {"kv_union.spec", "sensor_tlv.spec"}) {
        std::string name, error;
        EXPECT_TRUE(spec::RegisterSpecFile(std::string(ACHILLES_SOURCE_DIR) +
                                               "/examples/" + file,
                                           &specs, &name, &error))
            << error;
    }
    auto factories = proto::ProtocolRegistry::Global().All();
    for (const auto &factory : specs.All())
        factories.push_back(factory);
    return factories;
}

TEST(ReferenceConfigTest, RegistryWitnessesMatchUnoptimizedReference)
{
    const auto factories = AllProtocols();
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

void
DigestByte(uint64_t *h, uint8_t byte)
{
    *h ^= byte;
    *h *= 1099511628211ull;
}

void
DigestU64(uint64_t *h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        DigestByte(h, static_cast<uint8_t>(v >> (8 * i)));
}

/**
 * `<name> <count> <digest>`: an FNV-1a over the sorted (accept label,
 * concrete bytes, definition hash) triples. The server path id is left
 * out, since serial and parallel runs number paths differently.
 */
std::string
DigestLine(const std::string &name, const std::vector<WitnessKey> &keys)
{
    std::vector<std::tuple<std::string, std::vector<uint8_t>, uint64_t>>
        triples;
    for (const WitnessKey &k : keys)
        triples.emplace_back(std::get<1>(k), std::get<2>(k), std::get<3>(k));
    std::sort(triples.begin(), triples.end());
    uint64_t h = 1469598103934665603ull;
    for (const auto &[label, bytes, definition] : triples) {
        DigestU64(&h, label.size());
        for (char c : label)
            DigestByte(&h, static_cast<uint8_t>(c));
        DigestU64(&h, bytes.size());
        for (uint8_t b : bytes)
            DigestByte(&h, b);
        DigestU64(&h, definition);
    }
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, h);
    return name + " " + std::to_string(triples.size()) + " " + digest;
}

TEST(WitnessPinTest, WitnessesMatchCheckedInDigests)
{
    const std::string path =
        std::string(ACHILLES_SOURCE_DIR) + "/tests/witness_digests.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot read " << path;
    std::map<std::string, std::string> pinned;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty())
            pinned[line.substr(0, line.find(' '))] = line;
    }

    const auto factories = AllProtocols();
    EXPECT_EQ(pinned.size(), factories.size()) << path;
    for (const auto &factory : factories) {
        const std::string &name = factory->info().name;
        const auto it = pinned.find(name);
        const std::string have = it == pinned.end() ? "" : it->second;
        for (size_t workers : {1u, 4u}) {
            const std::string line = DigestLine(
                name, WitnessesOf(*factory, /*reference=*/false, workers));
            EXPECT_EQ(have, line)
                << name << " at " << workers << " workers; expected line:\n"
                << line;
        }
    }
}

}  // namespace
}  // namespace achilles
