// Achilles reproduction -- tests.
//
// Wire-format spec frontend: parse/lower round-trip of a declarative
// spec, line-anchored rejection of malformed specs, seeded mutation
// fuzzing of the example specs (every mutant is a clean rejection or a
// spec that lowers), and end-to-end pipeline runs on a compiled spec
// (the declared validation gaps must surface as exactly the expected
// Trojans, at any worker count).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "core/path_predicate.h"
#include "proto/registry.h"
#include "proto/spec/lower.h"
#include "proto/spec/spec.h"
#include "support/rng.h"

namespace achilles {
namespace spec {
namespace {

/** The examples/kv_union.spec protocol, inlined so the test needs no
 *  data files: three variants, two of which carry a declared
 *  guaranteed-but-unchecked field (get/ver and put/val). */
const char kKvUnionSpec[] = R"(protocol kv_union_test
wire union
length 6

field op 0 1
field key 1 2
field val 3 2
field ver 5 1
dispatch op

client key <= 1023
server key <= 1023

variant 1 get
  client ver == 0
  reply val 0
end

variant 2 put
  client val >= 1
  client ver in 1 .. 8
  server ver >= 1
  server ver <= 8
end

variant 3 del
  client val == 0
  server val == 0
end
)";

/** (accept label, concrete bytes, canonical definition hash). */
using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

std::vector<WitnessSummary>
RunSpecText(const std::string &text, size_t workers = 1)
{
    proto::ProtocolRegistry local;
    std::string name, error;
    EXPECT_TRUE(RegisterSpecText(text, "inline.spec", &local, &name,
                                 &error))
        << error;
    const auto factory = local.Find(name);
    EXPECT_NE(factory, nullptr);
    const proto::ProtocolBundle bundle = factory->Make();
    EXPECT_EQ(bundle.info.family, "spec");

    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    core::AchillesConfig config;
    config.layout = bundle.layout;
    const auto clients = bundle.ClientPtrs();
    config.clients = clients;
    config.server = &bundle.server;
    config.server_config.engine.num_workers = workers;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    core::CanonicalHasher hasher(&ctx);
    std::vector<WitnessSummary> out;
    for (const core::TrojanWitness &t : result.server.trojans)
        out.emplace_back(t.accept_label, t.concrete,
                         hasher.HashExprs(t.definition));
    std::sort(out.begin(), out.end());
    return out;
}

TEST(ProtoSpec, ParseRoundTripTlv)
{
    const std::string text = R"(# sensor report stream
protocol sensor
wire tlv
length 8

field kind 0 1
field len 1 1
field seq 2 1
field crc 3 1 mask
payload data 4 4
dispatch kind
lenfield len

client seq in 1 .. 200
client crc == seq * 13 + 7
server seq >= 1

variant 1 report
  client data0 in 10 .. 99
  server data0 <= 99
  reply kind 1
end
)";
    ProtocolSpec s;
    SpecError err;
    ASSERT_TRUE(ParseSpec(text, "sensor.spec", &s, &err))
        << err.Format("sensor.spec");

    EXPECT_EQ(s.name, "sensor");
    EXPECT_EQ(s.wire, WireKind::kTlv);
    EXPECT_EQ(s.length, 8u);
    EXPECT_EQ(s.dispatch_field, "kind");
    EXPECT_EQ(s.len_field, "len");
    EXPECT_EQ(s.payload_name, "data");
    EXPECT_EQ(s.payload_bytes, 4u);

    // 4 scalars + 4 expanded payload bytes.
    ASSERT_EQ(s.fields.size(), 8u);
    const SpecField *crc = s.FindField("crc");
    ASSERT_NE(crc, nullptr);
    EXPECT_EQ(crc->offset, 3u);
    EXPECT_TRUE(crc->masked);
    const SpecField *d2 = s.FindField("data2");
    ASSERT_NE(d2, nullptr);
    EXPECT_EQ(d2->offset, 6u);
    EXPECT_TRUE(d2->is_payload_byte);

    // `seq in 1 .. 200` expands to two compares; the crc rule is affine.
    ASSERT_EQ(s.client_rules.size(), 3u);
    EXPECT_EQ(s.client_rules[0].op, RelOp::kGe);
    EXPECT_EQ(s.client_rules[1].op, RelOp::kLe);
    EXPECT_EQ(s.client_rules[1].value, 200u);
    EXPECT_EQ(s.client_rules[2].kind, FieldRule::Kind::kAffine);
    EXPECT_EQ(s.client_rules[2].base, "seq");
    EXPECT_EQ(s.client_rules[2].mul, 13u);
    EXPECT_EQ(s.client_rules[2].add, 7u);

    ASSERT_EQ(s.variants.size(), 1u);
    EXPECT_EQ(s.variants[0].tag, 1u);
    EXPECT_EQ(s.variants[0].label, "report");
    EXPECT_EQ(s.variants[0].client_rules.size(), 2u);
    ASSERT_EQ(s.variants[0].replies.size(), 1u);
    EXPECT_EQ(s.variants[0].replies[0].field, "kind");

    // The parsed spec lowers into a runnable bundle.
    const proto::ProtocolBundle bundle = BuildProtocol(s);
    EXPECT_EQ(bundle.layout.length(), 8u);
    ASSERT_EQ(bundle.clients.size(), 1u);
}

TEST(ProtoSpec, BadSpecsRejectedWithAnchoredLines)
{
    struct Case
    {
        const char *text;
        int line;
        const char *needle;
    };
    const Case cases[] = {
        // A spec that never introduces the protocol is a whole-file
        // error (line 0).
        {"wire union\n", 0, "missing `protocol <name>`"},
        // Overlapping fields are caught on the second declaration.
        {"protocol p\nwire union\nlength 4\nfield a 0 2\nfield b 1 1\n"
         "dispatch a\nvariant 1 v\nend\n",
         5, "overlaps an earlier field"},
        // A client guarantee on a const field can never bind.
        {"protocol p\nwire union\nlength 3\nfield t 0 1\n"
         "field c 1 1 const 7\nfield x 2 1\ndispatch t\n"
         "client c == 7\nvariant 1 v\nend\n",
         8, "is vacuous"},
        // Conditionally-stored payload bytes cannot join a coupling.
        {"protocol p\nwire lenprefix\nlength 4\nfield len 0 1\n"
         "field k 1 1\npayload d 2 2\nlenfield len\n"
         "variant 0 only\nend\n"
         "client k == d0 * 3 + 1\n",
         10, "cannot couple length-prefixed payload bytes"},
        // Numbers must parse.
        {"protocol p\nwire union\nlength zz\n", 3,
         "expected `length <bytes>`"},
        // Rules may only name declared fields.
        {"protocol p\nwire union\nlength 2\nfield t 0 1\nfield x 1 1\n"
         "dispatch t\nserver ghost <= 4\nvariant 1 v\nend\n",
         7, "unknown field `ghost`"},
    };
    for (const Case &c : cases) {
        ProtocolSpec s;
        SpecError err;
        EXPECT_FALSE(ParseSpec(c.text, "bad.spec", &s, &err)) << c.text;
        EXPECT_EQ(err.line, c.line) << c.text;
        EXPECT_NE(err.message.find(c.needle), std::string::npos)
            << "got: " << err.message;
        // Format() anchors the message to source:line.
        const std::string want =
            "bad.spec:" + std::to_string(c.line) + ": ";
        EXPECT_EQ(err.Format("bad.spec").rfind(want, 0), 0u)
            << err.Format("bad.spec");
    }
}

std::vector<std::string>
SplitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line))
        lines.push_back(line);
    return lines;
}

std::string
JoinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    return text;
}

/** Replace one whitespace-separated token of `line` (the whole line
 *  when it has none). */
void
ReplaceToken(std::string *line, const std::string &token, Rng *rng)
{
    std::vector<std::pair<size_t, size_t>> spans;  // [begin, end)
    for (size_t i = 0; i < line->size();) {
        if (std::isspace(static_cast<unsigned char>((*line)[i]))) {
            ++i;
            continue;
        }
        const size_t begin = i;
        while (i < line->size() &&
               !std::isspace(static_cast<unsigned char>((*line)[i])))
            ++i;
        spans.emplace_back(begin, i);
    }
    if (spans.empty()) {
        *line = token;
        return;
    }
    const auto [begin, end] = spans[rng->Below(spans.size())];
    line->replace(begin, end - begin, token);
}

/** One seeded mutation: delete, duplicate or swap lines, replace a
 *  token, overwrite a byte, or truncate a line. */
std::string
Mutate(const std::string &text, Rng *rng)
{
    static const char *const kTokens[] = {
        "0", "255", "256", "65535", "4294967296",
        "99999999999999999999", "-1", "x", "protocol", "wire", "length",
        "field", "payload", "lenfield", "dispatch", "client", "server",
        "variant", "reply", "end", "const", "mask", "tlv", "lenprefix",
        "union", "in", "..", "==", "<=", "*", "+"};
    std::vector<std::string> lines = SplitLines(text);
    const size_t i = rng->Below(lines.size());
    switch (rng->Below(6)) {
      case 0:
        lines.erase(lines.begin() + i);
        break;
      case 1:
        lines.insert(lines.begin() + i, lines[i]);
        break;
      case 2:
        std::swap(lines[i], lines[rng->Below(lines.size())]);
        break;
      case 3:
        ReplaceToken(&lines[i],
                     kTokens[rng->Below(sizeof(kTokens) / sizeof(*kTokens))],
                     rng);
        break;
      case 4: {
        std::string out = JoinLines(lines);
        out[rng->Below(out.size())] = static_cast<char>(rng->Below(256));
        return out;
      }
      default:
        lines[i].resize(rng->Below(lines[i].size() + 1));
        break;
    }
    return JoinLines(lines);
}

TEST(ProtoSpec, MutatedExampleSpecsRejectCleanlyOrLower)
{
    Rng rng(0x5bec);
    for (const char *name : {"kv_union.spec", "sensor_tlv.spec"}) {
        std::ifstream in(std::string(ACHILLES_SOURCE_DIR) + "/examples/" +
                         name);
        std::ostringstream text;
        text << in.rdbuf();
        ASSERT_FALSE(text.str().empty()) << name;

        int accepted = 0;
        int rejected = 0;
        for (int m = 0; m < 2000; ++m) {
            const std::string mutant = Mutate(text.str(), &rng);
            ProtocolSpec s;
            SpecError err;
            if (ParseSpec(mutant, name, &s, &err)) {
                ++accepted;
                // A validated spec must lower without tripping a check.
                EXPECT_EQ(BuildProtocol(s).layout.length(), s.length);
                continue;
            }
            ++rejected;
            EXPECT_FALSE(err.message.empty()) << mutant;
            EXPECT_GE(err.line, 0) << mutant;
            EXPECT_LE(err.line,
                      static_cast<int>(SplitLines(mutant).size()))
                << err.Format(name) << "\n" << mutant;
        }
        // Both outcomes occur, so the mutants reach past the header
        // checks into validation and lowering.
        EXPECT_GT(accepted, 0) << name;
        EXPECT_GT(rejected, 0) << name;
    }
}

TEST(ProtoSpec, CompiledSpecFindsDeclaredTrojans)
{
    const auto witnesses = RunSpecText(kKvUnionSpec);

    // Exactly the two declared validation gaps: get's `ver == 0`
    // guarantee is never checked, and put's `val >= 1` guarantee is
    // never checked. del is fully validated and must stay clean.
    ASSERT_EQ(witnesses.size(), 2u);
    std::vector<std::string> labels;
    for (const auto &w : witnesses)
        labels.push_back(std::get<0>(w));
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(labels, (std::vector<std::string>{"get", "put"}));

    for (const auto &w : witnesses) {
        const std::vector<uint8_t> &msg = std::get<1>(w);
        ASSERT_EQ(msg.size(), 6u);
        if (std::get<0>(w) == "get") {
            EXPECT_EQ(msg[0], 1u);
            EXPECT_NE(msg[5], 0u) << "get Trojan must violate ver == 0";
        } else {
            EXPECT_EQ(msg[0], 2u);
            EXPECT_EQ(msg[3] | (msg[4] << 8), 0)
                << "put Trojan must violate val >= 1";
        }
    }
}

TEST(ProtoSpec, CompiledSpecIsWorkerCountInvariant)
{
    const auto baseline = RunSpecText(kKvUnionSpec, 1);
    ASSERT_FALSE(baseline.empty());
    for (size_t workers : {2u, 4u, 8u})
        EXPECT_EQ(baseline, RunSpecText(kKvUnionSpec, workers))
            << workers << " workers";
}

TEST(ProtoSpec, RegisterSpecFileReportsMissingFile)
{
    proto::ProtocolRegistry local;
    std::string name, error;
    EXPECT_FALSE(RegisterSpecFile("/nonexistent/path/x.spec", &local,
                                  &name, &error));
    EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace spec
}  // namespace achilles
