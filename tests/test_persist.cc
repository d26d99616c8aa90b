// Achilles reproduction -- tests.
//
// Warm-start knowledge persistence (src/persist): snapshot save/load
// identity, the verification-on-load discipline (every truncation,
// every single-bit flip, seeded multi-byte mutations, retired section
// tags, version and protocol-fingerprint mismatches each degrade to a
// clean cold start), key recomputation on import, and the end-to-end
// contract -- warm multi-worker runs produce bitwise-identical witness
// sets to cold runs at 2/4/8 workers while sending no more queries to
// the worker solvers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "core/path_predicate.h"
#include "exec/query_cache.h"
#include "persist/fingerprint.h"
#include "persist/snapshot.h"
#include "proto/registry.h"
#include "proto/synth/synth_family.h"
#include "support/rng.h"

namespace achilles {
namespace {

using persist::KnowledgeSnapshot;

std::string
TempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t>
ReadFile(const std::string &path)
{
    std::vector<uint8_t> out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return out;
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.insert(out.end(), chunk, chunk + n);
    std::fclose(f);
    return out;
}

bool
WriteFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    // fwrite's buffer must be non-null even for zero bytes, and an
    // empty vector's data() may be null.
    const size_t n = bytes.empty()
                         ? 0
                         : std::fwrite(bytes.data(), 1, bytes.size(), f);
    return std::fclose(f) == 0 && n == bytes.size();
}

/** Write `bytes` to a scratch file and load it as a snapshot of the
 *  sample's protocol; `*error` is cleared first, so a rejection must
 *  set it. */
bool
LoadBytes(const std::vector<uint8_t> &bytes, KnowledgeSnapshot *out,
          std::string *error)
{
    const std::string path = TempPath("load_bytes.snap");
    EXPECT_TRUE(WriteFile(path, bytes));
    error->clear();
    const bool loaded = persist::LoadSnapshot(path, 0xfeedface, out, error);
    std::remove(path.c_str());
    return loaded;
}

/** Query entries with and without models, in unsorted order and with a
 *  model-less duplicate, to prove canonicalization. */
KnowledgeSnapshot
SampleSnapshot()
{
    KnowledgeSnapshot snap;
    snap.protocol_fingerprint = 0xfeedface;
    exec::QueryCache::ExportedEntry q;
    q.fingerprints = {{11, 11}, {12, 12}};
    q.status = smt::CheckStatus::kSat;
    q.has_model = true;
    q.model_values = {{1, 0x41}, {2, 0x5a}};
    exec::QueryCache::ExportedEntry bare = q;  // same query, no model
    bare.has_model = false;
    bare.model_values.clear();
    snap.queries.push_back(bare);
    snap.queries.push_back(q);
    exec::QueryCache::ExportedEntry u;
    u.fingerprints = {{13, 13}};
    u.status = smt::CheckStatus::kUnsat;
    snap.queries.push_back(u);
    exec::QueryCache::ExportedEntry s;
    s.fingerprints = {{3, 4}, {5, 6}, {7, 8}};
    s.status = smt::CheckStatus::kSat;
    snap.queries.push_back(s);
    return snap;
}

/** The sample snapshot's bytes, through a real save. */
std::vector<uint8_t>
SampleBytes()
{
    const std::string path = TempPath("sample.snap");
    std::string error;
    EXPECT_TRUE(persist::SaveSnapshot(SampleSnapshot(), path, &error))
        << error;
    std::vector<uint8_t> bytes = ReadFile(path);
    std::remove(path.c_str());
    return bytes;
}

// ------------------------------------------------------- file format

TEST(PersistTest, SaveLoadRoundTripIsIdentity)
{
    const KnowledgeSnapshot snap = SampleSnapshot();
    const std::string p1 = TempPath("roundtrip1.snap");
    const std::string p2 = TempPath("roundtrip2.snap");
    std::string error;
    ASSERT_TRUE(persist::SaveSnapshot(snap, p1, &error)) << error;

    KnowledgeSnapshot loaded;
    ASSERT_TRUE(persist::LoadSnapshot(p1, snap.protocol_fingerprint,
                                      &loaded, &error))
        << error;
    EXPECT_EQ(loaded.protocol_fingerprint, snap.protocol_fingerprint);
    // Canonicalization sorted the entries and kept the model-carrying
    // copy of the duplicated query.
    ASSERT_EQ(loaded.queries.size(), 3u);
    EXPECT_EQ(loaded.queries[0].fingerprints,
              (exec::QueryFingerprints{{3, 4}, {5, 6}, {7, 8}}));
    EXPECT_FALSE(loaded.queries[0].has_model);
    EXPECT_TRUE(loaded.queries[1].has_model);
    EXPECT_EQ(loaded.queries[1].model_values,
              (std::vector<std::pair<uint32_t, uint64_t>>{{1, 0x41},
                                                          {2, 0x5a}}));
    EXPECT_EQ(loaded.queries[2].status, smt::CheckStatus::kUnsat);

    // Deterministic bytes: re-saving the loaded snapshot reproduces the
    // file bit for bit.
    ASSERT_TRUE(persist::SaveSnapshot(loaded, p2, &error)) << error;
    EXPECT_EQ(ReadFile(p1), ReadFile(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(PersistTest, TruncatedFileIsRejected)
{
    const std::vector<uint8_t> bytes = SampleBytes();
    ASSERT_GT(bytes.size(), 40u);  // header + section header + payload
    // Every truncation point must fail, not just a convenient one.
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
        KnowledgeSnapshot out;
        out.queries.push_back({});  // must be cleared on failure
        std::string error;
        EXPECT_FALSE(LoadBytes(
            std::vector<uint8_t>(bytes.begin(), bytes.begin() + keep),
            &out, &error))
            << "accepted a file truncated to " << keep << " bytes";
        EXPECT_FALSE(error.empty()) << keep;
        EXPECT_TRUE(out.Empty()) << keep;
    }
}

TEST(PersistTest, EverySingleBitFlipIsRejected)
{
    // With one section type, the header checks (magic, version,
    // fingerprint, section count), the section tag and size framing,
    // and the payload CRC-32 between them cover every bit of the file.
    const std::vector<uint8_t> bytes = SampleBytes();
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> flipped = bytes;
            flipped[pos] ^= static_cast<uint8_t>(1u << bit);
            KnowledgeSnapshot out;
            std::string error;
            EXPECT_FALSE(LoadBytes(flipped, &out, &error))
                << "accepted a flip of bit " << bit << " at byte " << pos;
            EXPECT_FALSE(error.empty()) << pos << ":" << bit;
            EXPECT_TRUE(out.Empty()) << pos << ":" << bit;
        }
    }
}

TEST(PersistTest, SeededMutationsRejectCleanly)
{
    // Random multi-byte damage: overwrites, insertions and deletions.
    // None may crash the loader (the sanitizer labels run this suite);
    // a rejection must name its defect and leave `out` empty.
    const std::vector<uint8_t> bytes = SampleBytes();
    Rng rng(0x5eed);
    int rejected = 0;
    for (int m = 0; m < 1000; ++m) {
        std::vector<uint8_t> mutant = bytes;
        const size_t edits = 1 + rng.Below(4);
        for (size_t e = 0; e < edits; ++e) {
            const size_t pos = rng.Below(mutant.size() + 1);
            const size_t len = 1 + rng.Below(8);
            switch (rng.Below(3)) {
              case 0:  // overwrite
                for (size_t k = pos; k < pos + len && k < mutant.size();
                     ++k)
                    mutant[k] = static_cast<uint8_t>(rng.Below(256));
                break;
              case 1:  // insertion
                for (size_t k = 0; k < len; ++k) {
                    mutant.insert(mutant.begin() + pos,
                                  static_cast<uint8_t>(rng.Below(256)));
                }
                break;
              default:  // deletion
                mutant.erase(mutant.begin() + pos,
                             mutant.begin() +
                                 std::min(pos + len, mutant.size()));
                break;
            }
        }
        KnowledgeSnapshot out;
        std::string error;
        if (LoadBytes(mutant, &out, &error))
            continue;
        ++rejected;
        EXPECT_FALSE(error.empty()) << "mutant " << m;
        EXPECT_TRUE(out.Empty()) << "mutant " << m;
    }
    EXPECT_GT(rejected, 900);
}

TEST(PersistTest, VersionAndFingerprintMismatchesFallBackToCold)
{
    const std::string path = TempPath("mismatch.snap");
    std::string error;
    ASSERT_TRUE(persist::SaveSnapshot(SampleSnapshot(), path, &error));

    // Wrong expected fingerprint: a snapshot of a different protocol.
    KnowledgeSnapshot out;
    EXPECT_FALSE(
        persist::LoadSnapshot(path, 0xfeedface ^ 1, &out, &error));
    EXPECT_TRUE(out.Empty());

    // Wrong format version byte.
    std::vector<uint8_t> bytes = ReadFile(path);
    bytes[8] ^= 0xFF;
    ASSERT_TRUE(WriteFile(path, bytes));
    EXPECT_FALSE(persist::LoadSnapshot(path, 0xfeedface, &out, &error));
    EXPECT_TRUE(out.Empty());

    // Wrong magic.
    bytes[8] ^= 0xFF;
    bytes[0] = 'X';
    ASSERT_TRUE(WriteFile(path, bytes));
    EXPECT_FALSE(persist::LoadSnapshot(path, 0xfeedface, &out, &error));
    EXPECT_TRUE(out.Empty());

    // Missing file.
    EXPECT_FALSE(persist::LoadSnapshot(TempPath("nonexistent.snap"),
                                       0xfeedface, &out, &error));
    std::remove(path.c_str());
}

TEST(PersistTest, RetiredSectionTagsAreRejected)
{
    // Tags 1-3 held version 2's pruning-index cores, overlay and query
    // cores; tag 4 version 1's lemma pool. A current-version file that
    // carries one -- well framed, correct CRC -- is still refused whole.
    for (uint32_t tag = 1; tag <= 4; ++tag) {
        std::vector<uint8_t> bytes = {'A', 'C', 'H', 'S',
                                      'N', 'A', 'P', '\0'};
        const auto put = [&bytes](uint64_t v, int width) {
            for (int i = 0; i < width; ++i)
                bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
        };
        const std::vector<uint8_t> payload(8, 0);  // an empty vector
        put(persist::kSnapshotFormatVersion, 4);
        put(0xfeedface, 8);
        put(1, 4);  // section count
        put(tag, 4);
        put(payload.size(), 8);
        put(persist::Crc32(payload.data(), payload.size()), 4);
        bytes.insert(bytes.end(), payload.begin(), payload.end());

        KnowledgeSnapshot out;
        std::string error;
        EXPECT_FALSE(LoadBytes(bytes, &out, &error));
        EXPECT_NE(error.find("unknown or duplicate section tag " +
                             std::to_string(tag)),
                  std::string::npos)
            << error;
        EXPECT_TRUE(out.Empty());
    }
}

// ------------------------------------------------------- store import

TEST(PersistTest, QueryCacheImportRecomputesKeysAndServesHits)
{
    exec::QueryCache source;
    exec::QueryFingerprints fps{{11, 11}, {12, 12}};
    smt::Model model;
    model.Set(3, 0x41);
    source.Insert(exec::QueryCache::KeyFromFingerprints(fps), fps,
                  smt::CheckStatus::kSat, true, model);

    std::vector<exec::QueryCache::ExportedEntry> exported;
    source.Export(&exported);
    ASSERT_EQ(exported.size(), 1u);
    EXPECT_TRUE(exported[0].has_model);

    exec::QueryCache restored;
    EXPECT_EQ(restored.Import(exported), 1u);
    smt::CheckStatus status = smt::CheckStatus::kUnknown;
    smt::Model out_model;
    EXPECT_TRUE(restored.Lookup(
        exec::QueryCache::KeyFromFingerprints(fps), fps,
        /*want_model=*/true, &status, &out_model));
    EXPECT_EQ(status, smt::CheckStatus::kSat);
    EXPECT_EQ(out_model.values().at(3), 0x41u);

    // Defensive-import rules: kUnknown and unsorted vectors are skipped.
    std::vector<exec::QueryCache::ExportedEntry> bad(2);
    bad[0].fingerprints = {{1, 1}};
    bad[0].status = smt::CheckStatus::kUnknown;
    bad[1].fingerprints = {{2, 2}, {1, 1}};  // unsorted
    bad[1].status = smt::CheckStatus::kSat;
    EXPECT_EQ(restored.Import(bad), 0u);
}

TEST(PersistTest, KeyFromFingerprintsMatchesComputeKey)
{
    // The cross-run import path recomputes cache keys from fingerprint
    // vectors; it must agree bit-for-bit with the key the run itself
    // computes from the expressions.
    smt::ExprContext ctx;
    const smt::ExprRef x = ctx.FreshVar("x", 8);
    const smt::ExprRef y = ctx.FreshVar("y", 8);
    const std::vector<smt::ExprRef> assertions{
        ctx.MakeEq(x, ctx.MakeConst(8, 7)),
        ctx.MakeUlt(y, ctx.MakeConst(8, 9)),
        ctx.MakeEq(x, ctx.MakeConst(8, 7)),  // duplicate assertion
    };
    exec::QueryCacheKey key;
    exec::QueryFingerprints fps;
    ASSERT_TRUE(exec::QueryCache::ComputeKey(assertions, 0xffffffffu,
                                             &key, &fps));
    EXPECT_TRUE(std::is_sorted(fps.begin(), fps.end()));
    const exec::QueryCacheKey recomputed =
        exec::QueryCache::KeyFromFingerprints(fps);
    EXPECT_EQ(recomputed, key);
}

TEST(PersistTest, ProtocolFingerprintSeesStructuralEdits)
{
    const auto factory = proto::ProtocolRegistry::Global().Find("fsp");
    ASSERT_NE(factory, nullptr);
    const proto::ProtocolBundle a = factory->Make();
    const proto::ProtocolBundle b = factory->Make();
    // Deterministic across materializations of the same protocol.
    EXPECT_EQ(persist::ProtocolFingerprint(a),
              persist::ProtocolFingerprint(b));

    // Any structural edit changes it: fewer clients, a renamed field,
    // a different layout length.
    proto::ProtocolBundle fewer = factory->Make();
    ASSERT_GE(fewer.clients.size(), 2u);
    fewer.clients.resize(1);
    EXPECT_NE(persist::ProtocolFingerprint(a),
              persist::ProtocolFingerprint(fewer));
    proto::ProtocolBundle masked = factory->Make();
    ASSERT_FALSE(masked.layout.fields().empty());
    masked.layout.Mask(masked.layout.fields()[0].name);
    EXPECT_NE(persist::ProtocolFingerprint(a),
              persist::ProtocolFingerprint(masked));
}

// ------------------------------------------------------- end to end

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct PipelineRun
{
    std::vector<WitnessSummary> witnesses;
    /** Queries the worker solvers answered (cache hits never reach a
     *  solver). */
    int64_t solver_queries = 0;
    /** Queries the explorer issued, whoever answered them. */
    int64_t match_queries = 0;
    int64_t trojan_queries = 0;
};

PipelineRun
RunPipeline(const proto::ProtocolBundle &bundle, size_t workers,
            const KnowledgeSnapshot *in, KnowledgeSnapshot *out)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    core::AchillesConfig config;
    config.layout = bundle.layout;
    const auto clients = bundle.ClientPtrs();
    config.clients = clients;
    config.server = &bundle.server;
    config.server_config.engine.num_workers = workers;
    config.server_config.knowledge_in = in;
    config.server_config.knowledge_out = out;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PipelineRun run;
    run.solver_queries = result.server.stats.Get("solver.queries");
    run.match_queries = result.server.stats.Get("explorer.match_queries");
    run.trojan_queries = result.server.stats.Get("explorer.trojan_queries");
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        run.witnesses.emplace_back(t.accept_label, t.concrete,
                                   hasher.HashExprs(t.definition));
    }
    std::sort(run.witnesses.begin(), run.witnesses.end());
    return run;
}

TEST(PersistPipelineTest, WarmRunsMatchColdAtEveryWorkerCount)
{
    // The acceptance contract: a snapshot of a cold 4-worker run's
    // query cache, pushed through an actual disk round trip,
    // warm-starts runs at 2/4/8 workers with bitwise-identical witness
    // sets. The explorer's queries are a function of the protocol
    // alone, so a warm run issues the cold run's queries and the
    // snapshot answers every one of them: no worker solver is asked
    // anything. A serial run has no shared cache to capture.
    proto::ProtocolBundle bundle;
    bundle.info.name = "guarded-test";
    bundle.layout = synth::MakeGuardedLayout();
    bundle.server = synth::MakeGuardedServer(2, 6);
    const symexec::Program client = synth::MakeGuardedClient(2);
    bundle.clients.push_back(client);
    const uint64_t fp = persist::ProtocolFingerprint(bundle);

    KnowledgeSnapshot serial_capture;
    const PipelineRun cold_serial =
        RunPipeline(bundle, 1, nullptr, &serial_capture);
    EXPECT_TRUE(serial_capture.Empty());

    KnowledgeSnapshot captured;
    captured.protocol_fingerprint = fp;
    RunPipeline(bundle, 4, nullptr, &captured);
    EXPECT_FALSE(captured.Empty());

    const std::string path = TempPath("warm_e2e.snap");
    std::string error;
    ASSERT_TRUE(persist::SaveSnapshot(captured, path, &error)) << error;
    KnowledgeSnapshot warm;
    ASSERT_TRUE(persist::LoadSnapshot(path, fp, &warm, &error)) << error;
    std::remove(path.c_str());

    for (size_t workers : {2, 4, 8}) {
        const PipelineRun cold =
            RunPipeline(bundle, workers, nullptr, nullptr);
        const PipelineRun hot =
            RunPipeline(bundle, workers, &warm, nullptr);
        EXPECT_EQ(hot.witnesses, cold.witnesses)
            << "warm run diverged at " << workers << " workers";
        EXPECT_EQ(hot.witnesses, cold_serial.witnesses);
        EXPECT_GT(cold.solver_queries, 0) << workers << " workers";
        EXPECT_EQ(hot.solver_queries, 0)
            << "the snapshot must answer every query at " << workers
            << " workers";
        EXPECT_EQ(hot.match_queries, cold.match_queries)
            << workers << " workers";
        EXPECT_EQ(hot.trojan_queries, cold.trojan_queries)
            << workers << " workers";
    }
}

}  // namespace
}  // namespace achilles
