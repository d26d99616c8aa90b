// Achilles reproduction -- tests.
//
// Warm-start knowledge persistence (src/persist): snapshot save/load
// identity on both knowledge stores, the verification-on-load
// discipline (truncation, CRC bit flips, unknown section tags, version
// and protocol-fingerprint mismatches each degrade to a clean cold
// start), key
// recomputation on import, and the end-to-end contract -- warm runs
// produce bitwise-identical witness sets to cold runs at 1/2/4/8
// workers while issuing no more queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "core/path_predicate.h"
#include "exec/prune_index.h"
#include "exec/query_cache.h"
#include "persist/fingerprint.h"
#include "persist/snapshot.h"
#include "proto/registry.h"
#include "proto/synth/synth_family.h"

namespace achilles {
namespace {

using exec::PruneFpVec;
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

/** A snapshot exercising every section, with deliberate duplicates and
 *  unsorted section order to prove canonicalization. */
KnowledgeSnapshot
SampleSnapshot()
{
    KnowledgeSnapshot snap;
    snap.protocol_fingerprint = 0xfeedface;
    snap.cores.push_back({{{5, 5}, {6, 6}}, {{9, 9}}, 0});
    snap.cores.push_back({{{1, 1}}, {{2, 2}}, 0});
    snap.cores.push_back({{{1, 1}}, {{2, 2}}, 0});  // duplicate
    snap.overlay.push_back({{{3, 3}}, {{4, 4}}, 777});
    snap.query_cores.push_back({{{1, 1}, {2, 2}}, {{1, 1}}});
    exec::QueryCache::ExportedEntry q;
    q.fingerprints = {{11, 11}, {12, 12}};
    q.status = smt::CheckStatus::kSat;
    q.has_model = true;
    q.model_values = {{1, 0x41}, {2, 0x5a}};
    snap.queries.push_back(q);
    exec::QueryCache::ExportedEntry u;
    u.fingerprints = {{13, 13}};
    u.status = smt::CheckStatus::kUnsat;
    snap.queries.push_back(u);
    return snap;
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
    // Canonicalization deduplicated the repeated core.
    EXPECT_EQ(loaded.cores.size(), 2u);
    EXPECT_EQ(loaded.overlay.size(), 1u);
    EXPECT_EQ(loaded.overlay[0].payload, 777u);
    EXPECT_EQ(loaded.query_cores.size(), 1u);
    EXPECT_EQ(loaded.queries.size(), 2u);

    // Deterministic bytes: re-saving the loaded snapshot reproduces the
    // file bit for bit.
    ASSERT_TRUE(persist::SaveSnapshot(loaded, p2, &error)) << error;
    EXPECT_EQ(ReadFile(p1), ReadFile(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(PersistTest, TruncatedFileIsRejected)
{
    const std::string good = TempPath("trunc_good.snap");
    const std::string bad = TempPath("trunc_bad.snap");
    std::string error;
    ASSERT_TRUE(persist::SaveSnapshot(SampleSnapshot(), good, &error));
    const std::vector<uint8_t> bytes = ReadFile(good);
    ASSERT_GT(bytes.size(), 16u);
    // Every truncation point must fail, not just a convenient one.
    for (const size_t keep :
         {bytes.size() - 1, bytes.size() / 2, size_t{10}, size_t{0}}) {
        ASSERT_TRUE(WriteFile(
            bad, std::vector<uint8_t>(bytes.begin(), bytes.begin() + keep)));
        KnowledgeSnapshot out;
        out.cores.push_back({});  // must be cleared on failure
        EXPECT_FALSE(persist::LoadSnapshot(bad, 0xfeedface, &out, &error))
            << "accepted a file truncated to " << keep << " bytes";
        EXPECT_TRUE(out.Empty());
    }
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(PersistTest, BitFlippedSectionIsRejectedByCrc)
{
    const std::string good = TempPath("flip_good.snap");
    const std::string bad = TempPath("flip_bad.snap");
    std::string error;
    ASSERT_TRUE(persist::SaveSnapshot(SampleSnapshot(), good, &error));
    const std::vector<uint8_t> bytes = ReadFile(good);
    // Flip one bit in every byte position past the header; each variant
    // must fail (CRC for payload bytes, header validation for section
    // framing). Position 24 is the first section header.
    for (size_t pos = 24; pos < bytes.size(); pos += 7) {
        std::vector<uint8_t> flipped = bytes;
        flipped[pos] ^= 0x10;
        ASSERT_TRUE(WriteFile(bad, flipped));
        KnowledgeSnapshot out;
        EXPECT_FALSE(persist::LoadSnapshot(bad, 0xfeedface, &out, &error))
            << "accepted a bit flip at byte " << pos;
        EXPECT_TRUE(out.Empty());
    }
    std::remove(good.c_str());
    std::remove(bad.c_str());
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

TEST(PersistTest, RetiredLemmaSectionIsRejected)
{
    // Tag 4 held version 1's lemma pool. A current-version file that
    // carries it -- well framed, correct CRC -- is still refused whole.
    std::vector<uint8_t> bytes = {'A', 'C', 'H', 'S', 'N', 'A', 'P', '\0'};
    const auto put = [&bytes](uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    const std::vector<uint8_t> payload(8, 0);  // an empty lemma vector
    put(persist::kSnapshotFormatVersion, 4);
    put(0xfeedface, 8);
    put(1, 4);  // section count
    put(4, 4);  // tag
    put(payload.size(), 8);
    put(persist::Crc32(payload.data(), payload.size()), 4);
    bytes.insert(bytes.end(), payload.begin(), payload.end());

    const std::string path = TempPath("lemma_section.snap");
    ASSERT_TRUE(WriteFile(path, bytes));
    KnowledgeSnapshot out;
    std::string error;
    EXPECT_FALSE(persist::LoadSnapshot(path, 0xfeedface, &out, &error));
    EXPECT_NE(error.find("unknown or duplicate section tag 4"),
              std::string::npos)
        << error;
    EXPECT_TRUE(out.Empty());
    std::remove(path.c_str());
}

// ------------------------------------------------------- store import

TEST(PersistTest, PruneIndexExportImportPreservesSubsumption)
{
    exec::PruneIndex source;
    source.RecordCore(0, PruneFpVec{{1, 1}, {2, 2}}, PruneFpVec{{9, 9}});
    source.RecordFieldCore(0, 777, PruneFpVec{{3, 3}},
                           PruneFpVec{{4, 4}});
    source.RecordQueryCore(PruneFpVec{{5, 5}, {6, 6}}, PruneFpVec{{5, 5}});

    KnowledgeSnapshot snap;
    persist::CaptureKnowledge(&source, nullptr, &snap);
    EXPECT_EQ(snap.cores.size(), 1u);
    EXPECT_EQ(snap.overlay.size(), 1u);
    EXPECT_EQ(snap.query_cores.size(), 1u);

    exec::PruneIndex restored;
    persist::RestoreKnowledge(snap, &restored, nullptr);
    EXPECT_EQ(restored.imported(), 3);
    EXPECT_TRUE(restored.SubsumesCore(1, PruneFpVec{{1, 1}, {2, 2}},
                                      PruneFpVec{{9, 9}}));
    // Imported entries attribute consumer hits as cross-worker.
    EXPECT_GT(restored.cross_worker_hits(), 0);
    uint64_t token = 0;
    EXPECT_TRUE(restored.OverlaySubsumes(1, PruneFpVec{{3, 3}},
                                         PruneFpVec{{4, 4}}, &token));
    EXPECT_EQ(token, 777u);
    PruneFpVec core;
    EXPECT_TRUE(
        restored.LookupQueryCore(PruneFpVec{{5, 5}, {6, 6}}, &core));
    EXPECT_EQ(core, (PruneFpVec{{5, 5}}));
}

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
    int64_t solver_queries = 0;
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
    config.knowledge_in = in;
    config.knowledge_out = out;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PipelineRun run;
    run.solver_queries =
        result.server.stats.Get("explorer.match_queries") +
        result.server.stats.Get("explorer.trojan_queries");
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
    // The acceptance contract: a snapshot captured from a cold serial
    // run, pushed through an actual disk round trip, warm-starts runs
    // at 1/2/4/8 workers with bitwise-identical witness sets and no
    // more queries than cold (strictly fewer in the deterministic
    // serial case).
    proto::ProtocolBundle bundle;
    bundle.info.name = "guarded-test";
    bundle.layout = synth::MakeGuardedLayout();
    bundle.server = synth::MakeGuardedServer(2, 6);
    const symexec::Program client = synth::MakeGuardedClient(2);
    bundle.clients.push_back(client);
    const uint64_t fp = persist::ProtocolFingerprint(bundle);

    KnowledgeSnapshot captured;
    captured.protocol_fingerprint = fp;
    const PipelineRun cold_serial =
        RunPipeline(bundle, 1, nullptr, &captured);
    EXPECT_FALSE(captured.Empty());

    const std::string path = TempPath("warm_e2e.snap");
    std::string error;
    ASSERT_TRUE(persist::SaveSnapshot(captured, path, &error)) << error;
    KnowledgeSnapshot warm;
    ASSERT_TRUE(persist::LoadSnapshot(path, fp, &warm, &error)) << error;
    std::remove(path.c_str());

    for (size_t workers : {1, 2, 4, 8}) {
        const PipelineRun cold =
            RunPipeline(bundle, workers, nullptr, nullptr);
        const PipelineRun hot =
            RunPipeline(bundle, workers, &warm, nullptr);
        EXPECT_EQ(hot.witnesses, cold.witnesses)
            << "warm run diverged at " << workers << " workers";
        EXPECT_EQ(hot.witnesses, cold_serial.witnesses);
        EXPECT_LE(hot.solver_queries, cold.solver_queries)
            << "restored knowledge can only skip queries";
        if (workers == 1) {
            EXPECT_LT(hot.solver_queries, cold.solver_queries)
                << "the serial warm run must actually skip something";
        }
    }
}

}  // namespace
}  // namespace achilles
