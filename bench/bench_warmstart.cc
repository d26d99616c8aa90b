// Achilles reproduction -- warm-start knowledge persistence bench.
//
// Measures what a prior run's query-cache snapshot (src/persist) is
// worth to the next run: cold vs warm wall-clock and worker-solver
// query counts on FSP, the guarded synthetic protocol, and a stratified
// slice of the seeded corpus. Only multi-worker runs have a shared
// query cache, so snapshots are captured from cold runs at 4 workers
// (the corpus slice: 2) and compared at 2/4/8 workers (the slice: 2).
//
// Solver work is the worker solvers' `solver.queries`, summed in the
// server stats: a cache hit never reaches a solver. Explorer queries
// are not the measure: warm and cold runs issue the same explorer
// queries, and only who answers them differs.
//
// Self-gates (hard, exit nonzero on failure):
//   1. Witness identity: warm runs produce bitwise-identical witness
//      sets to cold runs in every cell (restored entries only ever
//      answer queries whose answers they already are).
//   2. Query reduction: the warm run's solvers answer strictly fewer
//      queries than the cold run's on FSP at every worker count, and
//      never more on the guarded protocol or on any corpus protocol.
//   3. Degradation: truncated, bit-flipped, version-mismatched and
//      fingerprint-mismatched snapshots all fail the load cleanly and
//      the subsequent run is an ordinary cold start -- same witnesses,
//      no crash.
//
// Emitted metrics (the unsuffixed ones are watched by
// scripts/check_bench_trend.py):
//   warmstart.speedup                     FSP cold s / warm s, 4 workers
//   warmstart.query_reduction_pct         FSP 100*(1 - warm/cold)
//                                         worker-solver queries, 4
//                                         workers
//   warmstart.corpus_query_reduction_pct  the same over the corpus
//                                         slice, 2 workers
//   warmstart.speedup/<tag>/workers=N, warmstart.query_reduction_pct/
//   <tag>/workers=N                       every cell
//
// Flags: --json PATH          machine-readable metrics (bench_util.h)
//        --snapshot-out PATH  where to write the FSP sample snapshot
//                             (default warmstart_sample.snap; uploaded
//                             as a CI artifact)
//        --limit N            corpus slice size (default 6, 0 = skip)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/achilles.h"
#include "persist/fingerprint.h"
#include "persist/snapshot.h"
#include "proto/registry.h"
#include "proto/synth/synth_family.h"

using namespace achilles;

namespace {

struct RunOutcome
{
    size_t trojans = 0;
    /** Queries the worker solvers answered (0 in serial runs). */
    int64_t queries = 0;
    double seconds = 0.0;
    /** FNV-1a over the sorted per-witness digests (identity gate). */
    uint64_t witness_digest = 1469598103934665603ull;
};

void
DigestBytes(uint64_t *h, const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        *h ^= p[i];
        *h *= 1099511628211ull;
    }
}

/** One full pipeline run, optionally warm-started and/or captured. */
RunOutcome
RunOne(const proto::ProtocolBundle &bundle, size_t workers,
       const persist::KnowledgeSnapshot *knowledge_in,
       persist::KnowledgeSnapshot *knowledge_out)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    core::AchillesConfig config;
    config.layout = bundle.layout;
    const auto clients = bundle.ClientPtrs();
    config.clients = clients;
    config.server = &bundle.server;
    config.server_config.engine.num_workers = workers;
    config.server_config.knowledge_in = knowledge_in;
    config.server_config.knowledge_out = knowledge_out;

    const auto start = std::chrono::steady_clock::now();
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);
    RunOutcome out;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    out.trojans = result.server.trojans.size();
    out.queries = result.server.stats.Get("solver.queries");
    std::vector<uint64_t> per_witness;
    per_witness.reserve(result.server.trojans.size());
    for (const core::TrojanWitness &t : result.server.trojans) {
        uint64_t h = 1469598103934665603ull;
        DigestBytes(&h, &t.server_path_id, sizeof(t.server_path_id));
        DigestBytes(&h, t.accept_label.data(), t.accept_label.size());
        DigestBytes(&h, t.concrete.data(), t.concrete.size());
        const uint64_t def_size = t.definition.size();
        DigestBytes(&h, &def_size, sizeof(def_size));
        DigestBytes(&h, t.message_vars.data(),
                    t.message_vars.size() * sizeof(uint32_t));
        per_witness.push_back(h);
    }
    std::sort(per_witness.begin(), per_witness.end());
    for (uint64_t h : per_witness)
        DigestBytes(&out.witness_digest, &h, sizeof(h));
    return out;
}

proto::ProtocolBundle
MakeGuardedBundle()
{
    proto::ProtocolBundle bundle;
    bundle.info.name = "guarded[k=2,r=8]";
    bundle.info.family = "synthetic";
    bundle.layout = synth::MakeGuardedLayout();
    bundle.server = synth::MakeGuardedServer(2, 8);
    bundle.clients.push_back(synth::MakeGuardedClient(2));
    return bundle;
}

bool
WriteBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    const size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    return std::fclose(f) == 0 && n == bytes.size();
}

std::vector<uint8_t>
ReadBytes(const std::string &path)
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

}  // namespace

int
main(int argc, char **argv)
{
    bench::ParseBenchArgs(argc, argv);
    std::string snapshot_out = "warmstart_sample.snap";
    size_t corpus_limit = 6;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--snapshot-out") == 0 && i + 1 < argc)
            snapshot_out = argv[++i];
        else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc)
            corpus_limit = static_cast<size_t>(std::atoi(argv[++i]));
    }

    bench::Header("Warm-start knowledge persistence (cold vs warm runs)");
    bench::Note("snapshot = the shared query cache of a 4-worker run; "
                "restored entries only answer queries they already "
                "answer");

    const size_t kCaptureWorkers = 4;
    const size_t worker_counts[] = {2, 4, 8};
    bool witnesses_identical = true;
    bool never_more_queries = true;
    bool fsp_strictly_fewer = true;

    struct Scenario
    {
        const char *tag;
        proto::ProtocolBundle bundle;
    };
    std::vector<Scenario> scenarios;
    {
        const auto factory =
            proto::ProtocolRegistry::Global().Find("fsp");
        if (factory == nullptr) {
            std::fprintf(stderr, "bench_warmstart: no fsp protocol\n");
            return 1;
        }
        scenarios.push_back({"fsp", factory->Make()});
    }
    scenarios.push_back({"guarded", MakeGuardedBundle()});

    double fsp_speedup = 1.0;
    double fsp_reduction = 0.0;

    for (const Scenario &scenario : scenarios) {
        bench::Section(std::string(scenario.tag) +
                       ": cold vs warm at 2/4/8 workers");
        const uint64_t fp = persist::ProtocolFingerprint(scenario.bundle);
        const bool is_fsp = std::strcmp(scenario.tag, "fsp") == 0;

        // The snapshot under test comes from a cold 4-worker run,
        // through an actual save/load round trip on disk (the FSP one
        // is kept as the CI sample artifact).
        persist::KnowledgeSnapshot captured;
        captured.protocol_fingerprint = fp;
        RunOne(scenario.bundle, kCaptureWorkers, nullptr, &captured);
        const std::string snap_path =
            is_fsp ? snapshot_out : snapshot_out + "." + scenario.tag;
        std::string error;
        if (!persist::SaveSnapshot(captured, snap_path, &error)) {
            std::fprintf(stderr, "bench_warmstart: save failed: %s\n",
                         error.c_str());
            return 1;
        }
        persist::KnowledgeSnapshot warm;
        if (!persist::LoadSnapshot(snap_path, fp, &warm, &error)) {
            std::fprintf(stderr, "bench_warmstart: load failed: %s\n",
                         error.c_str());
            return 1;
        }
        std::printf("  snapshot: %zu query-cache entries\n",
                    warm.TotalEntries());

        std::printf("  %-9s %10s %10s %10s %10s %8s\n", "workers",
                    "cold(s)", "warm(s)", "cold(q)", "warm(q)",
                    "witness");
        for (size_t w : worker_counts) {
            const RunOutcome cold = RunOne(scenario.bundle, w, nullptr,
                                           nullptr);
            const RunOutcome hot = RunOne(scenario.bundle, w, &warm,
                                          nullptr);
            const bool same = cold.witness_digest == hot.witness_digest &&
                              cold.trojans == hot.trojans;
            witnesses_identical = witnesses_identical && same;
            never_more_queries =
                never_more_queries && hot.queries <= cold.queries;
            if (is_fsp) {
                fsp_strictly_fewer =
                    fsp_strictly_fewer && hot.queries < cold.queries;
            }
            std::printf("  %-9zu %10.3f %10.3f %10lld %10lld %8s\n", w,
                        cold.seconds, hot.seconds,
                        static_cast<long long>(cold.queries),
                        static_cast<long long>(hot.queries),
                        same ? "same" : "DIFF");
            const std::string suffix = std::string("/") + scenario.tag +
                                       "/workers=" + std::to_string(w);
            const double speedup =
                hot.seconds > 0 ? cold.seconds / hot.seconds : 1.0;
            const double reduction =
                cold.queries > 0
                    ? 100.0 * (1.0 - static_cast<double>(hot.queries) /
                                         static_cast<double>(cold.queries))
                    : 0.0;
            bench::Metric("warmstart.speedup" + suffix, speedup, "x");
            bench::Metric("warmstart.query_reduction_pct" + suffix,
                          reduction, "%");
            if (w == kCaptureWorkers && is_fsp) {
                fsp_speedup = speedup;
                fsp_reduction = reduction;
            }
        }
    }

    // ------------------------------------------------------------------
    // Degradation gates: every damaged snapshot must fail the load and
    // leave the run an ordinary cold start. The runs are serial, where
    // the stream is deterministic (and worker-solver counts are 0).
    // ------------------------------------------------------------------
    bench::Section("corrupted/mismatched snapshots degrade to cold start");
    bool degrade_ok = true;
    {
        const Scenario &fsp = scenarios[0];
        const uint64_t fp = persist::ProtocolFingerprint(fsp.bundle);
        const RunOutcome cold = RunOne(fsp.bundle, 1, nullptr, nullptr);
        const std::vector<uint8_t> good = ReadBytes(snapshot_out);
        if (good.size() < 32) {
            std::fprintf(stderr, "bench_warmstart: sample too small\n");
            return 1;
        }

        struct Damage
        {
            const char *what;
            std::vector<uint8_t> bytes;
            uint64_t expected_fp;
        };
        std::vector<Damage> damages;
        damages.push_back(
            {"truncated",
             std::vector<uint8_t>(good.begin(),
                                  good.begin() + good.size() / 2),
             fp});
        {
            std::vector<uint8_t> flipped = good;
            flipped[flipped.size() - 5] ^= 0x40;  // payload bit flip
            damages.push_back({"bit-flipped", std::move(flipped), fp});
        }
        {
            std::vector<uint8_t> versioned = good;
            versioned[8] ^= 0xFF;  // format version field
            damages.push_back(
                {"version-mismatched", std::move(versioned), fp});
        }
        damages.push_back({"fingerprint-mismatched", good, fp ^ 1});

        for (const Damage &damage : damages) {
            const std::string path =
                snapshot_out + ".damaged." + damage.what;
            if (!WriteBytes(path, damage.bytes)) {
                std::fprintf(stderr, "bench_warmstart: cannot write %s\n",
                             path.c_str());
                return 1;
            }
            persist::KnowledgeSnapshot snap;
            std::string error;
            const bool loaded = persist::LoadSnapshot(
                path, damage.expected_fp, &snap, &error);
            // Must reject, must leave the snapshot empty, and a run
            // "warmed" with the empty result must match cold bitwise.
            const RunOutcome after =
                RunOne(fsp.bundle, 1, &snap, nullptr);
            const bool ok = !loaded && snap.Empty() &&
                            after.witness_digest == cold.witness_digest &&
                            after.queries == cold.queries;
            degrade_ok = degrade_ok && ok;
            std::printf("  %-24s load=%-8s -> %s (%s)\n", damage.what,
                        loaded ? "ACCEPTED" : "rejected",
                        ok ? "clean cold start" : "GATE FAILED",
                        error.c_str());
            std::remove(path.c_str());
        }
    }

    // ------------------------------------------------------------------
    // Stratified corpus slice, captured and warmed at 2 workers: same
    // gates, minus strict reduction (some tiny cells have nothing left
    // to skip).
    // ------------------------------------------------------------------
    bool corpus_ok = true;
    if (corpus_limit > 0) {
        const size_t kCorpusWorkers = 2;
        bench::Section("stratified corpus slice (workers=2)");
        std::vector<std::string> names;
        for (const std::string &name :
             proto::ProtocolRegistry::Global().Names()) {
            if (name.rfind("synth/", 0) == 0)
                names.push_back(name);
        }
        if (names.size() > corpus_limit) {
            std::vector<std::string> strided;
            const size_t step = names.size() / corpus_limit;
            for (size_t i = 0;
                 i < names.size() && strided.size() < corpus_limit;
                 i += step)
                strided.push_back(names[i]);
            names = std::move(strided);
        }
        double cold_total = 0.0, warm_total = 0.0;
        int64_t cold_queries = 0, warm_queries = 0;
        for (const std::string &name : names) {
            const proto::ProtocolBundle bundle =
                proto::ProtocolRegistry::Global().Find(name)->Make();
            persist::KnowledgeSnapshot snap;
            snap.protocol_fingerprint =
                persist::ProtocolFingerprint(bundle);
            const RunOutcome cold =
                RunOne(bundle, kCorpusWorkers, nullptr, &snap);
            const RunOutcome hot =
                RunOne(bundle, kCorpusWorkers, &snap, nullptr);
            const bool same =
                cold.witness_digest == hot.witness_digest &&
                hot.queries <= cold.queries;
            corpus_ok = corpus_ok && same;
            cold_total += cold.seconds;
            warm_total += hot.seconds;
            cold_queries += cold.queries;
            warm_queries += hot.queries;
            std::printf("  %-32s cold %6lld q, warm %6lld q, %s\n",
                        name.c_str(),
                        static_cast<long long>(cold.queries),
                        static_cast<long long>(hot.queries),
                        same ? "same witnesses" : "GATE FAILED");
        }
        bench::Metric("warmstart.corpus_speedup",
                      warm_total > 0 ? cold_total / warm_total : 1.0,
                      "x");
        bench::Metric(
            "warmstart.corpus_query_reduction_pct",
            cold_queries > 0
                ? 100.0 * (1.0 - static_cast<double>(warm_queries) /
                                     static_cast<double>(cold_queries))
                : 0.0,
            "%");
    }

    bench::Section("gates");
    bench::Metric("warmstart.speedup", fsp_speedup, "x");
    bench::Metric("warmstart.query_reduction_pct", fsp_reduction, "%");
    bench::Metric("warmstart.witness_sets_identical",
                  witnesses_identical ? 1 : 0);
    bench::Metric("warmstart.never_more_queries",
                  never_more_queries ? 1 : 0);
    bench::Metric("warmstart.fsp_strictly_fewer",
                  fsp_strictly_fewer ? 1 : 0);
    bench::Metric("warmstart.degradation_clean", degrade_ok ? 1 : 0);
    bench::Metric("warmstart.corpus_identical", corpus_ok ? 1 : 0);

    const bool ok = witnesses_identical && never_more_queries &&
                    fsp_strictly_fewer && degrade_ok && corpus_ok;
    if (!ok)
        std::printf("\nGATE FAILURE: see rows marked DIFF/GATE FAILED\n");
    else
        std::printf("\nall gates passed; sample snapshot at %s\n",
                    snapshot_out.c_str());
    bench::JsonRecorder::Instance().Flush();
    return ok ? 0 : 1;
}
