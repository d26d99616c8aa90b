// Achilles reproduction -- protocol-corpus sweep.
//
// Runs the full pipeline over the registry's seeded synthetic corpus
// (src/proto/synth/) plus any wire-format specs loaded with
// `--specs <dir>`, and reports per-family aggregates:
//
//   corpus.trojan_yield[/family]          Trojans found per protocol
//   corpus.queries_per_protocol[/family]  solver queries per protocol
//   corpus.protocols[/family]             protocols run
//   corpus.phase_pct.*                    pipeline phase breakdown
//
// The sampled families are built so yield moves with the knobs (rises
// with field coupling, falls with validation density); the bench
// self-gates on that ordering plus a nonzero overall yield, and the CI
// trend gate watches the emitted metrics across PRs.
//
// Flags: --limit N     cap on synth protocols (default 40, 0 = all)
//        --workers N   explorer worker count (default 1, at most 256)
//        --specs DIR   load every *.spec file in DIR and run those too
//        --json PATH   machine-readable metrics (bench_util.h)
//
// Both numbers are decimal integers. A malformed or out-of-range
// number, a flag missing its value, or an unknown argument prints the
// usage and exits with status 2 before any run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/achilles.h"
#include "proto/registry.h"
#include "proto/spec/lower.h"
#include "tools/flags.h"

using namespace achilles;

namespace {

void
Usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--limit N] [--workers N] [--specs <dir>] "
                 "[--json <path>]\n",
                 argv0);
}

struct RunResult
{
    size_t trojans = 0;
    int64_t queries = 0;
    core::PhaseTimings timings;
};

RunResult
RunOne(const proto::ProtocolBundle &bundle, size_t workers)
{
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

    RunResult out;
    out.trojans = result.server.trojans.size();
    out.queries = result.server.stats.Get("explorer.match_queries") +
                  result.server.stats.Get("explorer.trojan_queries");
    out.timings = result.timings;
    return out;
}

struct FamilyAgg
{
    size_t protocols = 0;
    size_t trojans = 0;
    int64_t queries = 0;
};

/** "/"-free metric key for a family ("synth/d1.f1.c0.v25" keeps its
 *  inner dots; only the leading "synth/" varies per cell). */
std::string
MetricSuffix(const std::string &family)
{
    return "/" + family;
}

}  // namespace

int
main(int argc, char **argv)
{
    size_t limit = 40;
    size_t workers = 1;
    std::string specs_dir;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 == argc &&
            flags::TakesValue(arg,
                              {"--limit", "--workers", "--specs", "--json"})) {
            return flags::MissingValue(argv[0], Usage, arg);
        }
        if (std::strcmp(arg, "--limit") == 0) {
            if (!flags::ParseCount(argv[++i], &limit, /*min=*/0)) {
                return flags::BadNumber(argv[0], Usage, arg,
                                        "an integer >= 0", argv[i]);
            }
        } else if (std::strcmp(arg, "--workers") == 0) {
            std::string want;
            if (!flags::ParseWorkers(argv[++i], &workers, &want))
                return flags::BadNumber(argv[0], Usage, arg, want, argv[i]);
        } else if (std::strcmp(arg, "--specs") == 0) {
            specs_dir = argv[++i];
        } else if (std::strcmp(arg, "--json") == 0) {
            ++i;  // bench::ParseBenchArgs opens it below
        } else {
            return flags::UnknownArgument(argv[0], Usage, arg);
        }
    }
    bench::ParseBenchArgs(argc, argv);

    bench::Header("Protocol corpus -- per-family Trojan yield over the "
                  "seeded synthetic families + wire-format specs");

    proto::ProtocolRegistry &registry = proto::ProtocolRegistry::Global();

    // Wire-format specs join the run (and the registry) at load time.
    std::vector<std::string> spec_names;
    if (!specs_dir.empty()) {
        std::vector<std::string> files;
        for (const auto &entry :
             std::filesystem::directory_iterator(specs_dir)) {
            if (entry.path().extension() == ".spec")
                files.push_back(entry.path().string());
        }
        std::sort(files.begin(), files.end());
        for (const std::string &file : files) {
            std::string name, error;
            if (!spec::RegisterSpecFile(file, &registry, &name, &error)) {
                std::fprintf(stderr, "bench_corpus: %s\n", error.c_str());
                return 1;
            }
            spec_names.push_back(name);
        }
    }

    // The run list: the synth corpus (name-sorted, so --limit slices a
    // deterministic prefix) plus every loaded spec.
    std::vector<std::string> names;
    for (const std::string &name : registry.Names()) {
        if (name.rfind("synth/", 0) == 0)
            names.push_back(name);
    }
    if (limit != 0 && names.size() > limit)
        names.resize(limit);
    names.insert(names.end(), spec_names.begin(), spec_names.end());
    if (names.empty()) {
        std::fprintf(stderr, "bench_corpus: nothing to run\n");
        return 1;
    }

    std::map<std::string, FamilyAgg> by_family;
    size_t total_trojans = 0;
    int64_t total_queries = 0;
    core::PhaseTimings phases;
    const auto start = std::chrono::steady_clock::now();
    for (const std::string &name : names) {
        const auto factory = registry.Find(name);
        const proto::ProtocolBundle bundle = factory->Make();
        const RunResult r = RunOne(bundle, workers);
        FamilyAgg &agg = by_family[bundle.info.family];
        agg.protocols += 1;
        agg.trojans += r.trojans;
        agg.queries += r.queries;
        total_trojans += r.trojans;
        total_queries += r.queries;
        phases.client_extraction += r.timings.client_extraction;
        phases.preprocessing += r.timings.preprocessing;
        phases.server_analysis += r.timings.server_analysis;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    bench::Section("per-family aggregates");
    std::printf("  %-28s %6s %8s %10s %9s\n", "family", "protos",
                "trojans", "yield", "q/proto");
    for (const auto &[family, agg] : by_family) {
        const double yield = static_cast<double>(agg.trojans) /
                             static_cast<double>(agg.protocols);
        const double qpp = static_cast<double>(agg.queries) /
                           static_cast<double>(agg.protocols);
        std::printf("  %-28s %6zu %8zu %10.2f %9.1f\n", family.c_str(),
                    agg.protocols, agg.trojans, yield, qpp);
        bench::JsonRecorder::Instance().Record(
            "corpus.trojan_yield" + MetricSuffix(family), yield);
        bench::JsonRecorder::Instance().Record(
            "corpus.queries_per_protocol" + MetricSuffix(family), qpp);
        bench::JsonRecorder::Instance().Record(
            "corpus.protocols" + MetricSuffix(family),
            static_cast<double>(agg.protocols));
    }

    bench::Section("totals");
    const double overall_yield = static_cast<double>(total_trojans) /
                                 static_cast<double>(names.size());
    const double overall_qpp = static_cast<double>(total_queries) /
                               static_cast<double>(names.size());
    bench::Metric("corpus.protocols", static_cast<double>(names.size()));
    bench::Metric("corpus.trojan_yield", overall_yield);
    bench::Metric("corpus.queries_per_protocol", overall_qpp);
    bench::Metric("corpus.seconds_total", seconds, "s");
    const double total_phase = phases.Total();
    if (total_phase > 0) {
        bench::Metric("corpus.phase_pct.client_extraction",
                      100.0 * phases.client_extraction / total_phase, "%");
        bench::Metric("corpus.phase_pct.preprocessing",
                      100.0 * phases.preprocessing / total_phase, "%");
        bench::Metric("corpus.phase_pct.server_analysis",
                      100.0 * phases.server_analysis / total_phase, "%");
    }

    // Knob-direction self-gate: within the sampled slice, high-coupling
    // cells must out-yield their low-coupling counterparts on average
    // (an unvalidated CRC tag is a guaranteed Trojan source), and yield
    // must be nonzero overall.
    double coupled_yield = 0, uncoupled_yield = 0;
    size_t coupled_protos = 0, uncoupled_protos = 0;
    for (const auto &[family, agg] : by_family) {
        if (family.rfind("synth/", 0) != 0)
            continue;
        if (family.find(".c75.") != std::string::npos) {
            coupled_yield += static_cast<double>(agg.trojans);
            coupled_protos += agg.protocols;
        } else if (family.find(".c0.") != std::string::npos) {
            uncoupled_yield += static_cast<double>(agg.trojans);
            uncoupled_protos += agg.protocols;
        }
    }
    bool knob_direction_ok = true;
    if (coupled_protos > 0 && uncoupled_protos > 0) {
        knob_direction_ok = coupled_yield / coupled_protos >
                            uncoupled_yield / uncoupled_protos;
        bench::Metric("corpus.coupling_yield_ordering_ok",
                      knob_direction_ok ? 1 : 0);
    }
    const bool ok = total_trojans > 0 && knob_direction_ok;

    bench::Note("yield rises with field coupling (unchecked CRC tags) "
                "and falls with validation density; spec protocols "
                "carry their declared validation gaps");
    std::printf("\nRESULT: %s (%zu protocols, %zu Trojans, %.1fs)\n",
                ok ? "PASS" : "MISMATCH", names.size(), total_trojans,
                seconds);
    bench::JsonRecorder::Instance().Flush();
    return ok ? 0 : 1;
}
