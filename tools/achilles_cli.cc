// Achilles reproduction -- command-line driver.
//
// Run the full pipeline (client predicate extraction, preprocessing,
// server exploration) on any registry protocol with the observability
// layer attached:
//
//   achilles_cli [--protocol <name>] [--spec <file>] [--list-protocols]
//                [--workers N] [--clients N]
//                [--metrics-out <path>] [--trace-out <path>]
//                [--progress[=secs]]
//
//   --protocol       registry protocol to analyze (default fsp); any
//                    name from --list-protocols, including the sampled
//                    synth/<cell>/s<seed> corpus entries
//   --spec           parse + register a wire-format spec file and
//                    analyze it (overrides --protocol)
//   --list-protocols print every registered protocol name and exit
//   --workers        server-exploration worker threads (default 1,
//                    at most 256)
//   --clients        client programs to include (default all)
//                    (both take a decimal integer >= 1)
//   --metrics-out    write the end-of-run report (every counter of the
//                    run, by name) as one JSON object
//   --trace-out      write the Chrome trace-event JSON (open the file in
//                    chrome://tracing or https://ui.perfetto.dev)
//   --progress       print a live progress heartbeat every second (or
//                    every `secs` with --progress=secs, a decimal number
//                    >= 0; 0 turns the heartbeat off)
//
// A malformed or out-of-range number, a flag missing its value, or an
// unknown argument prints the usage and exits with status 2. A witness
// the protocol's concrete oracle rejects is an error: the run exits
// with status 1.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/achilles.h"
#include "obs/heartbeat.h"
#include "proto/registry.h"
#include "proto/spec/lower.h"
#include "tools/flags.h"

using namespace achilles;

namespace {

void
Usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--protocol <name>] [--spec <file>] "
        "[--list-protocols]\n"
        "          [--workers N] [--clients N]\n"
        "          [--metrics-out <path>] [--trace-out <path>]\n"
        "          [--progress[=secs]]\n",
        argv0);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string protocol = "fsp";
    std::string spec_path;
    bool list_protocols = false;
    size_t workers = 1;
    size_t num_clients = static_cast<size_t>(-1);
    std::string metrics_path;
    std::string trace_path;
    double progress_secs = 0.0;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 == argc &&
            flags::TakesValue(arg, {"--protocol", "--spec", "--workers",
                                    "--clients", "--metrics-out",
                                    "--trace-out"})) {
            return flags::MissingValue(argv[0], Usage, arg);
        }
        if (std::strcmp(arg, "--protocol") == 0) {
            protocol = argv[++i];
        } else if (std::strcmp(arg, "--spec") == 0) {
            spec_path = argv[++i];
        } else if (std::strcmp(arg, "--list-protocols") == 0) {
            list_protocols = true;
        } else if (std::strcmp(arg, "--workers") == 0) {
            std::string want;
            if (!flags::ParseWorkers(argv[++i], &workers, &want))
                return flags::BadNumber(argv[0], Usage, arg, want, argv[i]);
        } else if (std::strcmp(arg, "--clients") == 0) {
            if (!flags::ParseCount(argv[++i], &num_clients)) {
                return flags::BadNumber(argv[0], Usage, arg,
                                        "an integer >= 1", argv[i]);
            }
        } else if (std::strcmp(arg, "--metrics-out") == 0) {
            metrics_path = argv[++i];
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            trace_path = argv[++i];
        } else if (std::strcmp(arg, "--progress") == 0) {
            progress_secs = 1.0;
        } else if (std::strncmp(arg, "--progress=", 11) == 0) {
            if (!flags::ParseSeconds(arg + 11, &progress_secs)) {
                return flags::BadNumber(argv[0], Usage, "--progress=",
                                        "a number of seconds >= 0",
                                        arg + 11);
            }
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            Usage(argv[0]);
            return 0;
        } else {
            return flags::UnknownArgument(argv[0], Usage, arg);
        }
    }

    proto::ProtocolRegistry &registry = proto::ProtocolRegistry::Global();

    if (list_protocols) {
        for (const std::string &name : registry.Names()) {
            const auto factory = registry.Find(name);
            std::printf("%-32s %-12s %s\n", name.c_str(),
                        factory->info().family.c_str(),
                        factory->info().description.c_str());
        }
        return 0;
    }

    // A spec file joins the registry at load time and becomes the
    // analyzed protocol.
    if (!spec_path.empty()) {
        std::string error;
        if (!spec::RegisterSpecFile(spec_path, &registry, &protocol,
                                    &error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 2;
        }
    }

    const auto factory = registry.Find(protocol);
    if (factory == nullptr) {
        std::fprintf(stderr,
                     "%s: unknown protocol %s (try --list-protocols)\n",
                     argv[0], protocol.c_str());
        Usage(argv[0]);
        return 2;
    }

    // The bundle owns the layout and programs for the pipeline's
    // lifetime (AchillesConfig stores raw pointers).
    proto::ProtocolBundle bundle = factory->Make();
    if (num_clients < bundle.clients.size())
        bundle.clients.resize(num_clients);

    // Observability sinks: the live view only for the heartbeat (the
    // report is built from the typed counts either way), tracing only
    // when a trace file was asked for. Lane 0 is this thread;
    // exploration workers own lanes 1..N.
    std::unique_ptr<obs::MetricsRegistry> obs_registry;
    std::unique_ptr<obs::TraceRecorder> tracer;
    if (progress_secs > 0)
        obs_registry = std::make_unique<obs::MetricsRegistry>();
    if (!trace_path.empty())
        tracer = std::make_unique<obs::TraceRecorder>(workers + 1);
    obs::ObsHandle obs_handle;
    obs_handle.registry = obs_registry.get();
    obs_handle.tracer = tracer.get();

    smt::ExprContext ctx;
    smt::SolverConfig solver_config;
    solver_config.obs = obs_handle;
    smt::Solver solver(&ctx, solver_config);

    core::AchillesConfig config;
    config.layout = bundle.layout;
    config.clients = bundle.ClientPtrs();
    config.server = &bundle.server;
    config.server_config.engine.num_workers = workers;
    config.obs = obs_handle;

    std::unique_ptr<obs::Heartbeat> heartbeat;
    if (obs_registry != nullptr) {
        heartbeat = std::make_unique<obs::Heartbeat>(obs_registry.get(),
                                                     progress_secs);
        heartbeat->Start();
    }

    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    if (heartbeat != nullptr)
        heartbeat->Stop();

    std::printf("protocol %s (%s): %zu client(s), %zu worker(s)\n",
                protocol.c_str(), factory->info().family.c_str(),
                config.clients.size(), workers);
    std::printf("time: %.3f s (client %.3f + preprocess %.3f + "
                "server %.3f)\n",
                result.timings.Total(), result.timings.client_extraction,
                result.timings.preprocessing,
                result.timings.server_analysis);
    std::printf("Trojan witnesses: %zu\n", result.server.trojans.size());
    for (const core::TrojanWitness &t : result.server.trojans) {
        std::printf("  [%s] bytes:", t.accept_label.c_str());
        for (uint8_t b : t.concrete)
            std::printf(" %02x", b);
        std::printf("\n");
    }
    // Cross-check against the protocol's concrete counterpart where one
    // exists (fsp/pbft): every witness must be a real Trojan, and one
    // that is not fails the run.
    int status = 0;
    if (const auto oracle = factory->MakeConcreteOracle()) {
        size_t confirmed = 0;
        for (const core::TrojanWitness &t : result.server.trojans)
            if (oracle(t.concrete))
                ++confirmed;
        std::printf("concrete oracle confirms %zu/%zu witnesses\n",
                    confirmed, result.server.trojans.size());
        if (confirmed < result.server.trojans.size()) {
            std::fprintf(stderr, "%s: concrete oracle rejects %zu "
                         "witness(es)\n",
                         argv[0], result.server.trojans.size() - confirmed);
            status = 1;
        }
    }

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (out.is_open()) {
            result.report.WriteJson(out);
            std::printf("metrics written to %s\n", metrics_path.c_str());
        } else {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                         metrics_path.c_str());
            status = 1;
        }
    }
    if (tracer != nullptr) {
        std::ofstream out(trace_path);
        if (out.is_open()) {
            tracer->WriteChromeTrace(out);
            std::printf("trace written to %s (%lld events, %lld "
                        "dropped)\n",
                        trace_path.c_str(),
                        static_cast<long long>(tracer->TotalRetained()),
                        static_cast<long long>(tracer->TotalDropped()));
        } else {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                         trace_path.c_str());
            status = 1;
        }
    }
    return status;
}
