// Achilles reproduction -- parallel exploration subsystem benchmark.
//
// Sweeps the FSP server exploration (phase 2, the dominant cost in the
// paper's Section 6.2 breakdown) over 1/2/4/8 workers and reports the
// wall-clock speedup and the work-stealing counters. Also validates
// the subsystem's determinism guarantee: the Trojan witness sets
// (accept labels, definitions, concrete bytes) must be
// bitwise-identical at every worker count.
//
// Usage: bench_parallel [--clients N] [--workers 1,2,4,8]
//                       [--json <path>] [--trace-out <path>]
//                       [--progress[=secs]] [--obs-overhead]
//
// --clients takes a decimal integer >= 1, and --workers a comma list of
// them, each at most 256; --progress=secs takes a decimal number >= 0.
// A malformed or out-of-range number, a flag missing its value, or an
// unknown argument prints the usage and exits with status 2 before any
// run.
//
// Observability: `--trace-out` re-runs the max-worker point with the
// Chrome-trace recorder attached and writes the trace there (load it in
// chrome://tracing or ui.perfetto.dev); `--progress` attaches the live
// heartbeat to that run; with `--json`, the instrumented run's
// report lands as the nested "metrics" record. `--obs-overhead`
// measures the full-instrumentation wall-clock cost at one worker --
// five off/on pairs, alternating which arm runs first, the median
// per-pair overhead, floored at zero -- and records it as
// obs.overhead_pct (the CI trend gate holds this under an absolute
// ceiling). Witness sets must stay identical with instrumentation on
// or off.
//
// Every JSON record set includes one `parallel.swept/workers=N` marker
// per worker count actually run, so downstream consumers (the CI
// perf-trend gate) can intersect sweeps instead of comparing a point
// that one side never measured; records are flushed even when the
// sweep is truncated or the determinism check fails.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <fstream>

#include "bench/bench_util.h"
#include "core/achilles.h"
#include "obs/heartbeat.h"
#include "proto/fsp/fsp_protocol.h"
#include "tools/flags.h"

using namespace achilles;
using namespace achilles::core;

namespace {

void
Usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--clients N] [--workers N,N,...] "
                 "[--json <path>]\n"
                 "          [--trace-out <path>] [--progress[=secs]] "
                 "[--obs-overhead]\n",
                 argv0);
}

/** Witness summary comparable across independent runs. */
using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct SweepPoint
{
    size_t workers = 1;
    double seconds = 0.0;
    size_t trojans = 0;
    int64_t states_stolen = 0;
    std::vector<WitnessSummary> witnesses;
    obs::CounterView report;
};

/** Observability attachments for one RunOnce invocation. */
struct ObsOptions
{
    bool metrics = false;
    bool tracing = false;
    double progress_secs = 0.0;  ///< 0 = heartbeat off
    std::string trace_path;      ///< written when tracing is on
};

SweepPoint
RunOnce(size_t workers, size_t num_clients, const ObsOptions &obs_opts = {})
{
    smt::ExprContext ctx;
    smt::SolverConfig solver_config;

    // Lane 0 is the pipeline thread; workers own lanes 1..N.
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRecorder> tracer;
    if (obs_opts.metrics)
        registry = std::make_unique<obs::MetricsRegistry>();
    if (obs_opts.tracing)
        tracer = std::make_unique<obs::TraceRecorder>(workers + 1);
    obs::ObsHandle obs_handle;
    obs_handle.registry = registry.get();
    obs_handle.tracer = tracer.get();
    solver_config.obs = obs_handle;

    smt::Solver solver(&ctx, solver_config);

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();

    AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (size_t i = 0; i < clients.size() && i < num_clients; ++i)
        config.clients.push_back(&clients[i]);
    config.server = &server;
    config.server_config.engine.num_workers = workers;
    config.obs = obs_handle;

    std::unique_ptr<obs::Heartbeat> heartbeat;
    if (registry != nullptr && obs_opts.progress_secs > 0) {
        heartbeat = std::make_unique<obs::Heartbeat>(
            registry.get(), obs_opts.progress_secs);
        heartbeat->Start();
    }

    const AchillesResult result = RunAchilles(&ctx, &solver, config);

    if (heartbeat != nullptr)
        heartbeat->Stop();
    if (tracer != nullptr && !obs_opts.trace_path.empty()) {
        std::ofstream out(obs_opts.trace_path);
        if (out.is_open())
            tracer->WriteChromeTrace(out);
        else
            std::fprintf(stderr, "bench: cannot write %s\n",
                         obs_opts.trace_path.c_str());
    }

    SweepPoint point;
    point.report = result.report;
    point.workers = workers;
    point.seconds = result.timings.server_analysis;
    point.trojans = result.server.trojans.size();
    point.states_stolen = result.server.stats.Get("exec.states_stolen");
    CanonicalHasher hasher(&ctx);
    for (const TrojanWitness &t : result.server.trojans) {
        point.witnesses.emplace_back(t.accept_label, t.concrete,
                                     hasher.HashExprs(t.definition));
    }
    std::sort(point.witnesses.begin(), point.witnesses.end());
    return point;
}

}  // namespace

int
main(int argc, char **argv)
{
    size_t num_clients = 8;
    bool obs_overhead = false;
    double progress_secs = 0.0;
    std::string trace_path;
    std::vector<size_t> worker_counts{1, 2, 4, 8};
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 == argc &&
            flags::TakesValue(arg, {"--clients", "--workers", "--json",
                                    "--trace-out"})) {
            return flags::MissingValue(argv[0], Usage, arg);
        }
        if (std::strcmp(arg, "--obs-overhead") == 0) {
            obs_overhead = true;
        } else if (std::strcmp(arg, "--progress") == 0) {
            progress_secs = 1.0;
        } else if (std::strncmp(arg, "--progress=", 11) == 0) {
            if (!flags::ParseSeconds(arg + 11, &progress_secs)) {
                return flags::BadNumber(argv[0], Usage, "--progress=",
                                        "a number of seconds >= 0",
                                        arg + 11);
            }
        } else if (std::strcmp(arg, "--clients") == 0) {
            if (!flags::ParseCount(argv[++i], &num_clients)) {
                return flags::BadNumber(argv[0], Usage, arg,
                                        "an integer >= 1", argv[i]);
            }
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            trace_path = argv[++i];
        } else if (std::strcmp(arg, "--json") == 0) {
            ++i;  // bench::ParseBenchArgs opens it below
        } else if (std::strcmp(arg, "--workers") == 0) {
            const std::string list = argv[++i];
            worker_counts.clear();
            for (size_t start = 0;;) {
                const size_t comma = list.find(',', start);
                const std::string item = list.substr(start, comma - start);
                size_t workers = 0;
                if (!flags::ParseCount(item.c_str(), &workers) ||
                    workers > flags::kMaxWorkers) {
                    return flags::BadNumber(
                        argv[0], Usage, arg,
                        "a comma list of integers from 1 to " +
                            std::to_string(flags::kMaxWorkers),
                        list.c_str());
                }
                worker_counts.push_back(workers);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else {
            return flags::UnknownArgument(argv[0], Usage, arg);
        }
    }
    bench::ParseBenchArgs(argc, argv);
    if (std::find(worker_counts.begin(), worker_counts.end(), 1u) ==
        worker_counts.end()) {
        // The sweep's speedup baseline is the serial run; force it in.
        worker_counts.insert(worker_counts.begin(), 1);
    }
    std::sort(worker_counts.begin(), worker_counts.end());
    worker_counts.erase(
        std::unique(worker_counts.begin(), worker_counts.end()),
        worker_counts.end());

    bench::Header("Parallel server exploration -- work-stealing scheduler "
                  "sweep (FSP)");
    bench::Note("phase 2 only; 1 worker = the serial in-engine worklist");

    std::vector<SweepPoint> points;
    for (size_t w : worker_counts)
        points.push_back(RunOnce(w, num_clients));

    const SweepPoint &serial = points.front();

    bench::Section("sweep");
    std::printf("  %8s %12s %9s %10s %9s\n", "workers", "seconds",
                "speedup", "trojans", "stolen");
    bool identical = true;
    for (const SweepPoint &p : points) {
        const double speedup =
            p.seconds > 0 ? serial.seconds / p.seconds : 0.0;
        std::printf("  %8zu %12.3f %8.2fx %10zu %9lld\n", p.workers,
                    p.seconds, speedup, p.trojans,
                    static_cast<long long>(p.states_stolen));
        identical &= p.witnesses == serial.witnesses;

        const std::string suffix =
            "/workers=" + std::to_string(p.workers);
        // Sweep marker first: a consumer must never compare a metric
        // at a worker count the other record set did not run.
        bench::JsonRecorder::Instance().Record(
            "parallel.swept" + suffix, 1.0);
        bench::JsonRecorder::Instance().Record(
            "parallel.server_seconds" + suffix, p.seconds);
        bench::JsonRecorder::Instance().Record(
            "parallel.speedup" + suffix, speedup);
        bench::JsonRecorder::Instance().Record(
            "parallel.states_stolen" + suffix,
            static_cast<double>(p.states_stolen));
    }
    bench::Metric("parallel.trojans", static_cast<double>(serial.trojans));

    if (obs_overhead || progress_secs > 0 || !trace_path.empty()) {
        bench::Section("observability");
        const size_t max_workers = worker_counts.back();
        ObsOptions full;
        full.metrics = true;
        full.tracing = true;
        full.progress_secs = progress_secs;
        full.trace_path = trace_path;
        const SweepPoint instrumented =
            RunOnce(max_workers, num_clients, full);
        identical &= instrumented.witnesses == serial.witnesses;
        std::printf("  instrumented run (%zu workers): %.3f s, "
                    "%lld trace events (%lld dropped)\n",
                    max_workers, instrumented.seconds,
                    static_cast<long long>(
                        instrumented.report.Get("obs.trace_events")),
                    static_cast<long long>(
                        instrumented.report.Get("obs.trace_dropped")));
        // The instrumented run's full observability summary rides the
        // JSON artifact as the nested "metrics" record.
        bench::RecordRunMetrics(instrumented.report);

        if (obs_overhead) {
            // One worker keeps steal schedules and the host's core
            // count out of the timing. Alternating which arm of a pair
            // runs first cancels warm-up and drift, the median
            // discounts one-off scheduling noise, and the zero floor
            // keeps lucky negative deltas from masking a regression
            // elsewhere in the trend history.
            ObsOptions quiet = full;
            quiet.progress_secs = 0.0;  // no sampler thread in the
            quiet.trace_path.clear();   // timed region, no file I/O
            std::vector<double> overheads;
            for (int pair = 0; pair < 5; ++pair) {
                SweepPoint off, on;
                if (pair % 2 == 0) {
                    off = RunOnce(1, num_clients);
                    on = RunOnce(1, num_clients, quiet);
                } else {
                    on = RunOnce(1, num_clients, quiet);
                    off = RunOnce(1, num_clients);
                }
                identical &= off.witnesses == serial.witnesses &&
                             on.witnesses == serial.witnesses;
                if (off.seconds > 0) {
                    overheads.push_back(100.0 *
                                        (on.seconds - off.seconds) /
                                        off.seconds);
                }
            }
            double overhead_pct = 0.0;
            if (!overheads.empty()) {
                std::sort(overheads.begin(), overheads.end());
                overhead_pct =
                    std::max(0.0, overheads[overheads.size() / 2]);
            }
            bench::Metric("obs.overhead_pct", overhead_pct, "%");
        }
    }

    // Recorded after the observability runs so the archived verdict
    // covers every witness-set comparison this process made.
    bench::Metric("parallel.witness_sets_identical", identical ? 1 : 0);

    bench::Section("determinism");
    if (identical) {
        std::printf("  witness sets (labels, definitions, concrete bytes) "
                    "are identical at every worker count\n");
    } else {
        std::printf("  ERROR: witness sets diverged across worker "
                    "counts\n");
    }
    bench::Note("speedup is bounded by the machine's core count; on a "
                "single-core container all worker counts serialize");
    // Flush explicitly: the perf-trajectory artifact must exist even
    // when the determinism gate fails the process (that is exactly the
    // run someone will want to inspect).
    bench::JsonRecorder::Instance().Flush();
    return identical ? 0 : 1;
}
