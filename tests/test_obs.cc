// Achilles reproduction -- tests.
//
// The observability layer (src/obs/): the registry's live view over
// typed counts (attach, detach and fold; single-writer counts sampled
// mid-run; components built and destroyed while another thread
// samples), counter-view merges and JSON, trace-ring overflow
// accounting, heartbeat snapshot consistency through a test sink, and
// the end-to-end contract -- Trojan witness sets are bitwise identical
// with instrumentation on or off at 1/2/4/8 workers, and the report
// sums every solver's counters. Runs under the TSan CI job (the live
// counts' relaxed loads and stores and the heartbeat's cross-thread
// sampling are exactly what it audits).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "proto/fsp/fsp_protocol.h"
#include "symexec/engine.h"

namespace achilles {
namespace {

// ---------------------------------------------------------- live view

TEST(MetricsRegistryTest, DetachFoldsTheFinalValueAndStopsReading)
{
    obs::MetricsRegistry reg;
    obs::LiveCount a;
    obs::LiveCount b;
    std::atomic<int64_t> queued{7};  // a scheduler-style plain atomic
    reg.Attach("x", a.atomic());
    reg.Attach("x", b.atomic());
    reg.Attach("y", queued);
    a.Set(3);
    ++b;
    ++b;
    auto agg = reg.Aggregate();
    EXPECT_EQ(agg.at("x").value, 5);
    EXPECT_EQ(agg.at("y").value, 7);

    reg.Detach(a.atomic());
    a.Set(100);  // detached: no longer read
    ++b;
    agg = reg.Aggregate();
    EXPECT_EQ(agg.at("x").value, 6);

    reg.Detach(b.atomic());
    reg.Detach(queued);
    queued.store(0);
    agg = reg.Aggregate();
    EXPECT_EQ(agg.at("x").value, 6);
    EXPECT_EQ(agg.at("y").value, 7);
}

TEST(MetricsRegistryTest, LiveCountsSampledMidRunAreMonotoneAndExact)
{
    constexpr size_t kThreads = 8;
    constexpr int64_t kBumpsPerThread = 20000;
    obs::MetricsRegistry reg;
    std::array<obs::LiveCount, kThreads> counts;
    for (const obs::LiveCount &count : counts)
        reg.Attach("count", count.atomic());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counts, t] {
            for (int64_t i = 0; i < kBumpsPerThread; ++i)
                ++counts[t];
        });
    }
    // Sample mid-run, as the heartbeat does: each count has one writer,
    // so every read is a value it held, and the sum only grows.
    int64_t seen = 0;
    for (int round = 0; round < 50; ++round) {
        const int64_t value = reg.Aggregate().at("count").value;
        EXPECT_GE(value, seen);
        seen = value;
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(reg.Aggregate().at("count").value,
              static_cast<int64_t>(kThreads) * kBumpsPerThread);
    for (const obs::LiveCount &count : counts)
        reg.Detach(count.atomic());
    EXPECT_EQ(reg.Aggregate().at("count").value,
              static_cast<int64_t>(kThreads) * kBumpsPerThread);
}

TEST(MetricsRegistryTest, ComponentsComeAndGoWhileAnotherThreadAggregates)
{
    // A component detaches in its destructor, under the registry's
    // mutex, so a sampler on another thread never reads a dead
    // component's count, and a name keeps its total after the
    // component is gone.
    obs::MetricsRegistry reg;
    obs::ObsHandle handle;
    handle.registry = &reg;
    std::atomic<bool> done{false};
    std::atomic<bool> monotone{true};
    std::thread sampler([&] {
        int64_t last = 0;
        while (!done.load()) {
            const auto agg = reg.Aggregate();
            const auto it = agg.find("solver.queries");
            const int64_t queries = it == agg.end() ? 0 : it->second.value;
            if (queries < last)
                monotone = false;
            last = queries;
        }
    });

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    int64_t forks = 0;
    int64_t queries = 0;
    for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < clients.size() && i < 4; ++i) {
            smt::ExprContext ctx;
            smt::SolverConfig solver_config;
            solver_config.obs = handle;
            smt::Solver solver(&ctx, solver_config);
            symexec::EngineConfig engine_config;
            engine_config.obs = handle;
            symexec::Engine engine(&ctx, &solver, &clients[i],
                                   symexec::Mode::kClient, engine_config);
            engine.Run();
            forks += engine.stats().Get("engine.forks");
            queries += solver.stats().Get("solver.queries");
        }
    }
    done = true;
    sampler.join();

    EXPECT_TRUE(monotone.load());
    EXPECT_GT(forks, 0);
    const auto agg = reg.Aggregate();
    EXPECT_EQ(agg.at("engine.states").value, forks);
    EXPECT_EQ(agg.at("solver.queries").value, queries);
    EXPECT_EQ(agg.at("engine.frontier").value, 0);
}

// ---------------------------------------------------------- counter view

TEST(CounterViewTest, AddGetMerge)
{
    obs::CounterView a;
    a.Add("x", 1);
    a.Add("x", 4);
    a.Add("y", 10);
    EXPECT_EQ(a.Get("x"), 5);
    EXPECT_EQ(a.Get("y"), 10);
    EXPECT_EQ(a.Get("missing"), 0);

    obs::CounterView b;
    b.Add("x", 2);
    b.Add("z", 3);
    a.Merge(b);
    EXPECT_EQ(a.Get("x"), 7);
    EXPECT_EQ(a.Get("z"), 3);
}

TEST(CounterViewTest, MergeSumsAndSelfMergeIsSafe)
{
    obs::CounterView a;
    obs::CounterView b;
    a.Add("k", 2);
    b.Add("k", 3);
    a.Merge(b);
    EXPECT_EQ(a.Get("k"), 5);
    a.Merge(a);
    EXPECT_EQ(a.Get("k"), 10);
}

TEST(CounterViewTest, WriteJsonSortsNamesAndPrintsIntegers)
{
    obs::CounterView view;
    view.Add("rate", 15);
    view.Add("count", 42);
    view.Add("delta", -3);
    std::ostringstream os;
    view.WriteJson(os);
    EXPECT_EQ(os.str(), "{\"count\":42,\"delta\":-3,\"rate\":15}");
}

TEST(CounterViewTest, ViewOfListsEveryTypedCounter)
{
    // A stats struct's view names every field, zeros included, so a
    // merge never loses a name only one side bumped.
    smt::SolverStats stats;
    stats.sat_decisions = 7;
    const obs::CounterView view = obs::ViewOf(stats);
    EXPECT_EQ(view.Get("solver.sat_decisions"), 7);
    EXPECT_EQ(view.All().count("solver.cache_hits"), 1u);
    EXPECT_EQ(view.Get("solver.cache_hits"), 0);
}

// ----------------------------------------------------------- trace rings

TEST(TraceRecorderTest, RingOverflowIsCountedNotLost)
{
    obs::TraceRecorder rec(1, /*ring_capacity=*/8);
    for (int i = 0; i < 20; ++i) {
        obs::TraceEvent e;
        e.name = "ev";
        e.category = "t";
        e.start_us = i;
        rec.Record(0, e);
    }
    EXPECT_EQ(rec.TotalRetained(), 8);
    EXPECT_EQ(rec.DroppedOn(0), 12);
    EXPECT_EQ(rec.TotalDropped(), 12);
}

TEST(TraceRecorderTest, ChromeTraceCarriesTracksAndDropCounter)
{
    obs::TraceRecorder rec(2, /*ring_capacity=*/4);
    {
        obs::ScopedSpan span(&rec, 1, "work", "test");
        span.AddArg("n", 3);
        span.SetStrArg("verdict", "sat");
    }
    for (int i = 0; i < 10; ++i)
        obs::TraceInstant(&rec, 0, "tick", "test", "i", i);
    std::ostringstream os;
    rec.WriteChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"work\""), std::string::npos);
    EXPECT_NE(json.find("\"verdict\""), std::string::npos);
    // Track 0 wrapped: its drop counter event must be in the stream.
    EXPECT_NE(json.find("obs.trace_dropped"), std::string::npos);
}

TEST(TraceRecorderTest, ScopedSpanOnNullRecorderIsInert)
{
    obs::ScopedSpan span(nullptr, 0, "noop", "test");
    span.AddArg("k", 1);
    span.SetStrArg("s", "v");
    obs::TraceInstant(nullptr, 0, "noop", "test");
}

// ------------------------------------------------------------- heartbeat

TEST(HeartbeatTest, SampleReadsTheRegistrysAggregate)
{
    obs::MetricsRegistry reg;
    obs::LiveCount steps;
    obs::LiveCount frontier;
    obs::LiveCount queries;
    obs::LiveCount unknowns;
    reg.Attach("engine.steps", steps.atomic());
    reg.Attach("engine.frontier", frontier.atomic());
    reg.Attach("solver.queries", queries.atomic());
    reg.Attach("solver.unknowns", unknowns.atomic());
    steps.Set(21);
    frontier.Set(7);
    queries.Set(50);
    unknowns.Set(5);

    obs::Heartbeat hb(&reg, /*interval_seconds=*/3600.0);
    const obs::HeartbeatSample sample = hb.Sample();
    EXPECT_EQ(sample.states_explored, 21);
    EXPECT_EQ(sample.frontier, 7);
    EXPECT_EQ(sample.queries, 50);
    EXPECT_DOUBLE_EQ(sample.unknown_rate, 10.0);
    EXPECT_FALSE(sample.Format().empty());
}

TEST(HeartbeatTest, SinkSeesMonotoneSamplesAndStopEmitsFinal)
{
    obs::MetricsRegistry reg;
    obs::LiveCount queries;
    reg.Attach("solver.queries", queries.atomic());

    std::atomic<int64_t> sample_count{0};
    std::atomic<int64_t> last_queries{-1};
    std::atomic<bool> monotone{true};
    obs::Heartbeat hb(&reg, /*interval_seconds=*/0.05,
                      [&](const obs::HeartbeatSample &s) {
                          if (s.queries < last_queries.load())
                              monotone = false;
                          last_queries = s.queries;
                          sample_count.fetch_add(1);
                      });
    hb.Start();
    for (int i = 0; i < 100; ++i) {
        ++queries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    hb.Stop();
    // Stop() emits one final sample, so even a short run reports, and
    // that final sample has seen every bump that happened-before Stop.
    EXPECT_GE(sample_count.load(), 1);
    EXPECT_TRUE(monotone.load());
    EXPECT_EQ(last_queries.load(), 100);
}

// ------------------------------------------------- end-to-end identity

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct FspRun
{
    std::vector<WitnessSummary> witnesses;
    obs::CounterView report;
    /** The home solver's counters plus the server stats, which hold
     *  the worker solvers' counters. */
    obs::CounterView solver_counters;
    /** Instrumented runs: the registry's view after the run, and the
     *  heartbeat's final sample. */
    std::map<std::string, obs::MetricSnapshot> live;
    obs::HeartbeatSample last_sample;
};

FspRun
RunFsp(size_t workers, bool instrumented)
{
    smt::ExprContext ctx;
    smt::SolverConfig solver_config;

    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRecorder> tracer;
    obs::ObsHandle handle;
    if (instrumented) {
        registry = std::make_unique<obs::MetricsRegistry>();
        tracer = std::make_unique<obs::TraceRecorder>(workers + 1,
                                                      /*ring=*/1 << 10);
        handle.registry = registry.get();
        handle.tracer = tracer.get();
        solver_config.obs = handle;
    }
    smt::Solver solver(&ctx, solver_config);

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();
    core::AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (size_t i = 0; i < clients.size() && i < 4; ++i)
        config.clients.push_back(&clients[i]);
    config.server = &server;
    config.server_config.engine.num_workers = workers;
    config.obs = handle;

    FspRun run;
    // The heartbeat samples the live view from its own thread while
    // the workers run -- exactly the cross-thread pattern TSan audits.
    std::unique_ptr<obs::Heartbeat> heartbeat;
    std::atomic<int64_t> sampled{0};
    if (instrumented) {
        heartbeat = std::make_unique<obs::Heartbeat>(
            registry.get(), 0.05,
            [&sampled, &run](const obs::HeartbeatSample &sample) {
                sampled.fetch_add(1);
                run.last_sample = sample;
            });
        heartbeat->Start();
    }

    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    if (heartbeat != nullptr) {
        heartbeat->Stop();
        EXPECT_GE(sampled.load(), 1);
        run.live = registry->Aggregate();
    }
    run.report = result.report;
    run.solver_counters = solver.stats();
    run.solver_counters.Merge(result.server.stats);

    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        run.witnesses.emplace_back(t.accept_label, t.concrete,
                                   hasher.HashExprs(t.definition));
    }
    std::sort(run.witnesses.begin(), run.witnesses.end());
    return run;
}

TEST(ObsPipelineTest, WitnessSetsAreIdenticalWithObsOnOrOff)
{
    const std::vector<WitnessSummary> baseline =
        RunFsp(/*workers=*/1, /*instrumented=*/false).witnesses;
    ASSERT_FALSE(baseline.empty());
    for (size_t workers : {1, 2, 4, 8}) {
        const FspRun off = RunFsp(workers, false);
        const FspRun on = RunFsp(workers, true);
        EXPECT_EQ(off.witnesses, baseline)
            << "uninstrumented run diverged at " << workers << " workers";
        EXPECT_EQ(on.witnesses, baseline)
            << "instrumented run diverged at " << workers << " workers";

        // The typed counts reach the report with obs off too, the
        // live ones included.
        for (const char *name : {"engine.steps", "solver.unknowns"})
            EXPECT_EQ(off.report.All().count(name), 1u) << name;
        EXPECT_GT(off.report.Get("engine.steps"), 0);

        const obs::CounterView &report = on.report;
        EXPECT_GT(report.Get("solver.queries"), 0);
        EXPECT_GT(report.Get("engine.steps"), 0);
        EXPECT_GT(report.Get("obs.trace_events"), 0);
        // The report counts both explored phases: the typed fork count
        // of the client and server engines equals the registry's
        // engine.states, which e2ebench reads as symexec.states.
        EXPECT_GT(report.Get("client.predicates"), 0);
        EXPECT_GT(report.Get("engine.forks"), 0);
        EXPECT_EQ(report.Get("engine.forks"),
                  on.live.at("engine.states").value)
            << workers << " workers";
        // The heartbeat's final sample reads the same counts.
        EXPECT_EQ(on.last_sample.states_explored,
                  report.Get("engine.steps"));
        EXPECT_EQ(on.last_sample.queries, report.Get("solver.queries"));
        EXPECT_EQ(on.last_sample.frontier, 0);
        // So do the negate operator's counters: one negation per
        // client predicate.
        EXPECT_EQ(report.Get("negate.exact_predicates") +
                      report.Get("negate.approx_predicates"),
                  report.Get("client.predicates"));
        // The report counts every solver of the run: the home solver's
        // serial phases plus each worker solver's stream.
        for (const char *name :
             {"solver.sat_decisions", "solver.sat_calls"}) {
            EXPECT_GT(on.solver_counters.Get(name), 0) << name;
            EXPECT_EQ(report.Get(name), on.solver_counters.Get(name))
                << name << " at " << workers << " workers";
        }
    }
}

}  // namespace
}  // namespace achilles
