// Achilles reproduction -- core library.

#include "core/achilles.h"

#include "obs/trace.h"
#include "support/timer.h"

namespace achilles {
namespace core {

AchillesResult
RunAchilles(smt::ExprContext *ctx, smt::Solver *solver,
            const AchillesConfig &config)
{
    ACHILLES_CHECK(config.server != nullptr, "no server program");
    ACHILLES_CHECK(!config.clients.empty(), "no client programs");

    ServerExplorerConfig server_config = config.server_config;
    server_config.engine.obs = config.obs;

    AchillesResult result;
    Timer timer;

    // Phase 1: client predicate extraction.
    {
        obs::ScopedSpan span(config.obs.tracer, config.obs.lane,
                             "phase.client_extraction", "pipeline");
        result.client_predicate = ExtractClientPredicate(
            ctx, solver, config.clients, config.layout, config.obs);
        span.AddArg("paths", static_cast<int64_t>(
                                 result.client_predicate.paths.size()));
    }
    result.timings.client_extraction = timer.Seconds();

    // Preprocessing: negations + differentFrom. The negate operator
    // needs the server's symbolic message up front, so the explorer is
    // constructed here (it creates the message variables) and the
    // negations are computed against it.
    timer.Reset();
    DifferentFromMatrix different_from(ctx, solver, &config.layout);
    // The server's symbolic message variables are created here and shared
    // between the negate operator (negations must constrain the same
    // variables the server paths do) and the explorer.
    std::vector<smt::ExprRef> server_message;
    for (uint32_t i = 0; i < config.layout.length(); ++i)
        server_message.push_back(ctx->FreshVar("msg", 8));

    {
        obs::ScopedSpan span(config.obs.tracer, config.obs.lane,
                             "phase.preprocessing", "pipeline");
        NegateOperator negate_op(ctx, solver, &config.layout,
                                 server_message);
        result.negations.reserve(result.client_predicate.paths.size());
        for (const ClientPathPredicate &pred :
             result.client_predicate.paths)
            result.negations.push_back(negate_op.Negate(pred));

        if (server_config.use_different_from) {
            different_from.Compute(result.client_predicate.paths,
                                   &negate_op);
            result.preprocessing_stats.Merge(different_from.stats());
        }
        result.negate_stats = negate_op.stats();
        result.preprocessing_stats.Merge(obs::ViewOf(result.negate_stats));
        span.AddArg("negations",
                    static_cast<int64_t>(result.negations.size()));
    }
    result.timings.preprocessing = timer.Seconds();

    // Phase 2: server analysis. With num_workers > 1 this phase -- the
    // dominant cost in the paper's Section 6.2 breakdown -- runs on the
    // work-stealing worker pool; the timing below is wall-clock either
    // way, so speedup shows up directly in the phase breakdown.
    timer.Reset();
    {
        obs::ScopedSpan span(config.obs.tracer, config.obs.lane,
                             "phase.server_analysis", "pipeline");
        ServerExplorer explorer(ctx, solver, config.server, &config.layout,
                                &result.client_predicate.paths,
                                &result.negations, &different_from,
                                server_config, server_message);
        result.server = explorer.Run();
        span.AddArg("trojans",
                    static_cast<int64_t>(result.server.trojans.size()));
    }
    result.timings.server_analysis = timer.Seconds();
    result.server.stats.Add(
        "achilles.server_workers",
        static_cast<int64_t>(server_config.engine.num_workers));

    // The report sums the counter views: no event is counted in two of
    // them (each phase's engines count into that phase's stats, the
    // worker solvers into the server stats, the home solver only on
    // itself).
    result.report = result.client_predicate.stats;
    result.report.Merge(result.preprocessing_stats);
    result.report.Merge(result.server.stats);
    result.report.Merge(solver->stats());
    if (config.obs.tracing_on()) {
        result.report.Add("obs.trace_events",
                          config.obs.tracer->TotalRetained());
        result.report.Add("obs.trace_dropped",
                          config.obs.tracer->TotalDropped());
    }
    return result;
}

}  // namespace core
}  // namespace achilles
