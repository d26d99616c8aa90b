// Achilles reproduction -- core library.
//
// The public facade: configure a client/server pair plus a message
// layout, call RunAchilles(), get Trojan witnesses with per-phase
// timings. This mirrors the two-phase pipeline of the paper:
//
//   phase 1: extract the client predicate PC       (ExtractClientPredicate)
//   preprocessing: negate PC, compute differentFrom (NegateOperator /
//                                                    DifferentFromMatrix)
//   phase 2: explore the server, compute Trojans    (ServerExplorer)

#ifndef ACHILLES_CORE_ACHILLES_H_
#define ACHILLES_CORE_ACHILLES_H_

#include <vector>

#include "core/client_extractor.h"
#include "core/different_from.h"
#include "core/message.h"
#include "core/negate.h"
#include "core/server_explorer.h"
#include "obs/obs.h"
#include "smt/solver.h"
#include "symexec/program.h"

namespace achilles {
namespace core {

/** Full-pipeline configuration. */
struct AchillesConfig
{
    MessageLayout layout;
    std::vector<const symexec::Program *> clients;
    const symexec::Program *server = nullptr;
    /** Also selects the preprocessing: the differentFrom matrix is
     *  computed only when `server_config.use_different_from` is set. */
    ServerExplorerConfig server_config;
    /**
     * Observability sinks for the whole pipeline (src/obs/obs.h). When
     * set, RunAchilles records one span per pipeline phase on lane 0,
     * passes the handle to the client-extraction and server-exploration
     * engines (replacing `server_config.engine.obs`), and adds the trace
     * volume to AchillesResult::report. The solver's own
     * instrumentation is configured at solver construction
     * (SolverConfig::obs) -- pass the same registry/tracer there.
     */
    obs::ObsHandle obs;
};

/** Wall-clock seconds per pipeline phase (paper Section 6.2 breakdown). */
struct PhaseTimings
{
    double client_extraction = 0.0;
    double preprocessing = 0.0;
    double server_analysis = 0.0;
    double Total() const
    {
        return client_extraction + preprocessing + server_analysis;
    }
};

/** Full-pipeline result. */
struct AchillesResult
{
    ClientPredicate client_predicate;
    std::vector<NegatedPredicate> negations;
    ServerAnalysis server;
    PhaseTimings timings;
    NegateStats negate_stats;
    /** The negate operator's and the differentFrom precomputation's
     *  counters. */
    obs::CounterView preprocessing_stats;
    /** End-of-run summary: the client-extraction, preprocessing,
     *  server and home-solver counters summed, plus, when
     *  AchillesConfig::obs carries a tracer, obs.trace_events (events
     *  retained) and obs.trace_dropped (ring overwrites). */
    obs::CounterView report;
};

/** Run the complete Achilles pipeline. */
AchillesResult RunAchilles(smt::ExprContext *ctx, smt::Solver *solver,
                           const AchillesConfig &config);

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_ACHILLES_H_
