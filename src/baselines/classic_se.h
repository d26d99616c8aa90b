// Achilles reproduction -- baselines.
//
// Classic symbolic execution baseline (paper Section 6.2 / Table 1):
// run the server alone under vanilla symbolic execution, collect the
// accepting paths, and enumerate concrete messages satisfying each path
// by iterative model blocking. This is what a developer gets without
// Achilles: all accepted messages, Trojan and valid alike, with no way
// to tell them apart ("it is left to the developer to sift among the
// results").

#ifndef ACHILLES_BASELINES_CLASSIC_SE_H_
#define ACHILLES_BASELINES_CLASSIC_SE_H_

#include <vector>

#include "core/message.h"
#include "obs/metrics.h"
#include "smt/solver.h"
#include "symexec/engine.h"

namespace achilles {
namespace baselines {

/** Configuration for the classic-SE baseline. */
struct ClassicSeConfig
{
    /** Max concrete messages enumerated per accepting path. */
    size_t enumerate_per_path = 1;
};

/** Baseline counters (the enumeration runs on the calling thread). */
struct ClassicSeStats
{
    int64_t messages = 0;

    /** The one place these counters are named ("classic.*"). */
    void AddTo(obs::CounterView *view) const;
};

/** Result of the baseline run. */
struct ClassicSeResult
{
    /** All accepting server paths. */
    std::vector<symexec::PathResult> accepting_paths;
    /** Concrete messages produced (per path, model-blocked). */
    std::vector<std::vector<uint8_t>> messages;
    /** Exploration time only (what the paper's "2 minutes" measures). */
    double exploration_seconds = 0.0;
    /** Exploration + per-path message enumeration. */
    double seconds = 0.0;
    /** The baseline's counters plus the exploration's engine
     *  counters. */
    obs::CounterView stats;
};

/**
 * Run vanilla symbolic execution of the server (one serial engine on
 * the calling thread) and enumerate accepted messages. Enumeration
 * blocks previous models on the *analyzed* (unmasked) bytes only, so
 * masked header fields do not inflate the count.
 */
ClassicSeResult RunClassicSe(smt::ExprContext *ctx, smt::Solver *solver,
                             const symexec::Program *server,
                             const core::MessageLayout &layout,
                             const ClassicSeConfig &config = {});

}  // namespace baselines
}  // namespace achilles

#endif  // ACHILLES_BASELINES_CLASSIC_SE_H_
