// Achilles reproduction -- core library.
//
// Phase 1 of Achilles: extract the client predicate PC by symbolically
// executing each client program in a symbolic environment (all local
// inputs intercepted and replaced by symbolic data) and capturing the
// message sent on every path, together with the path constraints
// (paper Section 3.1, "Client Predicate").

#ifndef ACHILLES_CORE_CLIENT_EXTRACTOR_H_
#define ACHILLES_CORE_CLIENT_EXTRACTOR_H_

#include <vector>

#include "core/message.h"
#include "core/path_predicate.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "smt/solver.h"
#include "symexec/program.h"

namespace achilles {
namespace core {

/** Extraction counters (the extraction runs on the calling thread). */
struct ClientExtractorStats
{
    int64_t predicates = 0;
    int64_t duplicate_predicates = 0;
    int64_t short_messages_skipped = 0;

    /** The one place these counters are named ("client.*"). */
    void AddTo(obs::CounterView *view) const;
};

/** Result of the extraction phase. */
struct ClientPredicate
{
    std::vector<ClientPathPredicate> paths;
    /** The extraction's counters plus every client engine's counters. */
    obs::CounterView stats;
};

/**
 * Run every client program symbolically, one serial engine each on the
 * calling thread, and collect one ClientPathPredicate per (path, sent
 * message). `obs` is the run's observability handle, passed to every
 * client engine.
 */
ClientPredicate ExtractClientPredicate(
    smt::ExprContext *ctx, smt::Solver *solver,
    const std::vector<const symexec::Program *> &clients,
    const MessageLayout &layout, obs::ObsHandle obs = {});

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_CLIENT_EXTRACTOR_H_
