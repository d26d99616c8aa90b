// Achilles reproduction -- core library.

#include "core/client_extractor.h"

#include <unordered_set>

#include "symexec/engine.h"

namespace achilles {
namespace core {

void
ClientExtractorStats::AddTo(obs::CounterView *view) const
{
    view->Add("client.predicates", predicates);
    view->Add("client.duplicate_predicates", duplicate_predicates);
    view->Add("client.short_messages_skipped", short_messages_skipped);
}

ClientPredicate
ExtractClientPredicate(smt::ExprContext *ctx, smt::Solver *solver,
                       const std::vector<const symexec::Program *> &clients,
                       const MessageLayout &layout, obs::ObsHandle obs)
{
    ClientPredicate out;
    ClientExtractorStats stats;
    CanonicalHasher hasher(ctx);
    std::unordered_set<uint64_t> seen;
    uint64_t next_id = 0;
    symexec::EngineConfig engine_config;
    engine_config.obs = obs;

    for (const symexec::Program *client : clients) {
        symexec::Engine engine(ctx, solver, client, symexec::Mode::kClient,
                               engine_config);
        const std::vector<symexec::PathResult> paths = engine.Run();
        out.stats.Merge(engine.stats());
        for (const symexec::PathResult &path : paths) {
            if (path.outcome != symexec::PathOutcome::kClientDone)
                continue;
            for (const symexec::SentMessage &msg : path.sent) {
                if (msg.bytes.size() < layout.length()) {
                    ++stats.short_messages_skipped;
                    continue;
                }
                ClientPathPredicate pred;
                pred.id = next_id;
                pred.origin = client->name;
                pred.bytes = msg.bytes;
                pred.constraints = path.constraints;

                // Drop structurally duplicate (alpha-renamed) predicates.
                std::vector<smt::ExprRef> key = pred.bytes;
                key.insert(key.end(), pred.constraints.begin(),
                           pred.constraints.end());
                if (!seen.insert(hasher.HashExprs(key)).second) {
                    ++stats.duplicate_predicates;
                    continue;
                }
                ++next_id;
                out.paths.push_back(std::move(pred));
            }
        }
    }
    stats.predicates = static_cast<int64_t>(out.paths.size());
    stats.AddTo(&out.stats);
    return out;
}

}  // namespace core
}  // namespace achilles
