// Achilles reproduction -- baselines.

#include "baselines/classic_se.h"

#include "smt/eval.h"
#include "support/timer.h"

namespace achilles {
namespace baselines {

void
ClassicSeStats::AddTo(obs::CounterView *view) const
{
    view->Add("classic.messages", messages);
}

ClassicSeResult
RunClassicSe(smt::ExprContext *ctx, smt::Solver *solver,
             const symexec::Program *server,
             const core::MessageLayout &layout,
             const ClassicSeConfig &config)
{
    ClassicSeResult result;
    ClassicSeStats stats;
    Timer timer;

    // Fresh symbolic message.
    std::vector<smt::ExprRef> message;
    for (uint32_t i = 0; i < layout.length(); ++i)
        message.push_back(ctx->FreshVar("msg", 8));

    symexec::Engine engine(ctx, solver, server, symexec::Mode::kServer);
    engine.SetIncomingMessage(message);
    std::vector<symexec::PathResult> paths = engine.Run();
    result.stats.Merge(engine.stats());
    result.exploration_seconds = timer.Seconds();

    // Analyzed byte offsets (model blocking is restricted to these).
    std::vector<uint32_t> analyzed;
    for (const core::FieldSpec &f : layout.AnalyzedFields())
        for (uint32_t k = 0; k < f.size; ++k)
            analyzed.push_back(f.offset + k);

    for (symexec::PathResult &path : paths) {
        if (path.outcome != symexec::PathOutcome::kAccepted)
            continue;
        result.accepting_paths.push_back(path);

        std::vector<smt::ExprRef> query = path.constraints;
        for (size_t n = 0; n < config.enumerate_per_path; ++n) {
            smt::Model model;
            if (solver->CheckSat(query, &model) !=
                smt::CheckResult::kSat) {
                break;
            }
            std::vector<uint8_t> concrete;
            concrete.reserve(message.size());
            for (smt::ExprRef byte : message)
                concrete.push_back(
                    static_cast<uint8_t>(smt::Evaluate(byte, model)));
            result.messages.push_back(std::move(concrete));
            ++stats.messages;

            // Block this assignment of the analyzed bytes to force a
            // distinct next message.
            std::vector<smt::ExprRef> differs;
            for (uint32_t off : analyzed) {
                const uint64_t v = smt::Evaluate(message[off], model);
                differs.push_back(ctx->MakeNe(
                    message[off], ctx->MakeConst(8, v)));
            }
            query.push_back(ctx->MakeOrList(differs));
        }
    }
    stats.AddTo(&result.stats);
    result.seconds = timer.Seconds();
    return result;
}

}  // namespace baselines
}  // namespace achilles
