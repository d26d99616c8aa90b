// Achilles reproduction -- core library.

#include "core/refine.h"

#include <algorithm>

#include "core/client_extractor.h"
#include "exec/prune_index.h"
#include "smt/eval.h"

namespace achilles {
namespace core {

RefinementResult
ConfirmWitnesses(smt::ExprContext *ctx, smt::Solver *solver,
                 const std::vector<const symexec::Program *> &clients,
                 const MessageLayout &layout,
                 const std::vector<TrojanWitness> &witnesses)
{
    RefinementResult result;

    // Extract the (possibly larger / more complete) client predicate
    // once; the per-witness check is then a satisfiability query per
    // client path: "can this path's message equal the witness bytes?"
    const ClientPredicate pc =
        ExtractClientPredicate(ctx, solver, clients, layout);

    // Analyzed byte offsets: masked fields are not part of the Trojan
    // claim and are not pinned.
    std::vector<uint32_t> analyzed;
    for (const FieldSpec &f : layout.AnalyzedFields())
        for (uint32_t k = 0; k < f.size; ++k)
            analyzed.push_back(f.offset + k);

    // Unsat cores make the bounded per-path re-checks transfer across
    // witnesses: a core refuting "path p emits witness w" is a subset
    // of p's constraints plus pinned-byte equalities, and any later
    // (path, witness) check whose constraint set contains the
    // constraint part and whose pin set contains the pin part is UNSAT
    // by the same core. The two-part subsumption probe is the shared
    // pruning knowledge base's (exec::PruneIndex, the same store the
    // server explorer's Trojan pruning uses), so reuse crosses paths
    // as well as witnesses: a core implicating only constraints shared
    // between two client paths transfers between them. Cores are only
    // consumed on unbudgeted solvers: under a conflict budget the
    // solver can answer kUnknown and never produces cores in the first
    // place.
    const bool cores_usable = solver->config().enable_cores &&
                              solver->config().unbudgeted();
    exec::PruneIndexConfig prune_config;
    prune_config.shards = 4;
    prune_config.core_cap = 8 * pc.paths.size();
    exec::PruneIndex prune(prune_config);
    // Per-path constraint fingerprints, computed once (single context,
    // always fingerprintable under the unlimited var bound).
    std::vector<exec::PruneFpVec> path_fps(pc.paths.size());
    for (size_t p = 0; p < pc.paths.size(); ++p)
        prune.Fingerprint(pc.paths[p].constraints, &path_fps[p]);

    for (const TrojanWitness &witness : witnesses) {
        bool producible = false;
        for (size_t p = 0; p < pc.paths.size() && !producible; ++p) {
            const ClientPathPredicate &pred = pc.paths[p];
            // Path constraints as the base, pinned-byte equalities as
            // the extras: every witness re-asserts the same base, which
            // the incremental backend turns into assumption flips over
            // already-blasted CNF with the common trail prefix kept.
            // `query` is the base ∥ extras concatenation
            // CheckSatAssuming indexes cores into.
            std::vector<smt::ExprRef> query = pred.constraints;
            std::vector<smt::ExprRef> pins;
            pins.reserve(analyzed.size());
            for (uint32_t off : analyzed) {
                pins.push_back(ctx->MakeEq(
                    pred.bytes[off],
                    ctx->MakeConst(8, witness.concrete[off])));
            }
            query.insert(query.end(), pins.begin(), pins.end());
            exec::PruneFpVec pin_fps;
            if (cores_usable) {
                prune.Fingerprint(pins, &pin_fps);
                if (prune.SubsumesCore(0, path_fps[p], pin_fps)) {
                    ++result.core_skips;
                    continue;  // this path cannot emit the witness
                }
            }
            ++result.solver_queries;
            const smt::CheckResult r =
                solver->CheckSatAssuming(pred.constraints, pins);
            if (r == smt::CheckResult::kSat) {
                producible = true;
            } else if (cores_usable && r == smt::CheckResult::kUnsat &&
                       r.has_core) {
                // Record the core split into its constraint part and
                // its pin part (indices below pred.constraints.size()
                // are constraints).
                std::vector<smt::ExprRef> constraint_part;
                std::vector<smt::ExprRef> pin_part;
                for (uint32_t idx : r.core) {
                    if (idx < pred.constraints.size())
                        constraint_part.push_back(query[idx]);
                    else
                        pin_part.push_back(query[idx]);
                }
                exec::PruneFpVec constraint_part_fps, pin_part_fps;
                prune.Fingerprint(constraint_part, &constraint_part_fps);
                prune.Fingerprint(pin_part, &pin_part_fps);
                prune.RecordCore(0, constraint_part_fps, pin_part_fps);
            }
        }
        result.verdicts.push_back(producible ? WitnessVerdict::kRefuted
                                             : WitnessVerdict::kConfirmed);
        if (producible)
            ++result.refuted;
        else
            ++result.confirmed;
    }
    return result;
}

std::vector<std::vector<uint8_t>>
EnumerateTrojans(smt::ExprContext *ctx, smt::Solver *solver,
                 const MessageLayout &layout, const TrojanWitness &witness,
                 size_t max_count)
{
    std::vector<std::vector<uint8_t>> out;
    if (max_count == 0 || witness.message_vars.empty())
        return out;

    std::vector<uint32_t> analyzed;
    for (const FieldSpec &f : layout.AnalyzedFields())
        for (uint32_t k = 0; k < f.size; ++k)
            analyzed.push_back(f.offset + k);

    std::vector<smt::ExprRef> query = witness.definition;
    for (size_t n = 0; n < max_count; ++n) {
        smt::Model model;
        if (solver->CheckSat(query, &model) != smt::CheckResult::kSat)
            break;
        std::vector<uint8_t> concrete;
        concrete.reserve(witness.message_vars.size());
        for (uint32_t var : witness.message_vars)
            concrete.push_back(static_cast<uint8_t>(model.Get(var)));
        // Block this assignment of the analyzed bytes.
        std::vector<smt::ExprRef> differs;
        for (uint32_t off : analyzed) {
            differs.push_back(ctx->MakeNe(
                ctx->VarById(witness.message_vars[off]),
                ctx->MakeConst(8, concrete[off])));
        }
        query.push_back(ctx->MakeOrList(differs));
        out.push_back(std::move(concrete));
    }
    return out;
}

}  // namespace core
}  // namespace achilles
