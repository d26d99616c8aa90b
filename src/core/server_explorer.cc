// Achilles reproduction -- core library.

#include "core/server_explorer.h"

#include <algorithm>
#include <memory>

#include "exec/worker.h"
#include "smt/eval.h"

namespace achilles {
namespace core {

/** Per-state payload: indices of client predicates still matching. */
struct ServerExplorer::LiveSet : public symexec::StateUserData
{
    std::vector<uint32_t> live;

    std::unique_ptr<symexec::StateUserData>
    Clone() const override
    {
        auto copy = std::make_unique<LiveSet>();
        copy->live = live;
        return copy;
    }
};

ServerExplorer::Plane::Plane(ServerExplorer *owner)
    : owner(owner), ctx(owner->ctx_), solver(owner->solver_),
      message(&owner->message_), obs(owner->config_.engine.obs)
{
}

ServerExplorer::Plane::Plane(ServerExplorer *owner, exec::WorkerContext *wc)
    : owner(owner), ctx(&wc->ctx), solver(wc->solver.get()),
      message(&wc->incoming),
      // Worker w bumps/traces on obs lane 1 + w, matching the lane
      // numbering the ParallelEngine gives its engines and solvers.
      obs(owner->config_.engine.obs.ForLane(wc->worker_id + 1)),
      bridge(wc->bridge.get())
{
    // The engine's incoming message is the worker replica of the home
    // message; id alignment makes var_to_offset_ valid here.
    for (size_t i = 0; i < message->size(); ++i) {
        ACHILLES_CHECK((*message)[i]->VarId() ==
                           owner->message_[i]->VarId(),
                       "message variables out of alignment");
    }
    const Plane &home = owner->home_;
    match.resize(home.match.size());
    for (size_t i = 0; i < home.match.size(); ++i) {
        match[i].reserve(home.match[i].size());
        for (smt::ExprRef e : home.match[i])
            match[i].push_back(bridge->ToRemote(e));
    }
    negations.reserve(home.negations.size());
    for (smt::ExprRef e : home.negations)
        negations.push_back(e ? bridge->ToRemote(e) : nullptr);
}

bool
ServerExplorer::Plane::OnBranch(symexec::State &state,
                                smt::ExprRef constraint)
{
    return owner->HandleBranch(*this, state, constraint);
}

void
ServerExplorer::Plane::OnAccept(symexec::State &state)
{
    owner->EmitTrojan(*this, state.id(), state.accept_label,
                      state.constraints(), owner->GetLiveSet(state)->live);
}

ServerExplorer::ServerExplorer(
    smt::ExprContext *ctx, smt::Solver *solver,
    const symexec::Program *server, const MessageLayout *layout,
    const std::vector<ClientPathPredicate> *preds,
    const std::vector<NegatedPredicate> *negations,
    const DifferentFromMatrix *different_from, ServerExplorerConfig config,
    std::vector<smt::ExprRef> message)
    : ctx_(ctx), solver_(solver), server_(server), layout_(layout),
      preds_(preds), negations_(negations), different_from_(different_from),
      config_(config), message_(std::move(message)), home_(this)
{
    ACHILLES_CHECK(preds_->size() == negations_->size(),
                   "negations out of sync with predicates");

    // The symbolic message the server is analyzed on. Every path
    // constrains these same variables; when negations were precomputed,
    // the caller passes the variables they were computed against.
    if (message_.empty()) {
        message_.reserve(layout_->length());
        for (uint32_t i = 0; i < layout_->length(); ++i)
            message_.push_back(ctx_->FreshVar("msg", 8));
    }
    ACHILLES_CHECK(message_.size() >= layout_->length(),
                   "message shorter than layout");
    for (uint32_t i = 0; i < message_.size(); ++i) {
        ACHILLES_CHECK(message_[i]->IsVar(),
                       "server message bytes must be variables");
        var_to_offset_.emplace(message_[i]->VarId(), i);
    }

    // Which byte offsets participate in the analysis (unmasked fields).
    std::vector<bool> analyzed_byte(layout_->length(), false);
    for (const FieldSpec &f : layout_->AnalyzedFields())
        for (uint32_t k = 0; k < f.size; ++k)
            analyzed_byte[f.offset + k] = true;

    // Pre-build, per client path predicate, the conjunction stating
    // "this server message is one of the predicate's messages":
    // byte equalities over analyzed bytes plus the client constraints.
    home_.match.resize(preds_->size());
    home_.negations.resize(preds_->size());
    for (size_t i = 0; i < preds_->size(); ++i) {
        const ClientPathPredicate &pred = (*preds_)[i];
        for (uint32_t k = 0; k < layout_->length(); ++k) {
            if (!analyzed_byte[k])
                continue;
            home_.match[i].push_back(
                ctx_->MakeEq(message_[k], pred.bytes[k]));
        }
        for (smt::ExprRef c : pred.constraints)
            home_.match[i].push_back(c);
        home_.negations[i] = (*negations_)[i].Usable()
                                 ? (*negations_)[i].Disjunction(ctx_)
                                 : nullptr;
    }
}

void
ExplorerStats::AddTo(obs::CounterView *view) const
{
    view->Add("explorer.match_queries", match_queries);
    view->Add("explorer.trojan_queries", trojan_queries);
    view->Add("explorer.predicate_drops", predicate_drops);
    view->Add("explorer.difffrom_drops", difffrom_drops);
    view->Add("explorer.blocked_by_unusable_negation",
              blocked_by_unusable_negation);
    view->Add("explorer.states_pruned", states_pruned);
    view->Add("explorer.accepting_without_trojans",
              accepting_without_trojans);
    view->Add("explorer.trojans", trojans);
}

ServerExplorer::LiveSet *
ServerExplorer::GetLiveSet(symexec::State &state)
{
    auto *data = dynamic_cast<LiveSet *>(state.user_data());
    if (data == nullptr) {
        auto fresh = std::make_unique<LiveSet>();
        fresh->live.resize(preds_->size());
        for (size_t i = 0; i < preds_->size(); ++i)
            fresh->live[i] = static_cast<uint32_t>(i);
        data = fresh.get();
        state.SetUserData(std::move(fresh));
    }
    return data;
}

smt::CheckResult
ServerExplorer::PredicateMatches(Plane &plane, const symexec::State &state,
                                 size_t i)
{
    // pathS as the base, predicate i's match conjunction as the extras:
    // iterating i over the live set re-asserts the same base without
    // copying it into a new vector per predicate.
    ++plane.stats.match_queries;
    const std::vector<smt::ExprRef> &match = plane.match[i];
    if (state.path_sat())
        return plane.solver->CheckSatOnSatBase(state.constraints(), match);
    return plane.solver->CheckSatAssuming(state.constraints(), match);
}

smt::CheckResult
ServerExplorer::TrojanQuery(
    Plane &plane, const std::vector<smt::ExprRef> &path_constraints,
    bool path_sat, const std::vector<uint32_t> &live, smt::Model *model)
{
    std::vector<smt::ExprRef> negations;
    negations.reserve(live.size());
    for (uint32_t i : live) {
        if (plane.negations[i] == nullptr) {
            // An un-negatable live predicate blocks the whole query: we
            // cannot certify any message as outside its value set.
            ++plane.stats.blocked_by_unusable_negation;
            return smt::CheckResult::kUnsat;
        }
        negations.push_back(plane.negations[i]);
    }
    ++plane.stats.trojan_queries;
    if (model == nullptr && path_sat)
        return plane.solver->CheckSatOnSatBase(path_constraints, negations);
    return plane.solver->CheckSatAssuming(path_constraints, negations,
                                          model);
}

std::vector<std::string>
ServerExplorer::TouchedFields(const Plane &plane, smt::ExprRef e) const
{
    std::vector<std::string> fields;
    for (uint32_t v : plane.ctx->VarsOf(e)) {
        auto it = var_to_offset_.find(v);
        if (it == var_to_offset_.end())
            continue;
        const FieldSpec *f = layout_->FieldAtByte(it->second);
        if (f == nullptr)
            continue;
        if (std::find(fields.begin(), fields.end(), f->name) ==
            fields.end())
            fields.push_back(f->name);
    }
    return fields;
}

bool
ServerExplorer::HandleBranch(Plane &plane, symexec::State &state,
                             smt::ExprRef constraint)
{
    LiveSet *data = GetLiveSet(state);

    // Only constraints over the message can change which client
    // predicates match (skipping others is conservative: we merely keep
    // predicates live longer).
    const std::vector<std::string> fields = TouchedFields(plane, constraint);
    if (!fields.empty() && config_.drop_client_predicates) {
        const bool single_independent_field =
            config_.use_different_from && fields.size() == 1 &&
            different_from_ != nullptr &&
            different_from_->IsIndependentField(fields[0]);

        const std::vector<uint32_t> &live = data->live;
        std::vector<uint32_t> survivors;
        survivors.reserve(live.size());
        // Predicates dropped, before their own visit, through the
        // differentFrom value class of a predicate visited earlier.
        std::vector<bool> class_dropped(preds_->size(), false);
        for (size_t k = 0; k < live.size(); ++k) {
            const uint32_t i = live[k];
            if (class_dropped[i]) {
                ++plane.stats.difffrom_drops;
                continue;
            }
            const smt::CheckResult r = PredicateMatches(plane, state, i);
            if (r != smt::CheckResult::kUnsat) {
                survivors.push_back(i);
                continue;
            }
            ++plane.stats.predicate_drops;
            if (single_independent_field) {
                // Every later predicate in i's value class (and any that
                // has no extra values for this field) dies with i.
                for (size_t m = k + 1; m < live.size(); ++m) {
                    const uint32_t j = live[m];
                    if (!class_dropped[j] &&
                        !different_from_->Different(j, i, fields[0])) {
                        class_dropped[j] = true;
                    }
                }
            }
        }
        data->live = std::move(survivors);
    }

    plane.samples.push_back(
        LiveSetSample{state.depth(), data->live.size()});

    if (config_.prune_trojan_free_states) {
        const smt::CheckResult r = TrojanQuery(
            plane, state.constraints(), state.path_sat(), data->live,
            nullptr);
        if (r == smt::CheckResult::kUnsat) {
            ++plane.stats.states_pruned;
            obs::TraceInstant(plane.obs.tracer, plane.obs.lane,
                              "explorer.state_pruned", "explorer", "state",
                              static_cast<int64_t>(state.id()));
            return false;
        }
    }
    return true;
}

void
ServerExplorer::EmitTrojan(Plane &plane, uint64_t path_id,
                           const std::string &accept_label,
                           const std::vector<smt::ExprRef> &path_constraints,
                           const std::vector<uint32_t> &live)
{
    // A model query is never sliced, so path_sat does not matter here.
    smt::Model model;
    const smt::CheckResult r = TrojanQuery(
        plane, path_constraints, /*path_sat=*/false, live, &model);
    if (r != smt::CheckResult::kSat) {
        ++plane.stats.accepting_without_trojans;
        return;
    }
    TrojanWitness witness;
    witness.server_path_id = path_id;
    witness.accept_label = accept_label;
    witness.definition = path_constraints;
    for (uint32_t i : live)
        witness.definition.push_back(plane.negations[i]);
    witness.concrete.reserve(plane.message->size());
    for (smt::ExprRef byte : *plane.message) {
        witness.concrete.push_back(
            static_cast<uint8_t>(smt::Evaluate(byte, model)));
        witness.message_vars.push_back(byte->VarId());
    }
    witness.bundled_with_valid = !live.empty();
    witness.discovered_at_seconds = timer_.Seconds();
    plane.trojans.push_back(std::move(witness));
    ++plane.stats.trojans;
    obs::TraceInstant(plane.obs.tracer, plane.obs.lane,
                      "explorer.trojan_witness", "explorer", "path",
                      static_cast<int64_t>(path_id));
}

std::vector<symexec::PathResult>
ServerExplorer::RunParallel()
{
    // The worker engines' listeners, in worker order, declared first so
    // that they outlive the engines pointing at them.
    std::vector<std::unique_ptr<Plane>> planes;
    exec::ParallelEngine engine(ctx_, server_, config_.engine,
                                solver_->config());
    engine.SetIncomingMessage(message_);
    if (config_.mode == SearchMode::kIncremental) {
        engine.SetListenerFactory([this, &planes](exec::WorkerContext *wc) {
            planes.push_back(std::make_unique<Plane>(this, wc));
            return planes.back().get();
        });
    }
    std::vector<symexec::PathResult> paths = engine.Run();
    analysis_.stats.Merge(engine.stats());

    // Merge the worker planes' sinks into the home plane's. Witness
    // definitions live in the worker contexts; translate them home so
    // callers can re-solve them against the home message variables,
    // exactly as in a serial run.
    for (const std::unique_ptr<Plane> &plane : planes) {
        plane->stats.AddTo(&analysis_.stats);
        home_.samples.insert(home_.samples.end(), plane->samples.begin(),
                             plane->samples.end());
        for (TrojanWitness &witness : plane->trojans) {
            for (smt::ExprRef &e : witness.definition)
                e = plane->bridge->ToHome(e);
            home_.trojans.push_back(std::move(witness));
        }
    }
    // Deterministic presentation regardless of schedule: witnesses by
    // (schedule-independent) accepting path id, samples by position.
    std::stable_sort(home_.trojans.begin(), home_.trojans.end(),
                     [](const TrojanWitness &a, const TrojanWitness &b) {
                         return a.server_path_id < b.server_path_id;
                     });
    std::stable_sort(home_.samples.begin(), home_.samples.end(),
                     [](const LiveSetSample &a, const LiveSetSample &b) {
                         return a.path_length != b.path_length
                                    ? a.path_length < b.path_length
                                    : a.live_predicates < b.live_predicates;
                     });
    return paths;
}

ServerAnalysis
ServerExplorer::Run()
{
    timer_.Reset();
    const bool incremental = config_.mode == SearchMode::kIncremental;
    std::vector<symexec::PathResult> paths;
    if (config_.engine.num_workers > 1) {
        paths = RunParallel();
    } else {
        symexec::Engine engine(ctx_, solver_, server_,
                               symexec::Mode::kServer, config_.engine);
        engine.SetIncomingMessage(message_);
        if (incremental)
            engine.SetListener(&home_);
        paths = engine.Run();
        analysis_.stats.Merge(engine.stats());
    }

    for (symexec::PathResult &path : paths) {
        if (path.outcome == symexec::PathOutcome::kAccepted)
            analysis_.accepting_paths.push_back(path);
    }

    if (!incremental) {
        // Differencing after the fact: conjoin every predicate's
        // negation on each accepting path. Paths from a parallel run
        // are already home-translated, so this stays a serial pass on
        // the home plane either way.
        std::vector<uint32_t> all(preds_->size());
        for (size_t i = 0; i < all.size(); ++i)
            all[i] = static_cast<uint32_t>(i);
        for (const symexec::PathResult &path : analysis_.accepting_paths) {
            EmitTrojan(home_, path.state_id, path.accept_label,
                       path.constraints, all);
        }
    }

    home_.stats.AddTo(&analysis_.stats);
    analysis_.trojans = std::move(home_.trojans);
    analysis_.live_samples = std::move(home_.samples);
    analysis_.seconds = timer_.Seconds();
    return std::move(analysis_);
}

}  // namespace core
}  // namespace achilles
