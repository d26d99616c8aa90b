// Achilles reproduction -- SMT library.

#include "smt/solver.h"

#include <algorithm>

#include "smt/bitblast.h"
#include "smt/interval.h"
#include "smt/sat.h"

namespace achilles {
namespace smt {

const char *
CheckResultName(CheckStatus s)
{
    switch (s) {
      case CheckStatus::kSat: return "sat";
      case CheckStatus::kUnsat: return "unsat";
      case CheckStatus::kUnknown: return "unknown";
    }
    ACHILLES_UNREACHABLE("bad CheckStatus");
}

/**
 * The persistent solving stack behind model-less queries: one SAT
 * instance accumulating the CNF of every expression node ever asserted,
 * one activation literal per assertion, and learned clauses retained
 * across queries (ReduceDB-capped inside SatSolver).
 */
struct Solver::IncrementalBackend
{
    SatSolver sat;
    BitBlaster blaster;

    IncrementalBackend() : blaster(&sat) {}
};

void
SolverStats::AddTo(obs::CounterView *view) const
{
    view->Add("solver.queries", queries);
    view->Add("solver.trivial_sat", trivial_sat);
    view->Add("solver.trivial_unsat", trivial_unsat);
    view->Add("solver.cache_hits", cache_hits);
    view->Add("solver.cache_model_upgrades", cache_model_upgrades);
    view->Add("solver.interval_unsat", interval_unsat);
    view->Add("solver.interval_cores", interval_cores);
    view->Add("solver.sat_calls", sat_calls);
    view->Add("solver.incremental_sat_calls", incremental_sat_calls);
    view->Add("solver.incremental_resets", incremental_resets);
    view->Add("solver.sat_conflicts", sat_conflicts);
    view->Add("solver.sat_decisions", sat_decisions);
    view->Add("solver.trail_reuses", trail_reuses);
    view->Add("solver.cores_extracted", cores_extracted);
    view->Add("solver.core_literals", core_literals);
}

Solver::Solver(ExprContext *ctx, SolverConfig config)
    : ctx_(ctx), config_(config)
{
    if (config_.obs.metrics_on()) {
        obs_queries_ = config_.obs.CounterFor("solver.queries");
        obs_unknowns_ = config_.obs.CounterFor("solver.unknowns");
        obs_conflicts_ = config_.obs.DistributionFor("solver.conflicts");
        obs_core_size_ = config_.obs.DistributionFor("solver.core_size");
    }
}

Solver::~Solver() = default;

size_t
Solver::AssertionsHash::operator()(
    const std::vector<ExprRef> &assertions) const
{
    // Order-insensitive accumulation over node pointers (interning makes
    // pointer identity equal structural identity). Collisions are
    // harmless: the map compares the full vectors on lookup.
    uint64_t key = 0x51ed270b9f9f2b4dull;
    for (ExprRef e : assertions) {
        uint64_t h = reinterpret_cast<uint64_t>(e);
        h *= 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
        key += h;
    }
    return static_cast<size_t>(key);
}

CheckResult
Solver::CheckSatExpr(ExprRef e, Model *model)
{
    std::vector<ExprRef> conjuncts;
    FlattenConjunction(e, &conjuncts);
    return CheckSat(conjuncts, model);
}

CheckResult
Solver::CheckSat(const std::vector<ExprRef> &assertions, Model *model)
{
    return CheckSatSets(assertions, nullptr, model);
}

CheckResult
Solver::CheckSatAssuming(const std::vector<ExprRef> &base,
                         const std::vector<ExprRef> &extras, Model *model)
{
    return CheckSatSets(base, &extras, model);
}

bool
Solver::Canonicalize(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> *extras,
                     std::vector<ExprRef> *live,
                     std::vector<uint32_t> *caller_index,
                     uint32_t *false_index) const
{
    // Collect live assertions tagged with their caller position (base
    // first, then extras) so unsat cores can be mapped back.
    std::vector<std::pair<ExprRef, uint32_t>> entries;
    entries.reserve(base.size() + (extras ? extras->size() : 0));
    uint32_t idx = 0;
    for (size_t part = 0; part < 2; ++part) {
        const std::vector<ExprRef> *assertions =
            part == 0 ? &base : extras;
        if (assertions == nullptr)
            continue;
        for (ExprRef e : *assertions) {
            ACHILLES_CHECK(e->width() == 1, "non-boolean assertion");
            if (e->IsFalse()) {
                *false_index = idx;
                return false;
            }
            if (!e->IsTrue())
                entries.emplace_back(e, idx);
            ++idx;
        }
    }
    // Deduplicate and order structurally. The order fixes the CNF
    // variable numbering of the fresh-instance path, so it must not
    // depend on pointer values: structural order makes the SAT instance
    // -- and therefore the model returned for satisfiable queries --
    // identical across runs and across the id-aligned worker contexts
    // of the parallel explorer. The incremental backend reuses it as a
    // deterministic assumption order. Ties break on caller position so
    // duplicates collapse onto their first occurrence.
    std::sort(entries.begin(), entries.end(),
              [](const std::pair<ExprRef, uint32_t> &a,
                 const std::pair<ExprRef, uint32_t> &b) {
                  const int c = StructuralCompare(a.first, b.first);
                  return c != 0 ? c < 0 : a.second < b.second;
              });
    live->reserve(entries.size());
    caller_index->reserve(entries.size());
    for (const auto &[e, pos] : entries) {
        if (!live->empty() && live->back() == e)
            continue;
        live->push_back(e);
        caller_index->push_back(pos);
    }
    return true;
}

CheckResult
Solver::CheckSatSets(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> *extras, Model *model)
{
    ++stats_.queries;

    // Observability: one span per query on this solver's lane, finalized
    // with verdict/conflicts/core by `finish` below on every return
    // path. All of it is behind null-check branches -- with
    // config_.obs unset the query runs exactly as before.
    obs::ScopedSpan span(config_.obs.tracer, config_.obs.lane,
                         "solver.query", "solver");
    const bool obs_on = config_.obs.enabled();
    const int64_t conflicts_before = stats_.sat_conflicts;
    const auto finish = [&](CheckResult result) -> CheckResult {
        obs_queries_.Bump();
        if (result.status == CheckStatus::kUnknown)
            obs_unknowns_.Bump();
        if (obs_on) {
            const int64_t conflicts =
                stats_.sat_conflicts - conflicts_before;
            obs_conflicts_.Record(conflicts);
            span.AddArg("conflicts", conflicts);
            span.AddArg("assertions",
                        static_cast<int64_t>(
                            base.size() +
                            (extras != nullptr ? extras->size() : 0)));
            if (result.has_core) {
                obs_core_size_.Record(
                    static_cast<int64_t>(result.core.size()));
                span.AddArg("core", static_cast<int64_t>(result.core.size()));
            }
            span.SetStrArg("verdict", CheckResultName(result));
        }
        return result;
    };

    // Cores only accompany answers the model-less, unbudgeted
    // incremental path could have produced -- including the trivial
    // ones, so has_core remains a reliable proxy for "decided on the
    // core-producing path" (budgeted and model-producing queries are
    // always core-less, per the CheckResult contract).
    const bool incremental_path = model == nullptr &&
                                  config_.enable_incremental &&
                                  config_.unbudgeted();
    const bool core_path = incremental_path && config_.enable_cores;

    std::vector<ExprRef> live;
    std::vector<uint32_t> caller_index;
    uint32_t false_index = 0;
    if (!Canonicalize(base, extras, &live, &caller_index, &false_index)) {
        ++stats_.trivial_unsat;
        if (model)
            *model = Model();
        CheckResult result(CheckStatus::kUnsat);
        if (core_path) {
            result.has_core = true;
            result.core.push_back(false_index);
        }
        return finish(result);
    }
    if (live.empty()) {
        ++stats_.trivial_sat;
        if (model)
            *model = Model();
        return finish(CheckStatus::kSat);
    }

    // Cores travel through both caches in canonical (live-vector)
    // indices; per-call they are mapped to the caller's positions.
    const auto core_to_caller = [&](const std::vector<uint32_t> &live_core) {
        std::vector<uint32_t> out;
        out.reserve(live_core.size());
        for (uint32_t k : live_core)
            out.push_back(caller_index[k]);
        std::sort(out.begin(), out.end());
        return out;
    };

    CacheEntry *upgrade_entry = nullptr;
    if (config_.enable_cache) {
        auto it = cache_.find(live);
        if (it != cache_.end()) {
            CacheEntry &entry = it->second;
            if (model == nullptr || entry.has_model) {
                ++stats_.cache_hits;
                if (model)
                    *model = entry.model;
                CheckResult result(entry.status);
                if (entry.has_core && core_path) {
                    result.has_core = true;
                    result.core = core_to_caller(entry.core);
                }
                return finish(result);
            }
            // kSat cached off the model-less incremental path but the
            // caller wants a witness: fall through to the fresh solve
            // and fill the entry in place.
            ++stats_.cache_model_upgrades;
            upgrade_entry = &entry;
        }
    }

    // Interval pre-check. On the core-producing path it runs in
    // attribution mode: the checker names the assertions that narrowed
    // the refuting interval (seed atoms map 1:1 to assertions), so
    // interval-refutable queries keep both the fast path and the core
    // every consumer downstream drops predicates with.
    if (config_.use_interval_check && upgrade_entry == nullptr) {
        IntervalChecker checker(ctx_);
        if (core_path) {
            std::vector<uint32_t> interval_core;
            if (checker.DefinitelyUnsatWithCore(live, &interval_core)) {
                ++stats_.interval_unsat;
                ++stats_.interval_cores;
                if (config_.enable_cache) {
                    cache_.emplace(
                        live, CacheEntry{CheckStatus::kUnsat,
                                         /*has_model=*/true, Model(),
                                         /*has_core=*/true,
                                         interval_core});
                }
                CheckResult result(CheckStatus::kUnsat);
                result.has_core = true;
                result.core = core_to_caller(interval_core);
                return finish(result);
            }
        } else if (checker.DefinitelyUnsat(live)) {
            ++stats_.interval_unsat;
            if (config_.enable_cache) {
                cache_.emplace(live,
                               CacheEntry{CheckStatus::kUnsat,
                                          /*has_model=*/true, Model(),
                                          /*has_core=*/false, {}});
            }
            if (model)
                *model = Model();
            // Proof without attribution: no core on this arm.
            return finish(CheckStatus::kUnsat);
        }
    }

    CheckStatus status;
    bool got_core = false;
    std::vector<uint32_t> live_core;
    Model out_model;
    // The incremental path serves model-less, unlimited-budget queries
    // only. Model-producing queries need the fresh instance for
    // deterministic witness bytes; budgeted queries need it because a
    // conflict budget spent against history-dependent learned clauses
    // would make the kUnsat/kUnknown boundary depend on the query
    // stream, not the query.
    if (incremental_path) {
        status = SolveIncremental(live, &got_core, &live_core);
    } else {
        status = SolveFresh(live, &out_model);
    }

    if (config_.retain_models && status == CheckStatus::kSat) {
        if (incremental_path) {
            // The assignment is standing in the persistent instance;
            // extraction is deferred to the next StandingModel() read.
            standing_live_ = live;
        } else {
            for (const auto &[id, value] : out_model.values())
                standing_model_.Set(id, value);
            has_standing_model_ = true;
            standing_live_.clear();  // the fresh values are newer
        }
    }

    if (config_.enable_cache && status != CheckStatus::kUnknown) {
        // has_model: kSat entries carry a model only when one was
        // computed; kUnsat/kUnknown answers have the empty model by
        // definition, so those entries can always serve model callers.
        const bool has_model =
            status != CheckStatus::kSat || model != nullptr;
        if (upgrade_entry != nullptr) {
            if (status == CheckStatus::kSat) {
                upgrade_entry->model = out_model;
                upgrade_entry->has_model = true;
            }
        } else {
            cache_.emplace(live, CacheEntry{status, has_model, out_model,
                                            got_core, live_core});
        }
    }
    CheckResult result(status);
    if (got_core) {
        result.has_core = true;
        result.core = core_to_caller(live_core);
    }
    if (model)
        *model = out_model;
    return finish(result);
}

CheckStatus
Solver::SolveFresh(const std::vector<ExprRef> &live, Model *out_model)
{
    ++stats_.sat_calls;
    SatSolver sat;
    BitBlaster blaster(&sat);
    for (ExprRef e : live)
        blaster.AssertTrue(e);
    const SatStatus status = sat.Solve({}, config_.max_conflicts);
    stats_.sat_conflicts += sat.counters().conflicts;
    stats_.sat_decisions += sat.counters().decisions;

    switch (status) {
      case SatStatus::kUnsat:
        return CheckStatus::kUnsat;
      case SatStatus::kUnknown:
        return CheckStatus::kUnknown;
      case SatStatus::kSat: {
        std::unordered_set<uint32_t> vars;
        for (ExprRef e : live)
            ctx_->CollectVars(e, &vars);
        for (uint32_t id : vars)
            out_model->Set(id, blaster.VarValueFromModel(id));
        // Re-evaluate every assertion under the model: cheap, and a
        // model that fails is an encoder bug, so it panics.
        for (ExprRef e : live) {
            ACHILLES_CHECK(EvaluateBool(e, *out_model),
                           "model validation failed for: ",
                           ctx_->ToString(e));
        }
        return CheckStatus::kSat;
      }
    }
    ACHILLES_UNREACHABLE("bad SatStatus");
}

void
Solver::EnsureIncrementalBackend()
{
    if (inc_ && inc_->sat.NumVars() > config_.incremental_max_vars) {
        ++stats_.incremental_resets;
        // A deferred standing assignment lives in the instance about to
        // die; pull it into the rolling model first.
        RefreshStandingModel();
        inc_.reset();
    }
    if (!inc_)
        inc_ = std::make_unique<IncrementalBackend>();
}

void
Solver::GuardAssertions(const std::vector<ExprRef> &live,
                        std::vector<Lit> *assumptions)
{
    assumptions->reserve(assumptions->size() + live.size());
    for (ExprRef e : live)
        assumptions->push_back(inc_->blaster.ActivationLit(e));
}

CheckStatus
Solver::SolveIncremental(const std::vector<ExprRef> &live, bool *has_core,
                         std::vector<uint32_t> *core)
{
    *has_core = false;
    core->clear();
    EnsureIncrementalBackend();
    ++stats_.incremental_sat_calls;
    inc_->sat.SetMinimizeCore(config_.enable_cores);
    inc_->sat.SetTrailReuse(config_.enable_trail_reuse);

    std::vector<Lit> assumptions;
    GuardAssertions(live, &assumptions);
    const SatStats before = inc_->sat.counters();
    const SatStatus status =
        inc_->sat.Solve(assumptions, config_.max_conflicts);
    const SatStats &after = inc_->sat.counters();
    stats_.sat_conflicts += after.conflicts - before.conflicts;
    stats_.sat_decisions += after.decisions - before.decisions;
    stats_.trail_reuses += after.trail_reuses - before.trail_reuses;

    switch (status) {
      case SatStatus::kUnsat:
        if (config_.enable_cores) {
            // Map core activation literals back to positions in `live`.
            // Both sequences are in assumption order, so a single merge
            // pass suffices and the indices come out ascending.
            const std::vector<Lit> &sat_core = inc_->sat.unsat_core();
            *has_core = true;
            core->reserve(sat_core.size());
            uint32_t k = 0;
            for (Lit l : sat_core) {
                while (k < assumptions.size() && assumptions[k] != l)
                    ++k;
                if (k == assumptions.size())
                    break;
                core->push_back(k++);
            }
            ++stats_.cores_extracted;
            stats_.core_literals += static_cast<int64_t>(core->size());
        }
        return CheckStatus::kUnsat;
      case SatStatus::kUnknown: return CheckStatus::kUnknown;
      case SatStatus::kSat: return CheckStatus::kSat;
    }
    ACHILLES_UNREACHABLE("bad SatStatus");
}

BatchOutcome
Solver::CheckSatBatch(const std::vector<ExprRef> &base,
                      const std::vector<const std::vector<ExprRef> *> &groups)
{
    BatchOutcome out;
    out.verdicts.reserve(groups.size());
    for (const std::vector<ExprRef> *group : groups)
        out.verdicts.push_back(CheckSatAssuming(base, *group));
    return out;
}

void
Solver::RefreshStandingModel()
{
    if (standing_live_.empty())
        return;
    if (inc_) {
        // Every variable of the pending assertions was blasted before
        // the kSat that deferred them, so the instance's standing
        // assignment covers them all.
        std::unordered_set<uint32_t> vars;
        for (ExprRef e : standing_live_)
            ctx_->CollectVars(e, &vars);
        for (uint32_t id : vars)
            standing_model_.Set(id, inc_->blaster.VarValueFromModel(id));
        has_standing_model_ = true;
    }
    standing_live_.clear();
}

const Model *
Solver::StandingModel()
{
    if (!config_.retain_models)
        return nullptr;
    RefreshStandingModel();
    return has_standing_model_ ? &standing_model_ : nullptr;
}

}  // namespace smt
}  // namespace achilles
