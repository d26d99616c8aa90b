// Achilles reproduction -- SMT library.

#include "smt/solver.h"

#include <algorithm>
#include <memory>

#include "smt/bitblast.h"
#include "smt/sat.h"

namespace achilles {
namespace smt {

namespace {

/** The SAT instance SolveFresh reuses: a solver and its blaster. */
struct SatInstance
{
    SatSolver sat;
    BitBlaster blaster{&sat};
};

}  // namespace

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

void
SolverStats::AddTo(obs::CounterView *view) const
{
    view->Add("solver.queries", queries.Get());
    view->Add("solver.unknowns", unknowns.Get());
    view->Add("solver.trivial_sat", trivial_sat);
    view->Add("solver.trivial_unsat", trivial_unsat);
    view->Add("solver.rewritten", rewritten);
    view->Add("solver.cache_hits", cache_hits);
    view->Add("solver.cache_model_upgrades", cache_model_upgrades);
    view->Add("solver.sat_calls", sat_calls);
    view->Add("solver.sat_conflicts", sat_conflicts);
    view->Add("solver.sat_decisions", sat_decisions);
}

Solver::Solver(ExprContext *ctx, SolverConfig config)
    : ctx_(ctx), config_(config)
{
    if (config_.obs.metrics_on()) {
        config_.obs.registry->Attach("solver.queries",
                                     stats_.queries.atomic());
        config_.obs.registry->Attach("solver.unknowns",
                                     stats_.unknowns.atomic());
    }
}

Solver::~Solver()
{
    if (config_.obs.metrics_on()) {
        config_.obs.registry->Detach(stats_.queries.atomic());
        config_.obs.registry->Detach(stats_.unknowns.atomic());
    }
}

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

CheckResult
Solver::CheckSatOnSatBase(const std::vector<ExprRef> &base,
                          const std::vector<ExprRef> &extras)
{
    slice_marks_.resize(ctx_->NumVars());
    slice_marked_.clear();
    const auto mark = [&](const std::vector<uint32_t> &vars) {
        for (uint32_t v : vars) {
            if (!slice_marks_[v]) {
                slice_marks_[v] = 1;
                slice_marked_.push_back(v);
            }
        }
    };
    for (ExprRef e : extras)
        mark(ctx_->VarsOf(e));

    // Keep every base assertion touching a marked variable and mark its
    // variables too, until a pass keeps nothing new.
    slice_base_vars_.clear();
    for (ExprRef e : base)
        slice_base_vars_.push_back(&ctx_->VarsOf(e));
    slice_kept_.assign(base.size(), false);
    for (bool grew = true; grew;) {
        grew = false;
        for (size_t i = 0; i < base.size(); ++i) {
            const std::vector<uint32_t> &vars = *slice_base_vars_[i];
            if (slice_kept_[i] ||
                std::none_of(vars.begin(), vars.end(),
                             [&](uint32_t v) { return slice_marks_[v]; })) {
                continue;
            }
            slice_kept_[i] = true;
            grew = true;
            mark(vars);
        }
    }
    for (uint32_t v : slice_marked_)
        slice_marks_[v] = 0;

    slice_.clear();
    for (size_t i = 0; i < base.size(); ++i) {
        if (slice_kept_[i])
            slice_.push_back(base[i]);
    }
    return CheckSatAssuming(slice_, extras);
}

bool
Solver::Canonicalize(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> *extras, bool substitute)
{
    live_.clear();
    for (const std::vector<ExprRef> *assertions : {&base, extras}) {
        if (assertions == nullptr)
            continue;
        for (ExprRef e : *assertions) {
            ACHILLES_CHECK(e->width() == 1, "non-boolean assertion");
            if (e->IsFalse())
                return false;
            if (!e->IsTrue())
                live_.push_back(e);
        }
    }
    if (substitute && !SubstituteBindings())
        return false;
    // Deduplicate and order structurally. The order fixes the CNF
    // variable numbering of the fresh-instance path, so it must not
    // depend on pointer values: structural order makes the SAT instance
    // -- and therefore the model returned for satisfiable queries --
    // identical across runs and across the id-aligned worker contexts
    // of the parallel explorer. Interning makes a structural tie the
    // same node, so duplicates end up adjacent.
    std::sort(live_.begin(), live_.end(), [](ExprRef a, ExprRef b) {
        return StructuralCompare(a, b) < 0;
    });
    live_.erase(std::unique(live_.begin(), live_.end()), live_.end());
    return true;
}

bool
Solver::SubstituteBindings()
{
    // MakeEq puts a constant operand second, so every `var == const`
    // reads (kEq var const). The first binding of a variable wins; any
    // other equality on it stays and folds to `c1 == c2` below, false
    // unless it is the same constant, so which one wins cannot change
    // the rewritten query.
    bindings_.clear();
    for (ExprRef e : live_) {
        if (e->kind() == Kind::kEq && e->kid(0)->IsVar() &&
            e->kid(1)->IsConst()) {
            bindings_.emplace(e->kid(0)->VarId(), e->kid(1));
        }
    }
    if (bindings_.empty())
        return true;
    ++stats_.rewritten;
    // Rewrite in place: slot `kept` is never ahead of the one read.
    size_t kept = 0;
    for (ExprRef e : live_) {
        const ExprRef rewritten = ctx_->Substitute(e, bindings_);
        if (rewritten->IsFalse())
            return false;
        if (!rewritten->IsTrue())
            live_[kept++] = rewritten;
    }
    live_.resize(kept);
    return true;
}

CheckResult
Solver::CheckSatSets(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> *extras, Model *model)
{
    ++stats_.queries;

    // Observability: one span per query on this solver's lane, finalized
    // with verdict/conflicts by `finish` below on every return path. All
    // of it is behind null-check branches -- with config_.obs unset the
    // query runs exactly as before.
    obs::ScopedSpan span(config_.obs.tracer, config_.obs.lane,
                         "solver.query", "solver");
    const int64_t conflicts_before = stats_.sat_conflicts;
    const auto finish = [&](CheckResult result) -> CheckResult {
        if (result == CheckStatus::kUnknown)
            ++stats_.unknowns;
        if (config_.obs.tracing_on()) {
            const int64_t conflicts =
                stats_.sat_conflicts - conflicts_before;
            span.AddArg("conflicts", conflicts);
            span.AddArg("assertions",
                        static_cast<int64_t>(
                            base.size() +
                            (extras != nullptr ? extras->size() : 0)));
            span.SetStrArg("verdict", CheckResultName(result));
        }
        return result;
    };

    if (!Canonicalize(base, extras, /*substitute=*/model == nullptr)) {
        ++stats_.trivial_unsat;
        if (model)
            *model = Model();
        return finish(CheckStatus::kUnsat);
    }
    if (live_.empty()) {
        ++stats_.trivial_sat;
        if (model)
            *model = Model();
        return finish(CheckStatus::kSat);
    }

    CacheEntry *upgrade_entry = nullptr;
    if (config_.enable_cache) {
        auto it = cache_.find(live_);
        if (it != cache_.end()) {
            CacheEntry &entry = it->second;
            if (model == nullptr || entry.has_model) {
                ++stats_.cache_hits;
                if (model)
                    *model = entry.model;
                return finish(entry.status);
            }
            // kSat cached for a model-less caller but this caller wants
            // a witness: fall through to the solve, which gives the
            // same verdict, and fill the entry in place.
            ++stats_.cache_model_upgrades;
            upgrade_entry = &entry;
        }
    }

    Model out_model;
    const CheckStatus status = SolveFresh(live_, &out_model);

    if (config_.enable_cache && status != CheckStatus::kUnknown) {
        // has_model: kSat entries keep their model only when the caller
        // asked for one; kUnsat/kUnknown answers have the empty model
        // by definition, so those entries can always serve model
        // callers.
        const bool has_model =
            status != CheckStatus::kSat || model != nullptr;
        if (upgrade_entry != nullptr) {
            if (status == CheckStatus::kSat) {
                upgrade_entry->model = out_model;
                upgrade_entry->has_model = true;
            }
        } else {
            cache_.emplace(live_,
                           CacheEntry{status, has_model,
                                      has_model ? out_model : Model()});
        }
    }
    if (model)
        *model = out_model;
    return finish(status);
}

CheckStatus
Solver::SolveFresh(const std::vector<ExprRef> &live, Model *out_model)
{
    ++stats_.sat_calls;
    // Per thread, not per Solver: e2ebench's corpus keeps 122 solvers
    // alive, and one instance each raised its peak_rss_mb from 19.9 to
    // 35.7 MiB. Nothing below calls back into a solver, so the thread's
    // one instance is never in use twice.
    thread_local std::unique_ptr<SatInstance> instance;
    if (instance)
        instance->blaster.Reset();
    else
        instance = std::make_unique<SatInstance>();
    SatSolver &sat = instance->sat;
    BitBlaster &blaster = instance->blaster;
    for (ExprRef e : live)
        blaster.AssertTrue(e);
    const SatStatus status = sat.Solve(config_.max_conflicts);
    stats_.sat_conflicts += sat.counters().conflicts;
    stats_.sat_decisions += sat.counters().decisions;
    if (status == SatStatus::kSat) {
        blaster.ExtractModel(out_model);
        // Re-evaluate every assertion under the model: cheap, and a
        // model that fails is an encoder bug, so it panics.
        for (ExprRef e : live) {
            ACHILLES_CHECK(EvaluateBool(e, *out_model),
                           "model validation failed for: ",
                           ctx_->ToString(e));
        }
    }
    if (sat.NumVars() > kMaxRetainedSatVars)
        instance.reset();

    switch (status) {
      case SatStatus::kSat: return CheckStatus::kSat;
      case SatStatus::kUnsat: return CheckStatus::kUnsat;
      case SatStatus::kUnknown: return CheckStatus::kUnknown;
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

}  // namespace smt
}  // namespace achilles
