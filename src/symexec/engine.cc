// Achilles reproduction -- symbolic execution engine.

#include "symexec/engine.h"

#include <algorithm>

#include "support/hash.h"

namespace achilles {
namespace symexec {

const char *
PathOutcomeName(PathOutcome o)
{
    switch (o) {
      case PathOutcome::kRunning: return "running";
      case PathOutcome::kAccepted: return "accepted";
      case PathOutcome::kRejected: return "rejected";
      case PathOutcome::kClientDone: return "client-done";
      case PathOutcome::kKilled: return "killed";
      case PathOutcome::kLimit: return "limit";
    }
    ACHILLES_UNREACHABLE("bad PathOutcome");
}

void
EngineStats::AddTo(obs::CounterView *view) const
{
    view->Add("engine.instructions", instructions);
    view->Add("engine.states_created", states_created);
    view->Add("engine.forks", forks);
    view->Add("engine.paths_finished", paths_finished);
    view->Add("engine.finished_path_drops", finished_path_drops);
    view->Add("engine.state_budget_drops", state_budget_drops);
    view->Add("engine.listener_pruned", listener_pruned);
    view->Add("engine.sends", sends);
    view->Add("engine.error_replies", error_replies);
    view->Add("engine.symbolic_inputs", symbolic_inputs);
    view->Add("engine.make_symbolic", make_symbolic);
    view->Add("engine.oob_reads", oob_reads);
    view->Add("engine.oob_writes", oob_writes);
    view->Add("engine.symbolic_index_reads", symbolic_index_reads);
    view->Add("engine.symbolic_index_writes", symbolic_index_writes);
}

Engine::Engine(smt::ExprContext *ctx, smt::Solver *solver,
               const Program *program, Mode mode, EngineConfig config)
    : ctx_(ctx), solver_(solver), program_(program), mode_(mode),
      config_(config)
{
    if (config_.obs.metrics_on()) {
        obs_steps_ = config_.obs.CounterFor("engine.steps");
        obs_forks_ = config_.obs.CounterFor("engine.states");
        // The serial frontier gauge belongs to the home engine; parallel
        // worker engines (lane >= 1) leave the name to the scheduler's
        // queued-state gauge registered by exec::ParallelEngine.
        if (config_.obs.lane == 0) {
            std::atomic<int64_t> *frontier = &frontier_;
            config_.obs.registry->RegisterGauge(
                "engine.frontier", [frontier] {
                    return frontier->load(std::memory_order_relaxed);
                });
        }
    }
    ACHILLES_CHECK(!program_->functions.empty(), "empty program");
    const int main_idx = program_->FindFunction("main");
    entry_func_ = main_idx >= 0 ? static_cast<uint32_t>(main_idx) : 0;
}

Engine::~Engine()
{
    // Freeze the serial frontier gauge: the lambda registered in the
    // constructor captures this engine's member, and a heartbeat
    // sampler may keep reading the name after this storage dies (or is
    // reused by the next phase's engine).
    if (config_.obs.metrics_on() && config_.obs.lane == 0) {
        const int64_t value = frontier_.load(std::memory_order_relaxed);
        config_.obs.registry->RegisterGauge("engine.frontier",
                                            [value] { return value; });
    }
}

void
Engine::SetIncomingMessage(std::vector<smt::ExprRef> bytes)
{
    incoming_ = std::move(bytes);
}

smt::ExprRef
Engine::ReadArrayCell(State &state [[maybe_unused]], ArrayObject &array,
                      smt::ExprRef index)
{
    const size_t len = array.cells.size();
    if (index->IsConst()) {
        const uint64_t i = index->ConstValue();
        if (i < len)
            return array.cells[i];
        // Out-of-bounds concrete read: model as unconstrained memory
        // (the read does not crash our abstract machine; the Trojan
        // analysis cares about acceptance, not the read value).
        ++stats_.oob_reads;
        return ctx_->FreshVar("oob", array.elem_width);
    }
    // Symbolic index: if-then-else chain over the cells, with an
    // unconstrained default for out-of-bounds (KLEE would fork; the ITE
    // encoding avoids state explosion and keeps the path intact).
    ++stats_.symbolic_index_reads;
    smt::ExprRef result = ctx_->FreshVar("oob", array.elem_width);
    for (size_t i = len; i > 0; --i) {
        smt::ExprRef guard = ctx_->MakeEq(
            index, ctx_->MakeConst(index->width(), i - 1));
        result = ctx_->MakeIte(guard, array.cells[i - 1], result);
    }
    return result;
}

smt::ExprRef
Engine::EvalExpr(State &state, const DExprRef &e)
{
    ACHILLES_CHECK(e != nullptr, "evaluating empty DSL expression");
    switch (e->kind) {
      case DKind::kConst:
        return ctx_->MakeConst(e->width, e->value);
      case DKind::kVarRef: {
        auto *slot = state.FindLocal(e->name);
        ACHILLES_CHECK(slot != nullptr, "undeclared variable ", e->name);
        ACHILLES_CHECK(slot->first == e->width, "width mismatch reading ",
                       e->name);
        return slot->second;
      }
      case DKind::kArrayRef: {
        ArrayObject *array = state.FindArray(e->name);
        ACHILLES_CHECK(array != nullptr, "undeclared array ", e->name);
        smt::ExprRef index = EvalExpr(state, e->kids[0]);
        return ReadArrayCell(state, *array, index);
      }
      case DKind::kOp: {
        switch (e->op) {
          case smt::Kind::kNot:
            return ctx_->MakeNot(EvalExpr(state, e->kids[0]));
          case smt::Kind::kZExt:
            return ctx_->MakeZExt(EvalExpr(state, e->kids[0]), e->width);
          case smt::Kind::kSExt:
            return ctx_->MakeSExt(EvalExpr(state, e->kids[0]), e->width);
          case smt::Kind::kExtract:
            return ctx_->MakeExtract(EvalExpr(state, e->kids[0]),
                                     static_cast<uint32_t>(e->value),
                                     e->width);
          default:
            break;
        }
        smt::ExprRef a = EvalExpr(state, e->kids[0]);
        smt::ExprRef b = EvalExpr(state, e->kids[1]);
        switch (e->op) {
          case smt::Kind::kAdd: return ctx_->MakeAdd(a, b);
          case smt::Kind::kSub: return ctx_->MakeSub(a, b);
          case smt::Kind::kMul: return ctx_->MakeMul(a, b);
          case smt::Kind::kUDiv: return ctx_->MakeUDiv(a, b);
          case smt::Kind::kURem: return ctx_->MakeURem(a, b);
          case smt::Kind::kAnd: return ctx_->MakeAnd(a, b);
          case smt::Kind::kOr: return ctx_->MakeOr(a, b);
          case smt::Kind::kXor: return ctx_->MakeXor(a, b);
          case smt::Kind::kShl: return ctx_->MakeShl(a, b);
          case smt::Kind::kLShr: return ctx_->MakeLShr(a, b);
          case smt::Kind::kAShr: return ctx_->MakeAShr(a, b);
          case smt::Kind::kConcat: return ctx_->MakeConcat(a, b);
          case smt::Kind::kEq: return ctx_->MakeEq(a, b);
          case smt::Kind::kUlt: return ctx_->MakeUlt(a, b);
          case smt::Kind::kUle: return ctx_->MakeUle(a, b);
          case smt::Kind::kSlt: return ctx_->MakeSlt(a, b);
          case smt::Kind::kSle: return ctx_->MakeSle(a, b);
          default:
            ACHILLES_UNREACHABLE("bad DSL op");
        }
      }
    }
    ACHILLES_UNREACHABLE("bad DKind");
}

smt::CheckResult
Engine::Feasible(const State &state, smt::ExprRef extra)
{
    // The base/extras split passes the path prefix by reference instead
    // of copying it per branch. On a path proven satisfiable only the
    // constraints sharing a variable with `extra` can decide the check.
    if (state.path_sat())
        return solver_->CheckSatOnSatBase(state.constraints(), {extra});
    return solver_->CheckSatAssuming(state.constraints(), {extra});
}

void
Engine::FinalizePath(State &state, PathOutcome outcome)
{
    state.SetOutcome(outcome);
    // Respect max_finished_paths BEFORE finalizing: once the budget is
    // spent, a finishing path is dropped without being recorded or
    // reported to the listener, so a run never returns more than the
    // configured number of results. The parallel engine installs a gate
    // here to enforce the cap globally across workers.
    const bool admit = finalize_gate_
                           ? finalize_gate_()
                           : results_.size() < config_.max_finished_paths;
    if (!admit) {
        ++stats_.finished_path_drops;
        return;
    }
    // Accept notification happens here, after admission, so a listener
    // never sees (and e.g. emits a Trojan witness for) a path that the
    // budget drops -- that would desynchronize witnesses from results
    // and make capped parallel runs schedule-dependent.
    if (outcome == PathOutcome::kAccepted && listener_)
        listener_->OnAccept(state);
    PathResult result;
    result.state_id = state.id();
    result.outcome = outcome;
    result.constraints = state.constraints();
    result.sent = state.sent();
    result.accept_label = state.accept_label;
    result.depth = state.depth();
    results_.push_back(std::move(result));
    ++stats_.paths_finished;
}

void
Engine::ExecuteStep(State &state, std::vector<std::unique_ptr<State>> *spawned)
{
    CallFrame &frame = state.TopFrame();
    const Function &fn = program_->FunctionByIndex(frame.func);
    ACHILLES_CHECK(frame.pc < fn.instrs.size(), "pc out of range in ",
                   fn.name);
    const Instr &ins = fn.instrs[frame.pc];
    ++frame.pc;  // default fallthrough; control flow overwrites below
    ++stats_.instructions;

    switch (ins.op) {
      case IOp::kDeclare: {
        smt::ExprRef init = ins.e0 ? EvalExpr(state, ins.e0)
                                   : ctx_->MakeConst(ins.a, 0);
        state.TopFrame().locals[ins.dest] = {ins.a, init};
        break;
      }
      case IOp::kDeclArray: {
        ArrayObject array;
        array.elem_width = ins.a;
        array.cells.assign(ins.b, ctx_->MakeConst(ins.a, 0));
        state.TopFrame().arrays[ins.array] = std::move(array);
        break;
      }
      case IOp::kAssign: {
        smt::ExprRef value = EvalExpr(state, ins.e0);
        auto *slot = state.FindLocal(ins.dest);
        ACHILLES_CHECK(slot != nullptr, "assign to undeclared ", ins.dest);
        slot->second = value;
        break;
      }
      case IOp::kAStore: {
        ArrayObject *array = state.FindArray(ins.array);
        ACHILLES_CHECK(array != nullptr, "store to undeclared array ",
                       ins.array);
        smt::ExprRef index = EvalExpr(state, ins.e0);
        smt::ExprRef value = EvalExpr(state, ins.e1);
        if (index->IsConst()) {
            const uint64_t i = index->ConstValue();
            if (i < array->cells.size())
                array->cells[i] = value;
            else
                ++stats_.oob_writes;
        } else {
            ++stats_.symbolic_index_writes;
            for (size_t i = 0; i < array->cells.size(); ++i) {
                smt::ExprRef guard = ctx_->MakeEq(
                    index, ctx_->MakeConst(index->width(), i));
                array->cells[i] =
                    ctx_->MakeIte(guard, value, array->cells[i]);
            }
        }
        break;
      }
      case IOp::kBranch: {
        smt::ExprRef cond = EvalExpr(state, ins.e0);
        if (cond->IsConst()) {
            frame.pc = cond->ConstValue() ? ins.a : ins.b;
            break;
        }
        state.BumpDepth();
        smt::ExprRef not_cond = ctx_->MakeNot(cond);
        // kUnknown is treated as feasible: exploration must
        // over-approximate reachability to stay complete. Only kSat
        // proves the extended path satisfiable.
        const smt::CheckResult r_true = Feasible(state, cond);
        const smt::CheckResult r_false = Feasible(state, not_cond);
        const bool feas_true = r_true != smt::CheckResult::kUnsat;
        const bool feas_false = r_false != smt::CheckResult::kUnsat;
        const bool sat_true = r_true == smt::CheckResult::kSat;
        const bool sat_false = r_false == smt::CheckResult::kSat;
        if (feas_true && feas_false) {
            ++stats_.forks;
            auto other = state.Clone(NextChildId(state));
            other->TopFrame().pc = ins.b;
            other->AddConstraint(not_cond, sat_false);
            bool keep_other = true;
            if (listener_)
                keep_other = listener_->OnBranch(*other, not_cond);
            if (keep_other) {
                spawned->push_back(std::move(other));
            } else {
                ++stats_.listener_pruned;
                FinalizePath(*other, PathOutcome::kKilled);
            }

            frame.pc = ins.a;
            state.AddConstraint(cond, sat_true);
            if (listener_ && !listener_->OnBranch(state, cond)) {
                ++stats_.listener_pruned;
                FinalizePath(state, PathOutcome::kKilled);
            }
        } else if (feas_true) {
            frame.pc = ins.a;
            state.AddConstraint(cond, sat_true);
            if (listener_ && !listener_->OnBranch(state, cond)) {
                ++stats_.listener_pruned;
                FinalizePath(state, PathOutcome::kKilled);
            }
        } else if (feas_false) {
            frame.pc = ins.b;
            state.AddConstraint(not_cond, sat_false);
            if (listener_ && !listener_->OnBranch(state, not_cond)) {
                ++stats_.listener_pruned;
                FinalizePath(state, PathOutcome::kKilled);
            }
        } else {
            // Current path condition itself is infeasible; drop.
            FinalizePath(state, PathOutcome::kKilled);
        }
        break;
      }
      case IOp::kJump:
        frame.pc = ins.a;
        break;
      case IOp::kCall: {
        const Function &callee = program_->FunctionByIndex(ins.a);
        CallFrame new_frame;
        new_frame.func = ins.a;
        new_frame.pc = 0;
        new_frame.ret_dest = ins.dest;
        for (size_t i = 0; i < callee.params.size(); ++i) {
            smt::ExprRef arg = EvalExpr(state, ins.args[i]);
            new_frame.locals[callee.params[i].first] = {
                callee.params[i].second, arg};
        }
        state.frames().push_back(std::move(new_frame));
        break;
      }
      case IOp::kRet: {
        smt::ExprRef ret_value = nullptr;
        if (ins.e0)
            ret_value = EvalExpr(state, ins.e0);
        const std::string ret_dest = state.TopFrame().ret_dest;
        if (state.FrameDepth() == 1) {
            // Main returned: classify by the default rule -- a server
            // that replied accepted the message; one that fell back to
            // its event loop without replying rejected it.
            if (mode_ == Mode::kServer) {
                FinalizePath(state, state.replied()
                                        ? PathOutcome::kAccepted
                                        : PathOutcome::kRejected);
            } else {
                FinalizePath(state, PathOutcome::kClientDone);
            }
            break;
        }
        const uint32_t ret_width =
            program_->FunctionByIndex(state.TopFrame().func).ret_width;
        state.frames().pop_back();
        if (!ret_dest.empty()) {
            ACHILLES_CHECK(ret_value != nullptr,
                           "missing return value for ", ret_dest);
            state.TopFrame().locals[ret_dest] = {ret_width, ret_value};
        }
        break;
      }
      case IOp::kHalt:
        if (mode_ == Mode::kServer) {
            FinalizePath(state, state.replied() ? PathOutcome::kAccepted
                                                : PathOutcome::kRejected);
        } else {
            FinalizePath(state, PathOutcome::kClientDone);
        }
        break;
      case IOp::kReadInput: {
        smt::ExprRef fresh = ctx_->FreshVar(
            ins.label.empty() ? "input" : ins.label, ins.a);
        state.TopFrame().locals[ins.dest] = {ins.a, fresh};
        ++stats_.symbolic_inputs;
        break;
      }
      case IOp::kRecv: {
        ArrayObject array;
        array.elem_width = ins.a;
        if (mode_ == Mode::kServer) {
            ACHILLES_CHECK(!incoming_.empty(),
                           "server Recv with no incoming message set");
            ACHILLES_CHECK(incoming_.size() >= ins.b,
                           "incoming message shorter than Recv buffer");
            array.cells.assign(incoming_.begin(),
                               incoming_.begin() + ins.b);
        } else {
            // Client receiving a reply: unconstrained bytes.
            for (uint32_t i = 0; i < ins.b; ++i)
                array.cells.push_back(ctx_->FreshVar("reply", ins.a));
        }
        state.TopFrame().arrays[ins.array] = std::move(array);
        break;
      }
      case IOp::kSend: {
        ArrayObject *array = state.FindArray(ins.array);
        ACHILLES_CHECK(array != nullptr, "send of undeclared array ",
                       ins.array);
        SentMessage msg;
        msg.bytes = array->cells;
        msg.label = ins.label;
        // Error-reply classification: a reply starting with a concrete
        // error code (HTTP-4xx style) does not count as acceptance.
        bool error_reply = false;
        if (mode_ == Mode::kServer && !config_.error_reply_codes.empty() &&
            !msg.bytes.empty() && msg.bytes[0]->IsConst()) {
            const uint64_t code = msg.bytes[0]->ConstValue();
            for (uint8_t error_code : config_.error_reply_codes)
                error_reply |= (code == error_code);
        }
        state.AddSent(std::move(msg));
        if (error_reply)
            ++stats_.error_replies;
        else
            state.SetReplied();
        ++stats_.sends;
        if (mode_ == Mode::kClient && config_.stop_client_after_send)
            FinalizePath(state, PathOutcome::kClientDone);
        break;
      }
      case IOp::kMarkAccept:
        state.accept_label = ins.label;
        FinalizePath(state, PathOutcome::kAccepted);
        break;
      case IOp::kMarkReject:
        state.accept_label = ins.label;
        FinalizePath(state, PathOutcome::kRejected);
        break;
      case IOp::kAssume: {
        smt::ExprRef cond = EvalExpr(state, ins.e0);
        if (cond->IsFalse()) {
            FinalizePath(state, PathOutcome::kKilled);
            break;
        }
        if (!cond->IsTrue()) {
            const smt::CheckResult r = Feasible(state, cond);
            if (r == smt::CheckResult::kUnsat) {
                FinalizePath(state, PathOutcome::kKilled);
                break;
            }
            state.AddConstraint(cond, r == smt::CheckResult::kSat);
            if (listener_ && !listener_->OnBranch(state, cond)) {
                ++stats_.listener_pruned;
                FinalizePath(state, PathOutcome::kKilled);
            }
        }
        break;
      }
      case IOp::kDropPath:
        FinalizePath(state, PathOutcome::kKilled);
        break;
      case IOp::kMakeSymbolic: {
        smt::ExprRef fresh = ctx_->FreshVar(
            ins.label.empty() ? "sym" : ins.label, ins.a);
        auto *slot = state.FindLocal(ins.dest);
        if (slot) {
            ACHILLES_CHECK(slot->first == ins.a);
            slot->second = fresh;
        } else {
            state.TopFrame().locals[ins.dest] = {ins.a, fresh};
        }
        ++stats_.make_symbolic;
        break;
      }
    }
}

namespace {

/** Mix (parent id, fork sequence) into a schedule-independent child id. */
uint64_t
DeriveChildId(uint64_t parent, uint32_t seq)
{
    return MixBits(parent + 0x9e3779b97f4a7c15ull * (seq + 1));
}

}  // namespace

uint64_t
Engine::NextChildId(State &parent)
{
    ++stats_.states_created;
    obs_forks_.Bump();
    if (config_.deterministic_state_ids)
        return DeriveChildId(parent.id(), parent.NextForkSeq());
    return next_state_id_++;
}

std::unique_ptr<State>
Engine::MakeInitialState()
{
    ++stats_.states_created;
    const uint64_t id =
        config_.deterministic_state_ids ? 0 : next_state_id_++;
    auto initial = std::make_unique<State>(id, program_);
    initial->TopFrame().func = entry_func_;
    return initial;
}

bool
Engine::AdvanceState(State &state,
                     std::vector<std::unique_ptr<State>> *spawned)
{
    obs::ScopedSpan span(config_.obs.tracer, config_.obs.lane,
                         "engine.step", "engine");
    obs_steps_.Bump();
    if (config_.obs.tracing_on())
        span.AddArg("state", static_cast<int64_t>(state.id()));
    // Run the state until it forks, finishes, or exhausts its budget.
    while (!state.Finished()) {
        if (state.steps() >= config_.max_steps_per_state) {
            FinalizePath(state, PathOutcome::kLimit);
            break;
        }
        state.BumpSteps();
        ExecuteStep(state, spawned);
        if (!spawned->empty())
            break;
    }
    return state.Finished();
}

std::vector<PathResult>
Engine::Run()
{
    results_.clear();
    worklist_.clear();
    worklist_.push_back(MakeInitialState());

    while (!worklist_.empty() &&
           results_.size() < config_.max_finished_paths) {
        std::unique_ptr<State> state = std::move(worklist_.back());
        worklist_.pop_back();
        std::vector<std::unique_ptr<State>> spawned;
        AdvanceState(*state, &spawned);
        for (auto &s : spawned) {
            if (worklist_.size() >= config_.max_states) {
                // Graceful degradation: finish the subtree as a limit
                // path instead of exploring it (keeps the engine usable
                // as a bounded-analysis library).
                FinalizeLimit(*s);
                continue;
            }
            worklist_.push_back(std::move(s));
        }
        if (!state->Finished())
            worklist_.push_back(std::move(state));
        frontier_.store(static_cast<int64_t>(worklist_.size()),
                        std::memory_order_relaxed);
    }
    frontier_.store(0, std::memory_order_relaxed);
    return std::move(results_);
}

}  // namespace symexec
}  // namespace achilles
