// Achilles reproduction -- symbolic execution engine.
//
// Execution states: symbolic store (locals + arrays per call frame),
// path constraints, captured messages and path classification. States
// are value-like and cloned on symbolic branches, mirroring S2E/KLEE
// state forking.

#ifndef ACHILLES_SYMEXEC_STATE_H_
#define ACHILLES_SYMEXEC_STATE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "smt/expr.h"
#include "symexec/program.h"

namespace achilles {
namespace symexec {

/** How a finished path ended. */
enum class PathOutcome : uint8_t {
    kRunning,     ///< not finished yet
    kAccepted,    ///< server classified the message as accepted
    kRejected,    ///< server classified the message as rejected
    kClientDone,  ///< client path completed (message(s) captured)
    kKilled,      ///< dropped (drop_path / infeasible assume / listener)
    kLimit,       ///< hit the per-path step budget
};

const char *PathOutcomeName(PathOutcome o);

/** A message captured at a SendMessage() call. */
struct SentMessage
{
    std::vector<smt::ExprRef> bytes;
    std::string label;
};

/** A local array: fixed length, per-cell symbolic expressions. */
struct ArrayObject
{
    uint32_t elem_width = 8;
    std::vector<smt::ExprRef> cells;
};

/** One function activation. */
struct CallFrame
{
    uint32_t func = 0;
    uint32_t pc = 0;
    /** Name of the caller local receiving the return value ("" = none). */
    std::string ret_dest;
    std::map<std::string, std::pair<uint32_t, smt::ExprRef>> locals;
    std::map<std::string, ArrayObject> arrays;
};

/**
 * Opaque per-state payload for engine clients. The Achilles server
 * explorer attaches its live client-path-predicate set here; it is
 * cloned whenever the engine forks a state.
 */
class StateUserData
{
  public:
    virtual ~StateUserData() = default;
    virtual std::unique_ptr<StateUserData> Clone() const = 0;
};

/**
 * One symbolic execution state (== one execution path in progress).
 */
class State
{
  public:
    State(uint64_t id, const Program *program) : id_(id), program_(program)
    {
        frames_.push_back(CallFrame{});
    }

    /** Fork a copy with a fresh id. */
    std::unique_ptr<State>
    Clone(uint64_t new_id) const
    {
        auto copy = std::make_unique<State>(*this);
        copy->id_ = new_id;
        if (user_data_)
            copy->user_data_ = user_data_->Clone();
        return copy;
    }

    State(const State &other)
        : accept_label(other.accept_label), id_(other.id_),
          program_(other.program_), frames_(other.frames_),
          constraints_(other.constraints_), sent_(other.sent_),
          path_sat_(other.path_sat_), replied_(other.replied_),
          outcome_(other.outcome_), depth_(other.depth_),
          steps_(other.steps_), fork_seq_(other.fork_seq_)
    {
        // user_data_ is cloned by Clone(); plain copy leaves it null.
    }
    State &operator=(const State &) = delete;

    /**
     * Rewrite every expression held by this state through `translate`.
     * Used by the parallel exploration subsystem to re-home a state
     * stolen from another worker into the thief's ExprContext (see
     * exec/expr_transfer.h). The opaque user_data is untouched: it must
     * not hold ExprRefs of the source context.
     */
    void
    TranslateExprs(const std::function<smt::ExprRef(smt::ExprRef)> &translate)
    {
        for (CallFrame &frame : frames_) {
            for (auto &[name, slot] : frame.locals)
                slot.second = translate(slot.second);
            for (auto &[name, array] : frame.arrays)
                for (smt::ExprRef &cell : array.cells)
                    cell = translate(cell);
        }
        for (smt::ExprRef &c : constraints_)
            c = translate(c);
        for (SentMessage &m : sent_)
            for (smt::ExprRef &b : m.bytes)
                b = translate(b);
    }

    uint64_t id() const { return id_; }
    const Program *program() const { return program_; }

    CallFrame &TopFrame() { return frames_.back(); }
    const CallFrame &TopFrame() const { return frames_.back(); }
    std::vector<CallFrame> &frames() { return frames_; }
    size_t FrameDepth() const { return frames_.size(); }

    /** Innermost-first lookup of a local variable; null if undeclared. */
    std::pair<uint32_t, smt::ExprRef> *
    FindLocal(const std::string &name)
    {
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            auto lit = it->locals.find(name);
            if (lit != it->locals.end())
                return &lit->second;
        }
        return nullptr;
    }

    /** Innermost-first lookup of an array; null if undeclared. */
    ArrayObject *
    FindArray(const std::string &name)
    {
        for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
            auto ait = it->arrays.find(name);
            if (ait != it->arrays.end())
                return &ait->second;
        }
        return nullptr;
    }

    /**
     * Append `c` to the path condition. `proven_sat` says whether the
     * check that admitted it -- of constraints() ∧ c -- answered kSat
     * (false when no check did); it becomes path_sat().
     */
    void
    AddConstraint(smt::ExprRef c, bool proven_sat = false)
    {
        if (c->IsTrue())
            return;
        constraints_.push_back(c);
        path_sat_ = proven_sat;
    }
    const std::vector<smt::ExprRef> &constraints() const
    {
        return constraints_;
    }

    /**
     * True when constraints() is proven satisfiable: the empty path, or
     * a path whose last constraint was admitted by a check that
     * answered kSat. A kUnknown admission clears it, and the next kSat
     * one sets it again. While it is set, verdict-only queries over the
     * path may leave out the constraints that share no variable with
     * the query (smt::Solver::CheckSatOnSatBase).
     */
    bool path_sat() const { return path_sat_; }

    void AddSent(SentMessage m) { sent_.push_back(std::move(m)); }
    const std::vector<SentMessage> &sent() const { return sent_; }

    void SetReplied() { replied_ = true; }
    bool replied() const { return replied_; }

    void SetOutcome(PathOutcome o) { outcome_ = o; }
    PathOutcome outcome() const { return outcome_; }
    bool Finished() const { return outcome_ != PathOutcome::kRunning; }

    /** Number of symbolic branch points taken on this path. */
    size_t depth() const { return depth_; }
    void BumpDepth() { ++depth_; }

    size_t steps() const { return steps_; }
    void BumpSteps() { ++steps_; }

    /**
     * Per-state fork counter, used to derive schedule-independent child
     * state ids: the (parent id, fork sequence) pair is a deterministic
     * function of the path alone, not of exploration order.
     */
    uint32_t NextForkSeq() { return fork_seq_++; }

    void SetUserData(std::unique_ptr<StateUserData> d)
    {
        user_data_ = std::move(d);
    }
    StateUserData *user_data() { return user_data_.get(); }

    /** Label attached by the accept/reject marker that ended the path. */
    std::string accept_label;

  private:
    uint64_t id_;
    const Program *program_;
    std::vector<CallFrame> frames_;
    std::vector<smt::ExprRef> constraints_;
    std::vector<SentMessage> sent_;
    bool path_sat_ = true;
    bool replied_ = false;
    PathOutcome outcome_ = PathOutcome::kRunning;
    size_t depth_ = 0;
    size_t steps_ = 0;
    uint32_t fork_seq_ = 0;
    std::unique_ptr<StateUserData> user_data_;
};

}  // namespace symexec
}  // namespace achilles

#endif  // ACHILLES_SYMEXEC_STATE_H_
