// End-to-end analysis benchmark -- solver timing decorator.
//
// TimedSolver interposes on smt::Solver's three virtual Check* entry
// points, forwards every call to the base facade unchanged, and logs
// the call's start time, duration and whether it asked for a model.
// After a pipeline run, Attribute() splits the log into the pipeline's
// phases by call time against the run's PhaseTimings boundaries. The
// benchmark measures the smt layer this way from outside the library:
// nothing under src/ knows the decorator exists.
//
// Only the outermost call is logged: a budgeted CheckSatBatch falls
// back to per-group CheckSatAssuming calls, which would otherwise be
// counted twice.

#ifndef ACHILLES_E2EBENCH_TIMED_SOLVER_H_
#define ACHILLES_E2EBENCH_TIMED_SOLVER_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/achilles.h"
#include "smt/solver.h"

namespace achilles {
namespace e2e {

class TimedSolver : public smt::Solver
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Call
    {
        Clock::time_point start;
        double seconds = 0.0;
        bool model = false;
    };

    using smt::Solver::Solver;

    smt::CheckResult
    CheckSat(const std::vector<smt::ExprRef> &assertions,
             smt::Model *model = nullptr) override
    {
        Scope scope(this, model != nullptr);
        return Solver::CheckSat(assertions, model);
    }

    smt::CheckResult
    CheckSatAssuming(const std::vector<smt::ExprRef> &base,
                     const std::vector<smt::ExprRef> &extras,
                     smt::Model *model = nullptr) override
    {
        Scope scope(this, model != nullptr);
        return Solver::CheckSatAssuming(base, extras, model);
    }

    smt::BatchOutcome
    CheckSatBatch(const std::vector<smt::ExprRef> &base,
                  const std::vector<const std::vector<smt::ExprRef> *>
                      &groups) override
    {
        Scope scope(this, false);
        return Solver::CheckSatBatch(base, groups);
    }

    const std::vector<Call> &calls() const { return calls_; }

  private:
    class Scope
    {
      public:
        Scope(TimedSolver *owner, bool model)
            : owner_(owner), outer_(owner->depth_++ == 0)
        {
            if (outer_) {
                call_.model = model;
                call_.start = Clock::now();
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope()
        {
            --owner_->depth_;
            if (!outer_)
                return;
            call_.seconds =
                std::chrono::duration<double>(Clock::now() - call_.start)
                    .count();
            owner_->calls_.push_back(call_);
        }

      private:
        TimedSolver *owner_;
        bool outer_;
        Call call_;
    };

    int depth_ = 0;
    std::vector<Call> calls_;
};

/** Pipeline phases, in RunAchilles order. */
enum Phase { kClientExtraction = 0, kPreprocessing = 1, kServerAnalysis = 2 };
inline constexpr int kNumPhases = 3;

/** Solver seconds and calls, split by phase and by model request. */
struct SolverLedger
{
    double seconds[kNumPhases][2] = {};  ///< [phase][model ? 1 : 0]
    int64_t calls[kNumPhases][2] = {};

    double
    Seconds() const
    {
        double total = 0.0;
        for (int p = 0; p < kNumPhases; ++p)
            total += seconds[p][0] + seconds[p][1];
        return total;
    }
    int64_t
    Calls() const
    {
        int64_t total = 0;
        for (int p = 0; p < kNumPhases; ++p)
            total += calls[p][0] + calls[p][1];
        return total;
    }
    double
    SecondsWithModel(bool model) const
    {
        double total = 0.0;
        for (int p = 0; p < kNumPhases; ++p)
            total += seconds[p][model ? 1 : 0];
        return total;
    }
    double
    PhaseSeconds(Phase p) const
    {
        return seconds[p][0] + seconds[p][1];
    }

    void
    Add(const SolverLedger &other)
    {
        for (int p = 0; p < kNumPhases; ++p) {
            for (int m = 0; m < 2; ++m) {
                seconds[p][m] += other.seconds[p][m];
                calls[p][m] += other.calls[p][m];
            }
        }
    }
};

/**
 * Attribute each logged call to the phase its start time falls in.
 * `run_start` is taken just before RunAchilles was entered; the phase
 * boundaries are run_start + client_extraction and that plus
 * preprocessing (RunAchilles times its phases back to back).
 */
inline SolverLedger
Attribute(const std::vector<TimedSolver::Call> &calls,
          TimedSolver::Clock::time_point run_start,
          const core::PhaseTimings &timings)
{
    using Seconds = std::chrono::duration<double>;
    const auto end_client =
        run_start + std::chrono::duration_cast<TimedSolver::Clock::duration>(
                        Seconds(timings.client_extraction));
    const auto end_preprocessing =
        end_client + std::chrono::duration_cast<TimedSolver::Clock::duration>(
                         Seconds(timings.preprocessing));
    SolverLedger ledger;
    for (const TimedSolver::Call &call : calls) {
        const int phase = call.start < end_client ? kClientExtraction
                          : call.start < end_preprocessing
                              ? kPreprocessing
                              : kServerAnalysis;
        const int kind = call.model ? 1 : 0;
        ledger.seconds[phase][kind] += call.seconds;
        ledger.calls[phase][kind] += 1;
    }
    return ledger;
}

}  // namespace e2e
}  // namespace achilles

#endif  // ACHILLES_E2EBENCH_TIMED_SOLVER_H_
