// Achilles reproduction -- parallel exploration subsystem.
//
// Expression translation between the home ExprContext and a worker's
// private replica context. ExprContext is a single-threaded interning
// arena, so every worker owns its own; states forked on one worker can
// then be stolen and re-solved on another only if their expressions can
// be re-homed. The bridge does that:
//
//  * Variables are id-aligned: at launch every variable of the home
//    context is mirrored into the worker context in id order, so
//    variable k means the same thing everywhere. This is what makes
//    solver models and the explorer's var-to-field map portable across
//    workers, and what gives a node the same structural fingerprint
//    (hence the same operand and assertion order) in every context.
//  * Nodes are rebuilt bottom-up through the destination context's
//    factory methods. Factories canonicalize by the context-independent
//    structural fingerprint (smt::StructuralCompare), so a round trip
//    reproduces the identical node the serial engine would have built.
//  * Cross-worker transfer routes through home (A -> home -> B), giving
//    every expression a canonical home form and keeping the number of
//    pairwise mappings linear in the worker count.
//
// All bridges of one parallel run share a single mutex (the home
// context is the shared resource); translation only happens at steal
// time and at result-merge time, so contention is low by construction.

#ifndef ACHILLES_EXEC_EXPR_TRANSFER_H_
#define ACHILLES_EXEC_EXPR_TRANSFER_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "smt/expr.h"
#include "symexec/state.h"

namespace achilles {
namespace exec {

/** Bidirectional home <-> worker expression translator. */
class ExprBridge
{
  public:
    /**
     * `home_mutex` guards the home context and this bridge's internal
     * maps; all bridges of one parallel run must share it.
     */
    ExprBridge(smt::ExprContext *home, smt::ExprContext *remote,
               std::mutex *home_mutex);

    /**
     * Mirror every home variable that does not yet exist remotely into
     * the remote context, in id order. Call before the remote context
     * creates any variable of its own so that ids align.
     */
    void MirrorHomeVars();

    /** Translate home -> remote (locks the shared mutex). */
    smt::ExprRef ToRemote(smt::ExprRef e);
    /** Translate remote -> home (locks the shared mutex). */
    smt::ExprRef ToHome(smt::ExprRef e);

    /** Unlocked variants; the caller must hold the shared mutex. */
    smt::ExprRef ToRemoteLocked(smt::ExprRef e);
    smt::ExprRef ToHomeLocked(smt::ExprRef e);

    std::mutex *shared_mutex() { return mutex_; }

  private:
    struct Direction
    {
        smt::ExprContext *dst = nullptr;
        /** Source var id -> destination variable node. */
        std::unordered_map<uint32_t, smt::ExprRef> var_map;
        /** Source node -> destination node (persistent memo). */
        std::unordered_map<smt::ExprRef, smt::ExprRef> memo;
    };

    smt::ExprRef Translate(smt::ExprRef e, Direction *fwd, Direction *rev);

    smt::ExprContext *home_;
    smt::ExprContext *remote_;
    std::mutex *mutex_;
    Direction to_remote_;  ///< home -> remote
    Direction to_home_;    ///< remote -> home
};

/**
 * Re-home a state stolen from worker `from` onto worker `to`, routing
 * every expression through the home context. Returns a fresh deep copy;
 * the original is left untouched. Takes the shared mutex once.
 */
std::unique_ptr<symexec::State> TransferState(const symexec::State &state,
                                              ExprBridge *from,
                                              ExprBridge *to);

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_EXPR_TRANSFER_H_
