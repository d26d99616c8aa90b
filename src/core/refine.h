// Achilles reproduction -- core library.
//
// Witness refinement and enumeration -- the paper's Section 4.1
// extensions:
//
//  * Refinement (the paper's CEGAR-style future work, implemented):
//    false positives arise when client symbolic execution was
//    incomplete -- a message may only be generatable on unexplored
//    client paths. ConfirmWitnesses re-executes each client *focused on
//    the concrete witness* (every intercepted input is still symbolic,
//    but the sent message is constrained to equal the witness); if some
//    client path can produce it, the witness is refuted.
//
//  * Enumeration: a Trojan witness carries one concrete example plus a
//    symbolic definition; EnumerateTrojans produces up to k distinct
//    concrete Trojans from the definition by model blocking, for fault
//    injection campaigns ("live fire drills").

#ifndef ACHILLES_CORE_REFINE_H_
#define ACHILLES_CORE_REFINE_H_

#include <vector>

#include "core/message.h"
#include "core/server_explorer.h"
#include "smt/solver.h"
#include "symexec/engine.h"

namespace achilles {
namespace core {

/** Verdict for one refined witness. */
enum class WitnessVerdict : uint8_t {
    kConfirmed,  ///< no client path can produce the concrete message
    kRefuted,    ///< some client path produces it: a false positive
};

/** Result of a refinement pass. */
struct RefinementResult
{
    std::vector<WitnessVerdict> verdicts;  ///< parallel to the input
    size_t confirmed = 0;
    size_t refuted = 0;
    /** Per-client-path solver queries issued. */
    size_t solver_queries = 0;
};

/**
 * Re-execute the clients focused on each witness's concrete message
 * (the paper's guided re-execution). A witness is refuted iff some
 * client path can emit exactly those analyzed bytes.
 *
 * The focused run is much cheaper than blind exploration: every branch
 * infeasible under the pinned message is cut immediately.
 */
RefinementResult ConfirmWitnesses(
    smt::ExprContext *ctx, smt::Solver *solver,
    const std::vector<const symexec::Program *> &clients,
    const MessageLayout &layout,
    const std::vector<TrojanWitness> &witnesses);

/**
 * Enumerate up to `max_count` distinct concrete Trojan messages from a
 * witness's symbolic definition by iterative model blocking over the
 * analyzed bytes. The witness's own concrete message is the first
 * entry.
 */
std::vector<std::vector<uint8_t>> EnumerateTrojans(
    smt::ExprContext *ctx, smt::Solver *solver,
    const MessageLayout &layout, const TrojanWitness &witness,
    size_t max_count);

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_REFINE_H_
