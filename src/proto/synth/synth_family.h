// Achilles reproduction -- synthetic protocol families.
//
// Two layers:
//
//  1. The fixed synthetic protocol of the Section 6.4 optimization
//     study (moved here from bench/synth_protocol.h): a scaled
//     CRC-tagged command protocol, kept source-identical so the fig11
//     and optimization-ablation benches measure exactly what they
//     always measured.
//
//  2. A seeded family sampler: FamilyKnobs spans a grid of protocol
//     shapes -- dispatch depth (how many binary dispatch levels the
//     server's parser has), handler fan-out (accepting handlers per
//     leaf), field coupling (how often a leaf's tag is a CRC-like
//     function of its argument), and validation density (how much of
//     what clients guarantee the server actually re-checks). Every
//     (knobs, seed) pair deterministically samples one protocol; the
//     default corpus registers hundreds of them in the protocol
//     registry ("synth/<cell>/s<seed>") for the corpus bench.
//
// Trojan content by construction: a coupled tag is never validated by
// the server, an unchecked argument or free tag leaves its whole byte
// range open, and a checked one is re-checked with the exact client
// bounds -- so a leaf is Trojan-free only when everything it relies on
// is checked, and expected yield rises with coupling and falls with
// density.

#ifndef ACHILLES_PROTO_SYNTH_SYNTH_FAMILY_H_
#define ACHILLES_PROTO_SYNTH_SYNTH_FAMILY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/message.h"
#include "proto/registry.h"
#include "symexec/program.h"

namespace achilles {
namespace synth {

// ---------------------------------------------------------------------
// Fixed Section 6.4 protocol (legacy, unchanged semantics).
//
//   message: cmd(1) | arg(1) | tag(1)
//   client, subcommand i: cmd = i, arg = λ ∈ [lo_i, lo_i+40],
//                         tag = (13·λ + 7·i) mod 256   (CRC-like)
//   server: binary dispatch on the cmd bits (a parser's nested
//           switch), then arg ∈ [lo_i, lo_i+50] (wider: Trojan band),
//           then two accepting handlers split on arg's parity; the tag
//           is never validated (second Trojan source).
// ---------------------------------------------------------------------

inline constexpr uint32_t kMessageLength = 3;

inline core::MessageLayout
MakeLayout()
{
    core::MessageLayout layout(kMessageLength);
    layout.AddField("cmd", 0, 1).AddField("arg", 1, 1).AddField("tag", 2,
                                                                 1);
    return layout;
}

inline uint64_t ClientLo(uint32_t i) { return (i * 3) % 120; }
inline uint64_t ClientHi(uint32_t i) { return ClientLo(i) + 40; }
inline uint64_t ServerHi(uint32_t i) { return ClientLo(i) + 50; }

inline symexec::Program
MakeClient(uint32_t num_subcommands)
{
    using symexec::ProgramBuilder;
    using symexec::Val;
    ProgramBuilder b("synth-client");
    b.Function("main", {}, 0, [&] {
        Val which = b.ReadInput("which", 8);
        Val arg = b.ReadInput("arg", 8);
        b.Array("msg", 8, kMessageLength);
        for (uint32_t i = 0; i < num_subcommands; ++i) {
            b.If(which == i, [&] {
                b.If(arg < ClientLo(i), [&] { b.Halt(); });
                b.If(arg > ClientHi(i), [&] { b.Halt(); });
                b.Store("msg", Val::Const(8, 0), Val::Const(8, i));
                b.Store("msg", Val::Const(8, 1), arg);
                // CRC-like integrity tag over the argument.
                Val tag = arg * Val::Const(8, 13) +
                          Val::Const(8, (7 * i) & 0xff);
                b.Store("msg", Val::Const(8, 2), tag);
                b.SendMessage("msg");
            });
        }
    });
    return b.Build();
}

inline symexec::Program
MakeServer(uint32_t num_subcommands)
{
    using symexec::ProgramBuilder;
    using symexec::Val;
    ACHILLES_CHECK((num_subcommands & (num_subcommands - 1)) == 0,
                   "num_subcommands must be a power of two");
    uint32_t bits = 0;
    while ((1u << bits) < num_subcommands)
        ++bits;

    ProgramBuilder b("synth-server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", kMessageLength);
        Val cmd = b.Local(
            "cmd", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0)));
        Val arg = b.Local(
            "arg", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 1)));
        // Unknown high bits -> discard.
        b.If(cmd >= num_subcommands, [&] { b.MarkReject(); });

        // Binary dispatch on the cmd bits, like a nested switch: each
        // level halves the set of client predicates that still match.
        std::function<void(uint32_t, uint32_t)> dispatch =
            [&](uint32_t bit, uint32_t prefix) {
                if (bit == 0) {
                    const uint32_t i = prefix;
                    b.If(arg < ClientLo(i), [&] { b.MarkReject(); });
                    b.If(arg > ServerHi(i), [&] { b.MarkReject(); });
                    // Two accepting handlers (parity split); the tag is
                    // never validated.
                    b.If((arg & 1) == Val::Const(8, 1),
                         [&] { b.MarkAccept("odd"); },
                         [&] { b.MarkAccept("even"); });
                    return;
                }
                const uint32_t mask = 1u << (bit - 1);
                b.If((cmd & mask) == Val::Const(8, 0),
                     [&] { dispatch(bit - 1, prefix); },
                     [&] { dispatch(bit - 1, prefix | mask); });
            };
        dispatch(bits, 0);
    });
    return b.Build();
}

// ---------------------------------------------------------------------
// Seeded family sampler.
// ---------------------------------------------------------------------

/** Sampling grid cell: the protocol shape, plus the draw seed. */
struct FamilyKnobs
{
    uint32_t dispatch_depth = 1;   ///< binary dispatch levels (1..6)
    uint32_t handler_fanout = 1;   ///< accepting handlers per leaf (pow2)
    double field_coupling = 0.0;   ///< P(leaf tag is CRC-like coupled)
    double validation_density = 0.5;  ///< P(server re-checks a guarantee)
    uint64_t seed = 0;
};

/** One dispatch leaf's sampled shape. A leaf is Trojan-free exactly
 *  when check_arg && check_tag && !coupled (everything the client
 *  guarantees is re-checked with the same bounds). */
struct LeafParams
{
    uint64_t arg_lo = 0;        ///< argument lower bound (both sides)
    uint64_t arg_span = 0;      ///< argument range width (both sides)
    bool check_arg = false;     ///< server re-checks the argument bounds
    bool coupled = false;       ///< tag = arg * mul + add on the client
    uint64_t mul = 1;           ///< coupling multiplier (odd)
    uint64_t add = 0;           ///< coupling addend
    uint64_t tag_lo = 0;        ///< free-tag lower bound (both sides)
    uint64_t tag_span = 0;      ///< free-tag range width (both sides)
    bool check_tag = false;     ///< server re-checks a free tag
};

/** A fully drawn protocol: knobs plus per-leaf parameters. */
struct SampledParams
{
    FamilyKnobs knobs;
    uint32_t num_subcommands = 0;  ///< 2^dispatch_depth
    std::vector<LeafParams> leaves;
};

/** "synth/d<depth>.f<fanout>.c<coupling%>.v<density%>" (seed-free:
 *  every seed of a cell aggregates under the same family). */
std::string FamilyName(const FamilyKnobs &knobs);

/** "<FamilyName>/s<seed>": the registry key. */
std::string ProtocolName(const FamilyKnobs &knobs);

/** Draw all random parameters (one Rng pass; deterministic). */
SampledParams SampleParams(const FamilyKnobs &knobs);

core::MessageLayout MakeSampledLayout();
symexec::Program MakeSampledClient(const SampledParams &params);
symexec::Program MakeSampledServer(const SampledParams &params);

/** Registry factory for one (cell, seed) draw. */
std::shared_ptr<const proto::ProtocolFactory>
MakeFamilyFactory(const FamilyKnobs &knobs);

/**
 * The default seeded corpus: the full knob grid {depth 1,2,3} x
 * {fanout 1,2} x {coupling 0,0.75} x {density 0.25,0.75}, five seeds
 * each -- 120 protocols.
 */
std::vector<FamilyKnobs> DefaultCorpus();

/** Register factories for every knob draw (skips names already taken). */
void RegisterCorpus(proto::ProtocolRegistry *registry,
                    const std::vector<FamilyKnobs> &corpus);

}  // namespace synth
}  // namespace achilles

#endif  // ACHILLES_PROTO_SYNTH_SYNTH_FAMILY_H_
