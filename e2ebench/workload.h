// End-to-end analysis benchmark -- workloads and witness checking.
//
// A workload is a list of protocols analyzed back to back, each by one
// core::RunAchilles call in the default configuration, plus the worker
// count of its server-analysis phase. Every protocol is materialized
// from a seed-determined recipe (a registry factory, a synthetic-family
// draw, or a wire-format spec parsed and lowered), so the same seed
// always yields the same inputs.

#ifndef ACHILLES_E2EBENCH_WORKLOAD_H_
#define ACHILLES_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/achilles.h"
#include "proto/registry.h"

namespace achilles {
namespace e2e {

/** How to materialize one protocol of a workload. */
struct ProtocolSource
{
    std::string name;
    /** Builds the bundle; this is the per-protocol share of setup. */
    std::function<proto::ProtocolBundle()> make;
    /** Concrete ground truth for every witness; null when none. */
    proto::ConcreteTrojanOracle oracle;
};

struct Workload
{
    std::string name;
    size_t workers = 1;
    std::vector<ProtocolSource> protocols;
};

/**
 * Build workload `name` at `seed`. `root` is the repository root
 * (the corpus reads its two example specs from it). Returns false with
 * *error set on an unknown name or an unreadable or invalid spec.
 */
bool MakeWorkload(const std::string &name, uint64_t seed,
                  const std::string &root, Workload *out,
                  std::string *error);

/**
 * True when the synthetic draws of the corpus workload at seed 0 carry
 * exactly the registry's "synth/" protocol names.
 */
bool CorpusMatchesRegistry(std::string *error);

/**
 * Order-insensitive witness digest: one FNV-1a chain per witness over
 * every field a consumer observes (path id, accept label, concrete
 * bytes, definition size, message variables), sorted, then chained.
 */
uint64_t WitnessDigest(const core::ServerAnalysis &analysis);

/** Expected (witness count, digest) per protocol of one run. */
struct ExpectedWitnesses
{
    size_t witnesses = 0;
    uint64_t digest = 0;
};

/**
 * Stored digests, keyed by "<workload> <seed> <protocol>". The file
 * holds one "<workload> <seed> <protocol> <witnesses> <hex digest>"
 * line per analysis; '#' starts a comment. Returns false on an
 * unreadable file or a malformed line.
 */
bool LoadExpectedDigests(
    const std::string &path,
    std::map<std::string, ExpectedWitnesses> *out, std::string *error);

std::string DigestKey(const std::string &workload, uint64_t seed,
                      const std::string &protocol);

}  // namespace e2e
}  // namespace achilles

#endif  // ACHILLES_E2EBENCH_WORKLOAD_H_
