// Achilles reproduction -- warm-start knowledge persistence.
//
// Cross-run snapshot/restore of the two knowledge stores the
// exploration builds as it proves things: the PruneIndex (two-part core
// subsumption, differentFrom overlay, delegated query cores) and the
// cross-worker query cache. Every run today rediscovers from scratch
// what prior runs already proved; both stores speak context-independent
// structural fingerprints by construction, so persisting them is a
// format problem, not a semantics problem -- the same
// (struct_hash, struct_hash2) pairs mean
// the same assertions in any run of the same protocol, because the
// protocol's deterministic construction assigns the same variable ids.
//
// Format (little-endian throughout):
//
//   magic "ACHSNAP\0" | u32 format version | u64 protocol fingerprint
//   | u32 section count | sections...
//
//   section: u32 tag | u64 payload size | u32 CRC-32 of payload
//            | payload bytes
//
// Section payloads encode counted vectors of fixed-width integers (see
// snapshot.cc); tags are kSectionCores/Overlay/QueryCores/Queries
// (1, 2, 3 and 5). The protocol fingerprint (persist/fingerprint.h) is a
// structural hash of the materialized protocol bundle, so a snapshot of
// an edited protocol silently misses instead of poisoning the run.
//
// Verification-on-load discipline (the query cache's collision rule,
// applied to the whole file): loading is all-or-nothing. A truncated
// file, a flipped bit (per-section CRC), a version or fingerprint
// mismatch, an unsorted fingerprint vector, or an out-of-range status
// byte each fail the load completely, and the caller proceeds with a
// cold start -- a bad snapshot can cost the warm start, never an
// answer. On the import side the stores re-verify what they can:
// query-cache keys are recomputed from the fingerprint vectors (never
// read from the file), and every restored fact is only ever used to
// skip a query whose answer it already is, so a snapshot -- even an
// adversarial one -- cannot flip a verdict, only waste space.

#ifndef ACHILLES_PERSIST_SNAPSHOT_H_
#define ACHILLES_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/prune_index.h"
#include "exec/query_cache.h"

namespace achilles {
namespace persist {

/** Current snapshot format version (bumped on layout changes; loaders
 *  reject other versions, degrading to a cold start). */
constexpr uint32_t kSnapshotFormatVersion = 2;

/**
 * Everything a run's knowledge stores proved, in portable form.
 * Capture* appends (a run may capture the engine's shared stores and
 * the explorer's home index into one snapshot); SaveSnapshot sorts and
 * deduplicates, so the on-disk bytes are deterministic regardless of
 * capture order or shard layout.
 */
struct KnowledgeSnapshot
{
    uint64_t protocol_fingerprint = 0;
    std::vector<exec::PruneIndex::ExportedEntry> cores;
    std::vector<exec::PruneIndex::ExportedEntry> overlay;
    std::vector<exec::PruneIndex::ExportedQueryCore> query_cores;
    std::vector<exec::QueryCache::ExportedEntry> queries;

    bool
    Empty() const
    {
        return cores.empty() && overlay.empty() && query_cores.empty() &&
               queries.empty();
    }
    size_t
    TotalEntries() const
    {
        return cores.size() + overlay.size() + query_cores.size() +
               queries.size();
    }
};

/** CRC-32 (IEEE 802.3 polynomial, table-driven). */
uint32_t Crc32(const uint8_t *data, size_t size);

/**
 * Serialize and write atomically-ish (write then rename is overkill for
 * a cache file; a torn write is caught by the CRCs on load). Sorts and
 * deduplicates every section first. Returns false with `*error` set on
 * I/O failure.
 */
bool SaveSnapshot(const KnowledgeSnapshot &snapshot,
                  const std::string &path, std::string *error);

/**
 * Load and fully verify. All-or-nothing: on any defect (missing file,
 * truncation, CRC mismatch, wrong magic/version, fingerprint !=
 * `expected_fingerprint`, malformed payload) `*out` is left empty,
 * `*error` names the defect, and the caller cold-starts.
 */
bool LoadSnapshot(const std::string &path, uint64_t expected_fingerprint,
                  KnowledgeSnapshot *out, std::string *error);

/**
 * Import a snapshot into live stores; null stores are skipped (serial
 * runs have no query cache). Routed through the stores' normal record
 * paths, so dedup and eviction apply.
 */
void RestoreKnowledge(const KnowledgeSnapshot &snapshot,
                      exec::PruneIndex *prune, exec::QueryCache *cache);

/** Append the live stores' contents to `*out`; null stores are
 *  skipped. Does not touch `out->protocol_fingerprint`. */
void CaptureKnowledge(const exec::PruneIndex *prune,
                      const exec::QueryCache *cache,
                      KnowledgeSnapshot *out);

}  // namespace persist
}  // namespace achilles

#endif  // ACHILLES_PERSIST_SNAPSHOT_H_
