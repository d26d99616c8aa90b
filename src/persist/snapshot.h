// Achilles reproduction -- warm-start knowledge persistence.
//
// Cross-run snapshot/restore of the shared query cache a multi-worker
// exploration builds as it proves things. Without it every run
// rediscovers from scratch what prior runs already proved; the cache
// speaks context-independent structural fingerprints by construction,
// so persisting it is a format problem, not a semantics problem -- the
// same (struct_hash, struct_hash2) pairs mean the same assertions in
// any run of the same protocol, because the protocol's deterministic
// construction assigns the same variable ids. Serial runs have no
// shared cache, so they neither restore nor capture.
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
// snapshot.cc); the one section is kSectionQueries (tag 5). The
// protocol fingerprint (persist/fingerprint.h) is a
// structural hash of the materialized protocol bundle, so a snapshot of
// an edited protocol silently misses instead of poisoning the run.
//
// Verification-on-load discipline (the query cache's collision rule,
// applied to the whole file): loading is all-or-nothing. A truncated
// file, a flipped bit (per-section CRC), a version or fingerprint
// mismatch, an unsorted fingerprint vector, or an out-of-range status
// byte each fail the load completely, and the caller proceeds with a
// cold start -- a bad snapshot can cost the warm start, never an
// answer. On the import side the cache re-verifies what it can: keys
// are recomputed from the fingerprint vectors (never read from the
// file), and every restored entry is only ever used to answer a query
// whose answer it already is.

#ifndef ACHILLES_PERSIST_SNAPSHOT_H_
#define ACHILLES_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/query_cache.h"

namespace achilles {
namespace persist {

/** Current snapshot format version (bumped on layout changes; loaders
 *  reject other versions, degrading to a cold start). */
constexpr uint32_t kSnapshotFormatVersion = 3;

/**
 * Everything a run's query cache proved, in portable form.
 * CaptureKnowledge appends; SaveSnapshot sorts and deduplicates, so the
 * on-disk bytes are deterministic regardless of capture order or shard
 * layout.
 */
struct KnowledgeSnapshot
{
    uint64_t protocol_fingerprint = 0;
    std::vector<exec::QueryCache::ExportedEntry> queries;

    bool Empty() const { return queries.empty(); }
    size_t TotalEntries() const { return queries.size(); }
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
 * Import a snapshot into a live query cache, routed through the
 * cache's normal insert path (QueryCache::Import).
 */
void RestoreKnowledge(const KnowledgeSnapshot &snapshot,
                      exec::QueryCache *cache);

/** Append the cache's contents to `*out`. Does not touch
 *  `out->protocol_fingerprint`. */
void CaptureKnowledge(const exec::QueryCache *cache,
                      KnowledgeSnapshot *out);

}  // namespace persist
}  // namespace achilles

#endif  // ACHILLES_PERSIST_SNAPSHOT_H_
