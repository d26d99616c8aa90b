// Achilles reproduction -- parallel exploration subsystem.
//
// PruneIndex: the unified cross-state pruning knowledge base. The
// exploration's dominant cost is deciding, per candidate state and per
// client predicate, whether a refutation already proven elsewhere makes
// the next solver query redundant. Before this subsystem that knowledge
// was scattered across three memos that could not see each other: a
// per-plane Trojan-core ring inside ServerExplorer (worker-private, so
// one worker's dead states never pruned another's descendants), the
// fingerprint-encoded cores duplicated inside exec/query_cache entries,
// and the static differentFrom matrix (which single-field cores
// discovered at run time could never densify). PruneIndex consolidates
// all three behind one lock-striped, evictable store shared by every
// worker of a run:
//
//   1. Two-part core subsumption index ("Trojan cores"). A refutation
//      core split into its path-constraint part and its negation (or
//      pin) part, stored as sorted context-independent structural
//      fingerprints and keyed by the path part's smallest fingerprint.
//      Any later query whose path set contains the path part and whose
//      negation set contains the negation part is UNSAT by the very
//      same core -- across states, across workers, without a solver
//      call. Also reused verbatim by refinement's cross-witness core
//      reuse (base = client path constraints, secondary = pinned-byte
//      equalities).
//
//   2. DifferentFrom overlay ("field cores"). Single-field cores from
//      the predicate-match loop append value-class edges at run time:
//      an entry records that `path_part ∧ match_part` is unsatisfiable
//      and that every implicated expression is confined to one
//      independent field. Consulted through
//      DifferentFromMatrix::OverlaySubsumed alongside the static
//      matrix, so later branches (and other workers' branches) take
//      the static fast path -- drop the predicate and its whole
//      value class for that field -- for pairs the precomputation
//      never related to the new path constraints.
//
//   3. Query-core store. The shared query cache delegates unsat-core
//      storage here instead of duplicating core fingerprints inside
//      its entries: cores are keyed by a chained hash of the query's
//      sorted fingerprint vector and verified against the full vector
//      on every lookup (a collision degrades to a miss, mirroring the
//      cache's own fingerprint-verification discipline).
//
// Soundness: every stored fact is a refutation the solver actually
// produced, translated into the same context-independent fingerprint
// currency as exec/expr_transfer and exec/query_cache. A subsumption
// hit answers exactly what the skipped query would have answered
// (kUnsat), so live sets -- and therefore witness sets -- are bitwise
// identical with the index on or off, at any worker count, under any
// eviction schedule. Consumers gate
// recording and probing on SolverConfig::unbudgeted() so kUnknown
// conservatism is preserved (a budgeted stream records nothing and
// skips nothing).
//
// Eviction: ReduceDB-style activity/age halving, per shard. Every entry
// carries an activity counter (bumped on each subsumption hit or
// re-discovery) and an insertion stamp; when a shard reaches its cap
// it keeps ceil(n/2) entries ranked by (activity, then stamp). On the
// core and overlay stores, entries with cross-worker hits since the
// last round are exempt from it (see EvictHalf). This caps all three
// stores for long-running service deployments; because hits are
// query-equivalent, eviction can only cost future skips, never flip a
// verdict.

#ifndef ACHILLES_EXEC_PRUNE_INDEX_H_
#define ACHILLES_EXEC_PRUNE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "smt/expr.h"

namespace achilles {
namespace exec {

/** Context-independent structural fingerprint of one assertion: the
 *  (struct_hash, struct_hash2) pair, the shared currency of the query
 *  cache. */
using PruneFp = std::pair<uint64_t, uint64_t>;
/** A fingerprint set, sorted ascending (subset probes use
 *  std::includes). */
using PruneFpVec = std::vector<PruneFp>;

struct PruneIndexConfig
{
    /** Lock stripes per store. */
    size_t shards = 16;
    /** Entry cap for the two-part core subsumption index (store 1). */
    size_t core_cap = 1024;
    /** Entry cap for the differentFrom overlay (store 2). */
    size_t overlay_cap = 1024;
    /** Entry cap for the delegated query-core store (store 3). */
    size_t query_core_cap = 4096;
    /**
     * Fingerprints hash variables by id, so an entry is only portable
     * across contexts when every implicated variable is id-aligned.
     * Expressions mentioning a variable with id >= this limit are not
     * fingerprintable (Fingerprint returns false and the caller skips
     * the index), mirroring the query cache's shared_var_limit rule.
     * Single-context (serial) owners leave it unlimited.
     */
    uint32_t shared_var_limit = 0xffffffffu;
};

/**
 * The shared pruning knowledge base. Thread-safe; one instance per
 * exploration run (owned by ParallelEngine for multi-worker runs, by
 * the consumer itself for serial ones), probed and fed by every
 * worker's plane.
 */
class PruneIndex
{
  public:
    explicit PruneIndex(PruneIndexConfig config = {});
    PruneIndex(const PruneIndex &) = delete;
    PruneIndex &operator=(const PruneIndex &) = delete;

    const PruneIndexConfig &config() const { return config_; }

    /**
     * Fingerprint an assertion set (sorted, deduplicated). Returns
     * false -- caller must skip the index -- when any expression
     * mentions a variable beyond shared_var_limit.
     */
    bool Fingerprint(const std::vector<smt::ExprRef> &exprs,
                     PruneFpVec *out) const;

    // -- Store 1: two-part core subsumption index ---------------------

    /**
     * Record a refutation core split into its primary (path) and
     * secondary (negation / pin) parts. `publisher` identifies the
     * recording worker so cross-worker hits can be attributed.
     * Duplicate cores bump the existing entry's activity instead.
     */
    void RecordCore(size_t publisher, const PruneFpVec &primary,
                    const PruneFpVec &secondary);

    /**
     * True when a recorded core subsumes the query: some entry's
     * primary part is contained in `primary_set` and its secondary
     * part in `secondary_set` (both sorted). A hit bumps the entry's
     * activity; a hit on another worker's core bumps the cross-worker
     * counter.
     */
    bool SubsumesCore(size_t consumer, const PruneFpVec &primary_set,
                      const PruneFpVec &secondary_set);

    // -- Store 2: differentFrom overlay -------------------------------

    /**
     * Append a value-class edge: a single-independent-field core whose
     * path part and match part are both confined to the field named by
     * `field_token` (DifferentFromMatrix::FieldToken).
     */
    void RecordFieldCore(size_t publisher, uint64_t field_token,
                         const PruneFpVec &path_part,
                         const PruneFpVec &match_part);

    /**
     * True when a recorded field core refutes a predicate-match query:
     * some entry's path part is contained in `path_set` and its match
     * part in `match_set`. On a hit `*field_token` names the field so
     * the consumer can re-enter the static matrix's value-class rule.
     */
    bool OverlaySubsumes(size_t consumer, const PruneFpVec &path_set,
                         const PruneFpVec &match_set,
                         uint64_t *field_token);

    // -- Store 3: delegated query-core storage ------------------------

    /** Store the unsat core of the query identified by its sorted
     *  fingerprint vector (first writer wins, like the cache's own
     *  upgrade rule). */
    void RecordQueryCore(const PruneFpVec &query_fps,
                         const PruneFpVec &core_fps);

    /** Fetch a stored core; the full query fingerprint vector is
     *  verified, so a key collision is a miss, never a wrong core. */
    bool LookupQueryCore(const PruneFpVec &query_fps, PruneFpVec *core_fps);

    // -- Snapshot export / import (src/persist) -----------------------

    /**
     * Publisher id recorded on entries imported from a snapshot. Never
     * a real worker id, so any worker's hit on an imported entry counts
     * as a cross-worker hit -- imported knowledge is hot by definition
     * (it already transferred across a whole run).
     */
    static constexpr size_t kImportedPublisher =
        static_cast<size_t>(-1);

    /** One subsumption entry as it travels in a snapshot: fingerprint
     *  parts and payload only (eviction metadata is run-local). */
    struct ExportedEntry
    {
        PruneFpVec primary;
        PruneFpVec secondary;
        uint64_t payload = 0;
    };
    /** One delegated query core as it travels in a snapshot. */
    struct ExportedQueryCore
    {
        PruneFpVec query;
        PruneFpVec core;
    };

    void ExportCores(std::vector<ExportedEntry> *out) const;
    void ExportOverlay(std::vector<ExportedEntry> *out) const;
    void ExportQueryCores(std::vector<ExportedQueryCore> *out) const;

    /** Imports route through the normal record paths (dedup, eviction)
     *  under kImportedPublisher, counted separately from run-recorded
     *  entries so warm-start volume is attributable. */
    void ImportCores(const std::vector<ExportedEntry> &entries);
    void ImportOverlay(const std::vector<ExportedEntry> &entries);
    void ImportQueryCores(const std::vector<ExportedQueryCore> &entries);

    /** Entries restored from snapshots (all three stores). */
    int64_t imported() const { return Load(imported_); }

    // -- Introspection ------------------------------------------------

    size_t core_entries() const;
    size_t overlay_entries() const;
    size_t query_core_entries() const;

    int64_t core_hits() const { return Load(core_hits_); }
    int64_t overlay_hits() const { return Load(overlay_hits_); }
    int64_t core_probes() const { return Load(core_probes_); }
    int64_t overlay_probes() const { return Load(overlay_probes_); }
    int64_t cross_worker_hits() const { return Load(cross_hits_); }
    int64_t evictions() const { return Load(evictions_); }
    /** Entries spared from a halving round by the hot-core rule. */
    int64_t hot_exemptions() const { return Load(hot_exemptions_); }

    /** Export counters ("prune.cores_recorded" et al.). */
    void ExportStats(obs::CounterView *stats) const;

  private:
    struct FpHash
    {
        size_t
        operator()(const PruneFp &fp) const
        {
            return static_cast<size_t>(
                fp.first ^ (fp.second * 0x9e3779b97f4a7c15ull));
        }
    };

    /** One subsumption entry: fingerprint parts + eviction metadata. */
    struct Entry
    {
        PruneFpVec primary;
        PruneFpVec secondary;
        uint64_t payload = 0;  ///< field token (overlay entries).
        size_t publisher = 0;
        uint32_t activity = 0;
        /** Hits by workers other than the publisher since the last
         *  halving: proof the entry transfers. EvictHalf exempts such
         *  entries from one round and zeroes the counter, so an entry
         *  gone cold competes normally the round after. */
        uint32_t cross_hits = 0;
        uint64_t stamp = 0;
    };

    /**
     * A lock-striped two-part subsumption store (backs stores 1 and 2).
     * Entries are keyed by their smallest primary fingerprint (falling
     * back to the secondary part, then to a zero key), so a probe only
     * scans buckets whose key appears in its own fingerprint sets.
     */
    struct SubsumptionStore
    {
        struct Shard
        {
            mutable std::mutex mutex;
            std::vector<Entry> entries;
            std::unordered_map<PruneFp, std::vector<uint32_t>, FpHash>
                buckets;
            uint64_t next_stamp = 0;
        };
        std::vector<std::unique_ptr<Shard>> shards;
        size_t per_shard_cap = 0;
        /** Total live entries across shards, maintained by Record /
         *  EvictHalf: lets probes skip an empty store without taking
         *  any shard lock (the differentFrom overlay is empty for the
         *  whole run whenever no single-field core is ever found, yet
         *  it used to be hashed and locked on every match query). */
        std::atomic<size_t> live{0};
    };

    /** One delegated query core. */
    struct QueryCoreEntry
    {
        PruneFpVec query;
        PruneFpVec core;
        uint32_t activity = 0;
        uint64_t stamp = 0;
    };
    struct QueryCoreShard
    {
        mutable std::mutex mutex;
        std::unordered_map<uint64_t, QueryCoreEntry> map;
        uint64_t next_stamp = 0;
    };

    static int64_t
    Load(const std::atomic<int64_t> &v)
    {
        return v.load(std::memory_order_relaxed);
    }

    static PruneFp KeyOf(const PruneFpVec &primary,
                         const PruneFpVec &secondary);
    void InitStore(SubsumptionStore *store, size_t cap) const;
    SubsumptionStore::Shard &ShardFor(SubsumptionStore &store,
                                      const PruneFp &key) const;
    void Record(SubsumptionStore *store, size_t publisher,
                uint64_t payload, const PruneFpVec &primary,
                const PruneFpVec &secondary);
    bool Probe(SubsumptionStore *store, size_t consumer,
               const PruneFpVec &primary_set,
               const PruneFpVec &secondary_set, uint64_t *payload,
               std::atomic<int64_t> *hit_counter);
    /** Drop a full shard's lower half by (activity, stamp). */
    void EvictHalf(SubsumptionStore *store,
                   SubsumptionStore::Shard *shard);
    static size_t StoreSize(const SubsumptionStore &store);
    static void ExportStore(const SubsumptionStore &store,
                            std::vector<ExportedEntry> *out);
    /** Insert one delegated query core (the shared body of
     *  RecordQueryCore and ImportQueryCores); true when inserted. */
    bool PutQueryCore(const PruneFpVec &query_fps,
                      const PruneFpVec &core_fps);

    static uint64_t ChainHash(const PruneFpVec &fps);

    PruneIndexConfig config_;
    SubsumptionStore cores_;
    SubsumptionStore overlay_;
    std::vector<std::unique_ptr<QueryCoreShard>> query_cores_;
    size_t query_core_shard_cap_ = 0;

    std::atomic<int64_t> cores_recorded_{0};
    std::atomic<int64_t> overlay_recorded_{0};
    std::atomic<int64_t> query_cores_recorded_{0};
    std::atomic<int64_t> core_hits_{0};
    std::atomic<int64_t> overlay_hits_{0};
    std::atomic<int64_t> core_probes_{0};
    std::atomic<int64_t> overlay_probes_{0};
    std::atomic<int64_t> query_core_hits_{0};
    std::atomic<int64_t> cross_hits_{0};
    std::atomic<int64_t> evictions_{0};
    std::atomic<int64_t> hot_exemptions_{0};
    std::atomic<int64_t> imported_{0};
};

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_PRUNE_INDEX_H_
