// Achilles reproduction -- parallel exploration subsystem.

#include "exec/prune_index.h"

#include <algorithm>

namespace achilles {
namespace exec {

PruneIndex::PruneIndex(PruneIndexConfig config) : config_(config)
{
    if (config_.shards == 0)
        config_.shards = 1;
    InitStore(&cores_, config_.core_cap);
    InitStore(&overlay_, config_.overlay_cap);
    size_t query_shards = config_.shards;
    if (config_.query_core_cap != 0 && config_.query_core_cap < query_shards)
        query_shards = config_.query_core_cap;
    query_cores_.reserve(query_shards);
    for (size_t i = 0; i < query_shards; ++i)
        query_cores_.push_back(std::make_unique<QueryCoreShard>());
    query_core_shard_cap_ = config_.query_core_cap == 0
                                ? 0
                                : config_.query_core_cap / query_shards;
}

void
PruneIndex::InitStore(SubsumptionStore *store, size_t cap) const
{
    // A cap below the shard count would overshoot with one entry per
    // shard; shrink the stripe count instead so the documented bound
    // holds exactly.
    size_t shards = config_.shards;
    if (cap != 0 && cap < shards)
        shards = cap;
    store->shards.reserve(shards);
    for (size_t i = 0; i < shards; ++i)
        store->shards.push_back(
            std::make_unique<SubsumptionStore::Shard>());
    store->per_shard_cap = cap == 0 ? 0 : cap / shards;
}

bool
PruneIndex::Fingerprint(const std::vector<smt::ExprRef> &exprs,
                        PruneFpVec *out) const
{
    out->clear();
    out->reserve(exprs.size());
    for (smt::ExprRef e : exprs) {
        if (e == nullptr || e->max_var_bound() > config_.shared_var_limit)
            return false;
        out->emplace_back(e->struct_hash(), e->struct_hash2());
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    return true;
}

PruneFp
PruneIndex::KeyOf(const PruneFpVec &primary, const PruneFpVec &secondary)
{
    // Sorted vectors: front() is the smallest fingerprint. An entry's
    // key must be contained in any query it subsumes, which is what
    // lets the probe confine itself to buckets keyed by its own
    // fingerprints.
    if (!primary.empty())
        return primary.front();
    if (!secondary.empty())
        return secondary.front();
    return PruneFp{0, 0};
}

PruneIndex::SubsumptionStore::Shard &
PruneIndex::ShardFor(SubsumptionStore &store, const PruneFp &key) const
{
    return *store.shards[static_cast<size_t>(FpHash{}(key)) %
                         store.shards.size()];
}

void
PruneIndex::EvictHalf(SubsumptionStore *store,
                      SubsumptionStore::Shard *shard)
{
    // ReduceDB-style halving: keep the more active ceil(n/2) entries,
    // breaking ties toward younger ones, then rebuild the bucket map.
    // Entries with cross-worker hits since the last round are hot
    // cores -- proven to transfer between workers -- and are exempt
    // from this round unconditionally; the exemption is consumed
    // (cross_hits reset), so a core that goes cold competes on
    // (activity, stamp) next time. A shard where more than half the
    // entries are hot temporarily exceeds the target; the next halving
    // corrects that.
    std::vector<Entry> &entries = shard->entries;
    const size_t keep = (entries.size() + 1) / 2;
    std::vector<Entry> kept;
    kept.reserve(keep);
    std::vector<uint32_t> cold;
    cold.reserve(entries.size());
    for (uint32_t i = 0; i < entries.size(); ++i) {
        if (entries[i].cross_hits > 0) {
            entries[i].cross_hits = 0;
            hot_exemptions_.fetch_add(1, std::memory_order_relaxed);
            kept.push_back(std::move(entries[i]));
        } else {
            cold.push_back(i);
        }
    }
    std::sort(cold.begin(), cold.end(), [&](uint32_t a, uint32_t b) {
        if (entries[a].activity != entries[b].activity)
            return entries[a].activity > entries[b].activity;
        return entries[a].stamp > entries[b].stamp;
    });
    for (size_t i = 0; i < cold.size() && kept.size() < keep; ++i)
        kept.push_back(std::move(entries[cold[i]]));
    evictions_.fetch_add(
        static_cast<int64_t>(entries.size() - kept.size()),
        std::memory_order_relaxed);
    store->live.fetch_sub(entries.size() - kept.size(),
                          std::memory_order_relaxed);
    entries = std::move(kept);
    shard->buckets.clear();
    for (uint32_t i = 0; i < entries.size(); ++i) {
        shard->buckets[KeyOf(entries[i].primary, entries[i].secondary)]
            .push_back(i);
    }
}

void
PruneIndex::Record(SubsumptionStore *store, size_t publisher,
                   uint64_t payload, const PruneFpVec &primary,
                   const PruneFpVec &secondary)
{
    const PruneFp key = KeyOf(primary, secondary);
    SubsumptionStore::Shard &shard = ShardFor(*store, key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto bucket = shard.buckets.find(key);
    if (bucket != shard.buckets.end()) {
        for (uint32_t idx : bucket->second) {
            Entry &e = shard.entries[idx];
            if (e.payload == payload && e.primary == primary &&
                e.secondary == secondary) {
                // Re-discovery is the activity signal: a core proven
                // again was worth keeping.
                ++e.activity;
                return;
            }
        }
    }
    if (store->per_shard_cap != 0 &&
        shard.entries.size() >= store->per_shard_cap) {
        EvictHalf(store, &shard);
    }
    Entry entry;
    entry.primary = primary;
    entry.secondary = secondary;
    entry.payload = payload;
    entry.publisher = publisher;
    entry.stamp = shard.next_stamp++;
    shard.buckets[key].push_back(
        static_cast<uint32_t>(shard.entries.size()));
    shard.entries.push_back(std::move(entry));
    store->live.fetch_add(1, std::memory_order_relaxed);
}

bool
PruneIndex::Probe(SubsumptionStore *store, size_t consumer,
                  const PruneFpVec &primary_set,
                  const PruneFpVec &secondary_set, uint64_t *payload,
                  std::atomic<int64_t> *hit_counter)
{
    // Candidate bucket keys: an entry's key is its smallest primary
    // (else secondary) fingerprint, which must be contained in the
    // query for subsumption, so probing every query fingerprint (plus
    // the empty-core key) covers all possible hits.
    auto probe_key = [&](const PruneFp &key) -> bool {
        SubsumptionStore::Shard &shard = ShardFor(*store, key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto bucket = shard.buckets.find(key);
        if (bucket == shard.buckets.end())
            return false;
        for (uint32_t idx : bucket->second) {
            Entry &e = shard.entries[idx];
            if (std::includes(primary_set.begin(), primary_set.end(),
                              e.primary.begin(), e.primary.end()) &&
                std::includes(secondary_set.begin(), secondary_set.end(),
                              e.secondary.begin(), e.secondary.end())) {
                ++e.activity;
                if (payload != nullptr)
                    *payload = e.payload;
                hit_counter->fetch_add(1, std::memory_order_relaxed);
                if (e.publisher != consumer) {
                    ++e.cross_hits;
                    cross_hits_.fetch_add(1, std::memory_order_relaxed);
                }
                return true;
            }
        }
        return false;
    };
    for (const PruneFp &fp : primary_set)
        if (probe_key(fp))
            return true;
    for (const PruneFp &fp : secondary_set)
        if (probe_key(fp))
            return true;
    return probe_key(PruneFp{0, 0});
}

void
PruneIndex::RecordCore(size_t publisher, const PruneFpVec &primary,
                       const PruneFpVec &secondary)
{
    cores_recorded_.fetch_add(1, std::memory_order_relaxed);
    Record(&cores_, publisher, 0, primary, secondary);
}

bool
PruneIndex::SubsumesCore(size_t consumer, const PruneFpVec &primary_set,
                         const PruneFpVec &secondary_set)
{
    core_probes_.fetch_add(1, std::memory_order_relaxed);
    return Probe(&cores_, consumer, primary_set, secondary_set, nullptr,
                 &core_hits_);
}

void
PruneIndex::RecordFieldCore(size_t publisher, uint64_t field_token,
                            const PruneFpVec &path_part,
                            const PruneFpVec &match_part)
{
    overlay_recorded_.fetch_add(1, std::memory_order_relaxed);
    Record(&overlay_, publisher, field_token, path_part, match_part);
}

bool
PruneIndex::OverlaySubsumes(size_t consumer, const PruneFpVec &path_set,
                            const PruneFpVec &match_set,
                            uint64_t *field_token)
{
    overlay_probes_.fetch_add(1, std::memory_order_relaxed);
    // The overlay is consulted on every match query but only ever
    // populated when a single-independent-field core is found; on
    // protocols where that never happens every probe used to hash the
    // query fingerprints and take a stripe lock just to scan nothing.
    // One relaxed load answers the common empty case instead (a racing
    // insert missed here would at worst have been a hit; missing it is
    // indistinguishable from probing before the insert).
    if (overlay_.live.load(std::memory_order_relaxed) == 0)
        return false;
    return Probe(&overlay_, consumer, path_set, match_set, field_token,
                 &overlay_hits_);
}

uint64_t
PruneIndex::ChainHash(const PruneFpVec &fps)
{
    // Order-dependent chain over the sorted vector: far more
    // collision-resistant than an additive key, and deterministic
    // across contexts because the fingerprints themselves are.
    uint64_t h = 0xcbf29ce484222325ull + 0x9e3779b9ull * fps.size();
    for (const PruneFp &fp : fps) {
        h = (h ^ fp.first) * 0x100000001b3ull;
        h = (h ^ fp.second) * 0x100000001b3ull;
    }
    return h;
}

bool
PruneIndex::PutQueryCore(const PruneFpVec &query_fps,
                         const PruneFpVec &core_fps)
{
    const uint64_t key = ChainHash(query_fps);
    QueryCoreShard &shard =
        *query_cores_[static_cast<size_t>(key) % query_cores_.size()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (query_core_shard_cap_ != 0 &&
        shard.map.size() >= query_core_shard_cap_ &&
        shard.map.find(key) == shard.map.end()) {
        // Reduce by (activity, stamp), the same ReduceDB rule as the
        // subsumption stores (without the hot exemption: query cores
        // carry no cross-worker attribution).
        std::vector<std::pair<uint64_t, const QueryCoreEntry *>> scored;
        scored.reserve(shard.map.size());
        for (const auto &[k, e] : shard.map)
            scored.emplace_back(k, &e);
        std::sort(scored.begin(), scored.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second->activity != b.second->activity)
                          return a.second->activity > b.second->activity;
                      return a.second->stamp > b.second->stamp;
                  });
        const size_t keep = (scored.size() + 1) / 2;
        std::unordered_map<uint64_t, QueryCoreEntry> kept;
        kept.reserve(keep);
        for (size_t i = 0; i < keep; ++i)
            kept.emplace(scored[i].first, *scored[i].second);
        evictions_.fetch_add(
            static_cast<int64_t>(shard.map.size() - keep),
            std::memory_order_relaxed);
        shard.map = std::move(kept);
    }
    auto [it, inserted] = shard.map.try_emplace(key);
    if (!inserted)
        return false;  // first writer wins (any core proves the verdict)
    it->second.query = query_fps;
    it->second.core = core_fps;
    it->second.stamp = shard.next_stamp++;
    return true;
}

void
PruneIndex::RecordQueryCore(const PruneFpVec &query_fps,
                            const PruneFpVec &core_fps)
{
    if (PutQueryCore(query_fps, core_fps))
        query_cores_recorded_.fetch_add(1, std::memory_order_relaxed);
}

bool
PruneIndex::LookupQueryCore(const PruneFpVec &query_fps,
                            PruneFpVec *core_fps)
{
    const uint64_t key = ChainHash(query_fps);
    QueryCoreShard &shard =
        *query_cores_[static_cast<size_t>(key) % query_cores_.size()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.query != query_fps)
        return false;
    ++it->second.activity;
    query_core_hits_.fetch_add(1, std::memory_order_relaxed);
    if (core_fps != nullptr)
        *core_fps = it->second.core;
    return true;
}

void
PruneIndex::ExportStore(const SubsumptionStore &store,
                        std::vector<ExportedEntry> *out)
{
    for (const auto &shard : store.shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const Entry &e : shard->entries) {
            ExportedEntry exported;
            exported.primary = e.primary;
            exported.secondary = e.secondary;
            exported.payload = e.payload;
            out->push_back(std::move(exported));
        }
    }
}

void
PruneIndex::ExportCores(std::vector<ExportedEntry> *out) const
{
    ExportStore(cores_, out);
}

void
PruneIndex::ExportOverlay(std::vector<ExportedEntry> *out) const
{
    ExportStore(overlay_, out);
}

void
PruneIndex::ExportQueryCores(std::vector<ExportedQueryCore> *out) const
{
    for (const auto &shard : query_cores_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[key, e] : shard->map) {
            ExportedQueryCore exported;
            exported.query = e.query;
            exported.core = e.core;
            out->push_back(std::move(exported));
        }
    }
}

void
PruneIndex::ImportCores(const std::vector<ExportedEntry> &entries)
{
    for (const ExportedEntry &e : entries) {
        Record(&cores_, kImportedPublisher, e.payload, e.primary,
               e.secondary);
        imported_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
PruneIndex::ImportOverlay(const std::vector<ExportedEntry> &entries)
{
    for (const ExportedEntry &e : entries) {
        Record(&overlay_, kImportedPublisher, e.payload, e.primary,
               e.secondary);
        imported_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
PruneIndex::ImportQueryCores(const std::vector<ExportedQueryCore> &entries)
{
    for (const ExportedQueryCore &e : entries) {
        PutQueryCore(e.query, e.core);
        imported_.fetch_add(1, std::memory_order_relaxed);
    }
}

size_t
PruneIndex::StoreSize(const SubsumptionStore &store)
{
    size_t total = 0;
    for (const auto &shard : store.shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

size_t
PruneIndex::core_entries() const
{
    return StoreSize(cores_);
}

size_t
PruneIndex::overlay_entries() const
{
    return StoreSize(overlay_);
}

size_t
PruneIndex::query_core_entries() const
{
    size_t total = 0;
    for (const auto &shard : query_cores_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->map.size();
    }
    return total;
}

void
PruneIndex::ExportStats(obs::CounterView *stats) const
{
    stats->Add("prune.cores_recorded", Load(cores_recorded_));
    stats->Add("prune.core_hits", Load(core_hits_));
    stats->Add("prune.core_probes", Load(core_probes_));
    stats->Add("prune.overlay_probes", Load(overlay_probes_));
    stats->Add("prune.overlay_edges", Load(overlay_recorded_));
    stats->Add("prune.overlay_hits", Load(overlay_hits_));
    stats->Add("prune.query_cores_recorded", Load(query_cores_recorded_));
    stats->Add("prune.query_core_hits", Load(query_core_hits_));
    stats->Add("prune.cross_worker_hits", Load(cross_hits_));
    stats->Add("prune.evictions", Load(evictions_));
    stats->Add("prune.hot_exemptions", Load(hot_exemptions_));
    stats->Add("prune.imported", Load(imported_));
    // Summed like every view entry: a run can export more than one
    // index (the ParallelEngine's shared instance plus the explorer's
    // home one), and the honest gauge is their sum.
    stats->Add("prune.core_entries", static_cast<int64_t>(core_entries()));
    stats->Add("prune.overlay_entries",
               static_cast<int64_t>(overlay_entries()));
    stats->Add("prune.query_core_entries",
               static_cast<int64_t>(query_core_entries()));
}

}  // namespace exec
}  // namespace achilles
