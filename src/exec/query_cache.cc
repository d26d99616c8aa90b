// Achilles reproduction -- parallel exploration subsystem.

#include "exec/query_cache.h"

#include <algorithm>

#include "support/hash.h"

namespace achilles {
namespace exec {

bool
QueryCache::ComputeKey(const std::vector<smt::ExprRef> &assertions,
                       uint32_t shared_var_limit, QueryCacheKey *out,
                       QueryFingerprints *fingerprints,
                       const std::vector<smt::ExprRef> *extras)
{
    // Deduplicate (nodes are interned, pointer identity == structural
    // identity within a context) so the key matches however the caller
    // happened to repeat or split conjuncts.
    std::vector<smt::ExprRef> unique_assertions;
    unique_assertions.reserve(assertions.size() +
                              (extras ? extras->size() : 0));
    unique_assertions.insert(unique_assertions.end(), assertions.begin(),
                             assertions.end());
    if (extras != nullptr) {
        unique_assertions.insert(unique_assertions.end(), extras->begin(),
                                 extras->end());
    }
    std::sort(unique_assertions.begin(), unique_assertions.end());
    unique_assertions.erase(
        std::unique(unique_assertions.begin(), unique_assertions.end()),
        unique_assertions.end());

    // Both fingerprints and the variable bound are precomputed per
    // node, so this is O(1) per assertion. The additive key alone is
    // collision-prone (sums of per-assertion hashes can coincide across
    // different sets), so the sorted per-assertion fingerprints travel
    // with it for verification on every Lookup/Insert.
    fingerprints->clear();
    fingerprints->reserve(unique_assertions.size());
    for (smt::ExprRef e : unique_assertions) {
        if (e->max_var_bound() > shared_var_limit)
            return false;
        fingerprints->emplace_back(e->struct_hash(), e->struct_hash2());
    }
    std::sort(fingerprints->begin(), fingerprints->end());

    // Commutative accumulation keeps the key order-insensitive,
    // matching the logical conjunction the assertions denote.
    uint64_t lo = 0x51ed270b9f9f2b4dull +
                  0x632be59bd9b4e019ull * fingerprints->size();
    uint64_t hi = 0x8ebc6af09c88c6e3ull;
    for (const auto &fp : *fingerprints) {
        lo += MixBits(fp.first ^ 0xa0761d6478bd642full);
        hi += MixBits(fp.second + 0xe7037ed1a0b428dbull);
    }
    out->lo = lo;
    out->hi = hi;
    return true;
}

QueryCache::QueryCache(size_t shards)
{
    if (shards == 0)
        shards = 1;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

QueryCache::Shard &
QueryCache::ShardFor(const QueryCacheKey &key)
{
    return *shards_[static_cast<size_t>(key.lo) % shards_.size()];
}

bool
QueryCache::Lookup(const QueryCacheKey &key,
                   const QueryFingerprints &fingerprints, bool want_model,
                   smt::CheckStatus *status, smt::Model *model)
{
    Shard &shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const Entry &entry = it->second;
    if (entry.fingerprints != fingerprints) {
        collisions_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (want_model && entry.status == smt::CheckStatus::kSat &&
        !entry.has_model) {
        // Known-sat but no witness stored: the caller must re-solve on
        // the model-producing path (which will upgrade this entry).
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    *status = entry.status;
    if (model)
        *model = entry.model;
    return true;
}

void
QueryCache::Insert(const QueryCacheKey &key,
                   const QueryFingerprints &fingerprints,
                   smt::CheckStatus status, bool has_model,
                   const smt::Model &model)
{
    if (status == smt::CheckStatus::kUnknown)
        return;  // may become decidable with a bigger budget; don't pin
    Shard &shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.map.try_emplace(
        key, Entry{status, has_model, fingerprints, model});
    if (inserted)
        return;
    Entry &entry = it->second;
    if (entry.fingerprints != fingerprints) {
        // Key collision with a different assertion set: first one wins,
        // the loser simply stays uncached.
        collisions_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (has_model && !entry.has_model) {
        // Model upgrade. The fresh-instance path computes models as a
        // pure function of the query, so whichever worker performs the
        // upgrade stores the same bytes.
        entry.model = model;
        entry.has_model = true;
    }
}

size_t
QueryCache::size() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->map.size();
    }
    return total;
}

void
QueryCache::ExportStats(obs::CounterView *stats) const
{
    stats->Add("exec.queries_cached", hits());
    stats->Add("exec.query_cache_misses", misses());
    stats->Add("exec.query_cache_collisions", collisions());
    stats->Add("exec.query_cache_entries", static_cast<int64_t>(size()));
}

CachedSolver::CachedSolver(smt::ExprContext *ctx, QueryCache *cache,
                           uint32_t shared_var_limit,
                           smt::SolverConfig config)
    : Solver(ctx, config), cache_(cache), shared_var_limit_(shared_var_limit)
{
}

smt::CheckResult
CachedSolver::CheckSat(const std::vector<smt::ExprRef> &assertions,
                       smt::Model *model)
{
    return CheckShared(assertions, nullptr, model);
}

smt::CheckResult
CachedSolver::CheckSatAssuming(const std::vector<smt::ExprRef> &base,
                               const std::vector<smt::ExprRef> &extras,
                               smt::Model *model)
{
    return CheckShared(base, &extras, model);
}

smt::CheckResult
CachedSolver::CheckShared(const std::vector<smt::ExprRef> &base,
                          const std::vector<smt::ExprRef> *extras,
                          smt::Model *model)
{
    QueryCacheKey key;
    QueryFingerprints fingerprints;
    if (cache_ == nullptr ||
        !QueryCache::ComputeKey(base, shared_var_limit_, &key,
                                &fingerprints, extras)) {
        return Solver::CheckSatSets(base, extras, model);
    }
    smt::CheckStatus status;
    if (cache_->Lookup(key, fingerprints, model != nullptr, &status,
                       model)) {
        // Counted once, in the cache's own hit counter (exported as
        // "exec.queries_cached" by ExportStats) -- a per-solver bump
        // here would double-count after the merge.
        return status;
    }
    // Model-less callers publish verdict-only entries; a later
    // model-requesting caller re-solves the query (its model is a pure
    // function of the query) and upgrades the entry.
    const smt::CheckResult result = Solver::CheckSatSets(base, extras, model);
    cache_->Insert(key, fingerprints, result,
                   /*has_model=*/model != nullptr,
                   model != nullptr ? *model : smt::Model());
    return result;
}

}  // namespace exec
}  // namespace achilles
