// Achilles reproduction -- observability layer.
//
// Run-wide metrics: a sharded, thread-safe registry of named counters
// and value distributions, in the S2E execution-tracer spirit -- legal
// to touch from the parallel exec/ subsystem. Three kinds of
// instrument:
//
//   Counter       monotonically bumped integer; one lock-free slot per
//                 shard (a shard is one worker thread's lane), relaxed
//                 fetch_add on the hot path.
//   Distribution  min/max/sum/count of recorded values (per-solve
//                 conflicts, path depths); per-shard slots,
//                 CAS only for min/max.
//   Gauge         a registered callback snapshotting an external atomic
//                 (the scheduler's queued-state and stolen-state
//                 counts); read at aggregation time only,
//                 so existing lock-free component counters are absorbed
//                 into the registry without touching their hot paths.
//
// Registration (interning a dotted name into slot ids) takes a mutex
// and happens at component construction; bumping never does. Shards are
// aggregated on demand -- by the progress heartbeat's sampler thread
// mid-run (reading relaxed atomics, never locking a hot structure) and
// by RunReport at exit.
//
// Component-private counts do not go through the registry. Each
// component (SAT solver, solver facade, engine, explorer planes, ...)
// counts on a struct of plain int64_t fields that only its owning
// thread writes, and names them in one AddTo(CounterView *) function.
// CounterView below is the read-out built from those lists: what
// `stats()` accessors return and what join-time merges sum.

#ifndef ACHILLES_OBS_METRICS_H_
#define ACHILLES_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace achilles {
namespace obs {

/** Aggregated view of one distribution across all shards. */
struct DistSnapshot
{
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;  ///< meaningful only when count > 0
    int64_t max = 0;  ///< meaningful only when count > 0

    double
    Mean() const
    {
        return count > 0 ? static_cast<double>(sum) /
                               static_cast<double>(count)
                         : 0.0;
    }
};

/** Aggregated view of one metric (counter, distribution or gauge). */
struct MetricSnapshot
{
    enum class Kind : uint8_t { kCounter, kDistribution, kGauge };
    Kind kind = Kind::kCounter;
    int64_t value = 0;   ///< counters and gauges
    DistSnapshot dist;   ///< distributions
};

/**
 * The sharded run-wide registry. One instance per run; every worker
 * thread bumps its own shard (shard index == the thread's obs lane:
 * 0 for the main/pipeline thread, 1+w for worker w), so the hot path
 * is a relaxed fetch_add on a cache line no other writer shares.
 * Multi-writer bumps on one shard are still correct (all slot updates
 * are atomic RMW), just slower -- the lane discipline is a performance
 * contract, not a safety one.
 */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(size_t num_shards = 1);
    /** Out-of-line: Shard is only complete in the .cc. */
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Opaque per-shard distribution accumulator (defined in the .cc). */
    struct DistSlot;

    /** A counter handle: cheap to copy, inert when default-constructed
     *  (a single null-check branch on Bump, nothing else). */
    class Counter
    {
      public:
        Counter() = default;
        void
        Bump(int64_t delta = 1)
        {
            if (slot_ != nullptr)
                slot_->fetch_add(delta, std::memory_order_relaxed);
        }

      private:
        friend class MetricsRegistry;
        explicit Counter(std::atomic<int64_t> *slot) : slot_(slot) {}
        std::atomic<int64_t> *slot_ = nullptr;
    };

    /** A distribution handle; inert when default-constructed. */
    class Distribution
    {
      public:
        Distribution() = default;
        void Record(int64_t value);

      private:
        friend class MetricsRegistry;
        explicit Distribution(DistSlot *slot) : slot_(slot) {}
        DistSlot *slot_ = nullptr;
    };

    /**
     * Intern `name` as a counter and return shard `shard`'s handle for
     * it (shard indices wrap modulo the shard count, so lane numbering
     * never needs to match the registry width exactly). Re-registering
     * an existing name returns a handle onto the same metric.
     */
    Counter GetCounter(size_t shard, const std::string &name);

    /** Intern `name` as a distribution; shard semantics as above. */
    Distribution GetDistribution(size_t shard, const std::string &name);

    /**
     * Register an external gauge: `read` is invoked at aggregation time
     * (heartbeat samples, RunReport) and must be safe to call from the
     * sampler thread while the run is live -- in practice, a relaxed
     * load of a component-owned atomic. Re-registering a name replaces
     * the callback (a run can hand the name to a fresh component).
     */
    void RegisterGauge(const std::string &name,
                       std::function<int64_t()> read);

    size_t num_shards() const { return shards_.size(); }

    /** Fold every shard (and gauge) into one name-sorted snapshot.
     *  Safe to call concurrently with bumps; each slot is read with a
     *  relaxed load, so the snapshot is per-metric atomic (never torn
     *  within one counter) and monotone across samples. */
    std::map<std::string, MetricSnapshot> Aggregate() const;

    /** Pretty-print the aggregate, one metric per line. */
    void Dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    struct Shard;

    enum class Kind : uint8_t { kCounter, kDistribution };

    /** Intern a name (mutex-held by caller); returns its metric id. */
    uint32_t Intern(const std::string &name, Kind kind);

    mutable std::mutex mutex_;  ///< registration + gauge table only
    std::unordered_map<std::string, uint32_t> ids_;
    std::vector<std::string> names_;
    std::vector<Kind> kinds_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::map<std::string, std::function<int64_t()>> gauges_;
};

/**
 * A plain name -> value read-out of typed counters. Built from a stats
 * struct's AddTo list (ViewOf) after, or on the thread of, the
 * counting; merges sum entries by name. No mutex: nothing writes a view
 * on a hot path, and a view is never shared between running threads.
 */
class CounterView
{
  public:
    /** Add `value` to the named entry (creating it at zero). */
    void
    Add(const std::string &name, int64_t value)
    {
        values_[name] += value;
    }

    /** Read an entry; zero if absent. */
    int64_t
    Get(const std::string &name) const
    {
        const auto it = values_.find(name);
        return it == values_.end() ? 0 : it->second;
    }

    /** All entries, sorted by name (a copy, so reading it off a
     *  temporary view, as in `solver.stats().All()`, is safe). */
    std::map<std::string, int64_t> All() const { return values_; }

    /** Sum another view into this one. Safe on itself: every name
     *  already exists, so the loop inserts nothing while iterating. */
    void
    Merge(const CounterView &other)
    {
        for (const auto &[name, value] : other.values_)
            values_[name] += value;
    }

  private:
    std::map<std::string, int64_t> values_;
};

/** The view of one stats struct: whatever its AddTo lists. */
template <typename Stats>
CounterView
ViewOf(const Stats &stats)
{
    CounterView view;
    stats.AddTo(&view);
    return view;
}

}  // namespace obs
}  // namespace achilles

#endif  // ACHILLES_OBS_METRICS_H_
