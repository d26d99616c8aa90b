// Achilles reproduction -- observability layer.
//
// One metrics system: every event is counted once, on a typed field.
// Each component (SAT solver, solver facade, engine, explorer planes,
// ...) counts on a struct of fields that only its owning thread writes,
// and names them once, in its AddTo(CounterView *) function.
// CounterView below is the read-out built from those lists: what
// `stats()` accessors return, what join-time merges sum, and the run
// report (AchillesResult::report).
//
// A field that another thread reads while the run is live -- the
// progress heartbeat's states, frontier, queries and kUnknown count --
// is a LiveCount, and MetricsRegistry is the live view over those
// fields: a component attaches them by name when it is built and
// detaches them when it dies. The registry stores no count of its own
// beyond the final values of detached fields.

#ifndef ACHILLES_OBS_METRICS_H_
#define ACHILLES_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace achilles {
namespace obs {

/**
 * A count that one thread writes and any thread may read mid-run. A
 * bump is a relaxed load and a relaxed store -- no locked instruction,
 * the same code as a plain increment on x86-64 -- so only the owning
 * thread may bump or set it.
 */
class LiveCount
{
  public:
    LiveCount &
    operator++()
    {
        Set(Get() + 1);
        return *this;
    }

    void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
    int64_t Get() const { return value_.load(std::memory_order_relaxed); }

    /** The value itself, for MetricsRegistry::Attach. */
    const std::atomic<int64_t> &atomic() const { return value_; }

  private:
    std::atomic<int64_t> value_{0};
};

/** One name's value in MetricsRegistry::Aggregate. A struct rather than
 *  a plain integer only because e2ebench/achilles_e2e.cc reads `.value`
 *  (the benchmark's files change only in a benchmark PR). */
struct MetricSnapshot
{
    int64_t value = 0;
};

/**
 * The run's live view: named references to the LiveCounts (and the
 * exploration scheduler's queued-state count) of the components built
 * with this registry in their obs::ObsHandle. A component attaches its
 * fields in its constructor and detaches them in its destructor, which
 * folds each final value in under its name, so a name keeps counting
 * after its component is gone.
 *
 * The registry must outlive every component attached to it. Attach,
 * Detach and Aggregate take one mutex; the counting threads never do.
 */
class MetricsRegistry
{
  public:
    /** The lane count is ignored. The parameter stays only because
     *  e2ebench/achilles_e2e.cc passes one. */
    explicit MetricsRegistry(size_t lanes = 1) { (void)lanes; }
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** List `value` under `name`; several values may share a name. */
    void Attach(const std::string &name, const std::atomic<int64_t> &value);

    /** Stop reading `value` and fold its final value into its name. */
    void Detach(const std::atomic<int64_t> &value);

    /** Per name, the folded values plus the attached ones, each read
     *  with a relaxed load: monotone across samples for a count that
     *  only grows. */
    std::map<std::string, MetricSnapshot> Aggregate() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, const std::atomic<int64_t> *>>
        attached_;
    std::map<std::string, int64_t> folded_;
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

    /** Write the view as one JSON object, names sorted:
     *  `{"a.x":1,"b.y":42}`. */
    void WriteJson(std::ostream &os) const;

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
