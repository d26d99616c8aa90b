// Achilles reproduction -- observability layer.
//
// RunReport: the end-of-run observability summary folded into
// AchillesResult, every bench `--json` record (as a nested "metrics"
// object) and the `achilles_cli --metrics-out` dump. A flat, ordered
// name -> double map: counters and gauges keep their dotted names,
// distributions flatten to `<name>.count/.sum/.min/.max/.mean`, and
// trace accounting lands under `obs.trace_events` / `obs.trace_dropped`.

#ifndef ACHILLES_OBS_RUN_REPORT_H_
#define ACHILLES_OBS_RUN_REPORT_H_

#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace achilles {
namespace obs {

class RunReport
{
  public:
    /** Name -> value entries in insertion order (names deduplicated:
     *  re-setting a name overwrites in place). */
    const std::vector<std::pair<std::string, double>> &
    metrics() const
    {
        return metrics_;
    }

    bool empty() const { return metrics_.empty(); }

    /** Set one entry (overwrites an existing name). */
    void Set(const std::string &name, double value);

    /** Read one entry; 0 if absent (`found` reports presence). */
    double Get(const std::string &name, bool *found = nullptr) const;

    /** Fold a counter view in (names kept verbatim). */
    void Add(const CounterView &counters);

    /** Fold the live registry's aggregate in, flattening
     *  distributions to .count/.sum/.min/.max/.mean. */
    void Add(const MetricsRegistry &registry);

    /** Record trace volume: obs.trace_events (retained) and
     *  obs.trace_dropped (ring overwrites). */
    void AddTrace(const TraceRecorder &recorder);

    /**
     * Emit the report as one JSON object, `{"name": value, ...}` in
     * entry order. Integral values print without a decimal point so
     * counter-derived entries stay greppable as integers.
     */
    void WriteJson(std::ostream &os) const;

    /** Pretty-print, one `name = value` line per entry. */
    void Dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::vector<std::pair<std::string, double>> metrics_;
    std::unordered_map<std::string, size_t> index_;
};

}  // namespace obs
}  // namespace achilles

#endif  // ACHILLES_OBS_RUN_REPORT_H_
