// Achilles reproduction -- observability layer.

#include "obs/run_report.h"

#include <cmath>
#include <cstdio>

namespace achilles {
namespace obs {

void
RunReport::Set(const std::string &name, double value)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        metrics_[it->second].second = value;
        return;
    }
    index_.emplace(name, metrics_.size());
    metrics_.emplace_back(name, value);
}

double
RunReport::Get(const std::string &name, bool *found) const
{
    const auto it = index_.find(name);
    if (found != nullptr)
        *found = it != index_.end();
    return it == index_.end() ? 0.0 : metrics_[it->second].second;
}

void
RunReport::Add(const CounterView &counters)
{
    for (const auto &[name, value] : counters.All())
        Set(name, static_cast<double>(value));
}

void
RunReport::Add(const MetricsRegistry &registry)
{
    for (const auto &[name, snap] : registry.Aggregate()) {
        if (snap.kind == MetricSnapshot::Kind::kDistribution) {
            Set(name + ".count", static_cast<double>(snap.dist.count));
            Set(name + ".sum", static_cast<double>(snap.dist.sum));
            if (snap.dist.count > 0) {
                Set(name + ".min", static_cast<double>(snap.dist.min));
                Set(name + ".max", static_cast<double>(snap.dist.max));
                Set(name + ".mean", snap.dist.Mean());
            }
        } else {
            Set(name, static_cast<double>(snap.value));
        }
    }
}

void
RunReport::AddTrace(const TraceRecorder &recorder)
{
    Set("obs.trace_events", static_cast<double>(recorder.TotalRetained()));
    Set("obs.trace_dropped", static_cast<double>(recorder.TotalDropped()));
}

namespace {

/** Format a value: integers without a decimal point, the rest with
 *  enough digits to round-trip rates and means. */
void
WriteNumber(std::ostream &os, double value)
{
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 9.0e15) {
        os << static_cast<long long>(value);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    os << buf;
}

}  // namespace

void
RunReport::WriteJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const auto &[name, value] : metrics_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << name << "\":";
        WriteNumber(os, value);
    }
    os << "}";
}

void
RunReport::Dump(std::ostream &os, const std::string &prefix) const
{
    for (const auto &[name, value] : metrics_) {
        os << prefix << name << " = ";
        WriteNumber(os, value);
        os << "\n";
    }
}

}  // namespace obs
}  // namespace achilles
