// Achilles reproduction -- observability layer.

#include "obs/metrics.h"

#include "support/logging.h"

namespace achilles {
namespace obs {

void
MetricsRegistry::Attach(const std::string &name,
                        const std::atomic<int64_t> &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    attached_.emplace_back(name, &value);
}

void
MetricsRegistry::Detach(const std::atomic<int64_t> &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < attached_.size(); ++i) {
        if (attached_[i].second != &value)
            continue;
        folded_[attached_[i].first] +=
            value.load(std::memory_order_relaxed);
        attached_[i] = std::move(attached_.back());
        attached_.pop_back();
        return;
    }
    ACHILLES_UNREACHABLE("detaching a value that is not attached");
}

std::map<std::string, MetricSnapshot>
MetricsRegistry::Aggregate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, MetricSnapshot> out;
    for (const auto &[name, value] : folded_)
        out[name].value += value;
    for (const auto &[name, value] : attached_)
        out[name].value += value->load(std::memory_order_relaxed);
    return out;
}

void
CounterView::WriteJson(std::ostream &os) const
{
    os << "{";
    const char *sep = "";
    for (const auto &[name, value] : values_) {
        os << sep << "\"" << name << "\":" << value;
        sep = ",";
    }
    os << "}";
}

}  // namespace obs
}  // namespace achilles
