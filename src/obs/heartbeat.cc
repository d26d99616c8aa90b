// Achilles reproduction -- observability layer.

#include "obs/heartbeat.h"

#include <chrono>
#include <cstdio>

#include "obs/log.h"

namespace achilles {
namespace obs {

namespace {

/** Read one aggregated value by name (counter or gauge; 0 if absent). */
int64_t
ValueOf(const std::map<std::string, MetricSnapshot> &agg,
        const std::string &name)
{
    const auto it = agg.find(name);
    return it == agg.end() ? 0 : it->second.value;
}

double
Percent(int64_t hits, int64_t total)
{
    return total > 0 ? 100.0 * static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
}

}  // namespace

std::string
HeartbeatSample::Format() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "progress t=%.1fs states=%lld frontier=%lld queries=%lld "
        "(%.1f/s) unknown=%.1f%%",
        elapsed_seconds, static_cast<long long>(states_explored),
        static_cast<long long>(frontier), static_cast<long long>(queries),
        queries_per_sec, unknown_rate);
    return buf;
}

Heartbeat::Heartbeat(const MetricsRegistry *registry,
                     double interval_seconds, Sink sink)
    : registry_(registry),
      interval_seconds_(interval_seconds > 0.05 ? interval_seconds : 0.05),
      sink_(std::move(sink))
{
    if (!sink_) {
        sink_ = [](const HeartbeatSample &sample) {
            LogInfo(sample.Format());
        };
    }
}

Heartbeat::~Heartbeat() { Stop(); }

void
Heartbeat::Start()
{
    if (registry_ == nullptr || running_)
        return;
    start_time_ = std::chrono::steady_clock::now();
    last_time_ = start_time_;
    last_queries_ = 0;
    stop_ = false;
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
}

void
Heartbeat::Stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    running_ = false;
    // One final sample so runs shorter than the interval still report.
    sink_(Sample());
}

HeartbeatSample
Heartbeat::Sample()
{
    const auto now = std::chrono::steady_clock::now();
    const auto agg = registry_->Aggregate();

    HeartbeatSample s;
    s.elapsed_seconds =
        std::chrono::duration<double>(now - start_time_).count();
    s.states_explored = ValueOf(agg, "engine.steps");
    s.frontier = ValueOf(agg, "engine.frontier");
    s.queries = ValueOf(agg, "solver.queries");

    const double tick_seconds =
        std::chrono::duration<double>(now - last_time_).count();
    if (tick_seconds > 1e-6)
        s.queries_per_sec =
            static_cast<double>(s.queries - last_queries_) / tick_seconds;
    last_time_ = now;
    last_queries_ = s.queries;

    s.unknown_rate = Percent(ValueOf(agg, "solver.unknowns"), s.queries);
    return s;
}

void
Heartbeat::Loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto interval = std::chrono::duration<double>(interval_seconds_);
    while (!stop_) {
        if (cv_.wait_for(lock, interval, [this] { return stop_; }))
            break;
        // Sampling reads only aggregated shard snapshots; drop the lock
        // so Stop() is never blocked behind a slow sink.
        lock.unlock();
        sink_(Sample());
        lock.lock();
    }
}

}  // namespace obs
}  // namespace achilles
