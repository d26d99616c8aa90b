// End-to-end analysis benchmark -- span self times from a Chrome trace.
//
// obs::TraceRecorder exposes its events only as Chrome trace JSON, so
// the benchmark reads the spans back from that text: one event object
// per line, "ph":"X" for a complete span. A span's self time is its
// duration minus the part its direct children cover; children are the
// spans on the same track that lie inside it.

#ifndef ACHILLES_E2EBENCH_TRACE_SUMMARY_H_
#define ACHILLES_E2EBENCH_TRACE_SUMMARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace achilles {
namespace e2e {

struct Span
{
    std::string name;
    int64_t track = 0;
    int64_t start_us = 0;
    int64_t duration_us = 0;
};

/** Complete spans ("ph":"X") of a WriteChromeTrace document. */
std::vector<Span> ParseChromeTrace(const std::string &json);

struct TraceSummary
{
    /** Self seconds per span name, summed over every track. */
    std::map<std::string, double> self_s;
    /** Summed duration of engine.step spans on worker tracks (1+). */
    double worker_step_s = 0.0;

    double
    SelfSeconds(const std::string &name) const
    {
        const auto it = self_s.find(name);
        return it == self_s.end() ? 0.0 : it->second;
    }
};

TraceSummary Summarize(std::vector<Span> spans);

/** (span name, per-layer metric name) pairs the benchmark reports. */
const std::vector<std::pair<std::string, std::string>> &SelfTimeMetrics();

}  // namespace e2e
}  // namespace achilles

#endif  // ACHILLES_E2EBENCH_TRACE_SUMMARY_H_
