// End-to-end analysis benchmark -- span self times from a Chrome trace.

#include "e2ebench/trace_summary.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace achilles {
namespace e2e {

namespace {

/** The text after `"key":` in `line`, or npos. */
size_t
ValueAt(const std::string &line, const char *key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const size_t at = line.find(needle);
    return at == std::string::npos ? at : at + needle.size();
}

bool
IntField(const std::string &line, const char *key, int64_t *out)
{
    const size_t at = ValueAt(line, key);
    if (at == std::string::npos)
        return false;
    char *end = nullptr;
    *out = std::strtoll(line.c_str() + at, &end, 10);
    return end != line.c_str() + at;
}

bool
StringField(const std::string &line, const char *key, std::string *out)
{
    const size_t at = ValueAt(line, key);
    if (at == std::string::npos || at >= line.size() || line[at] != '"')
        return false;
    const size_t close = line.find('"', at + 1);
    if (close == std::string::npos)
        return false;
    *out = line.substr(at + 1, close - at - 1);
    return true;
}

}  // namespace

std::vector<Span>
ParseChromeTrace(const std::string &json)
{
    std::vector<Span> spans;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        Span span;
        if (StringField(line, "name", &span.name) &&
            IntField(line, "tid", &span.track) &&
            IntField(line, "ts", &span.start_us) &&
            IntField(line, "dur", &span.duration_us))
            spans.push_back(std::move(span));
    }
    return spans;
}

TraceSummary
Summarize(std::vector<Span> spans)
{
    // Parents sort before their children: by track, then start, then
    // longer first (a child may start on its parent's microsecond).
    std::sort(spans.begin(), spans.end(), [](const Span &a, const Span &b) {
        if (a.track != b.track)
            return a.track < b.track;
        if (a.start_us != b.start_us)
            return a.start_us < b.start_us;
        return a.duration_us > b.duration_us;
    });
    TraceSummary summary;
    std::vector<size_t> open;  // indices of enclosing spans, innermost last
    std::vector<int64_t> child_us(spans.size(), 0);
    const auto close = [&](size_t i) {
        const int64_t self = spans[i].duration_us - child_us[i];
        summary.self_s[spans[i].name] += static_cast<double>(self) * 1e-6;
    };
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        while (!open.empty()) {
            const Span &top = spans[open.back()];
            if (top.track == s.track &&
                s.start_us + s.duration_us <= top.start_us + top.duration_us)
                break;
            close(open.back());
            open.pop_back();
        }
        if (!open.empty())
            child_us[open.back()] += s.duration_us;
        open.push_back(i);
        if (s.track > 0 && s.name == "engine.step")
            summary.worker_step_s += static_cast<double>(s.duration_us) * 1e-6;
    }
    while (!open.empty()) {
        close(open.back());
        open.pop_back();
    }
    return summary;
}

const std::vector<std::pair<std::string, std::string>> &
SelfTimeMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> metrics = {
        {"bench.setup", "obs.self_s.bench_setup"},
        {"bench.analyze", "obs.self_s.bench_analyze"},
        {"bench.verify", "obs.self_s.bench_verify"},
        {"phase.client_extraction", "obs.self_s.client_extraction"},
        {"phase.preprocessing", "obs.self_s.preprocessing"},
        {"phase.server_analysis", "obs.self_s.server_analysis"},
        {"engine.step", "obs.self_s.engine_step"},
        {"solver.query", "obs.self_s.solver_query"},
    };
    return metrics;
}

}  // namespace e2e
}  // namespace achilles
