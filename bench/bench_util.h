// Achilles reproduction -- benchmark harness helpers.
//
// Shared formatting for the per-table/per-figure reproduction binaries.
// Each binary prints the paper's reference numbers next to the measured
// ones so the "shape" comparison (who wins, by what factor) is direct.
//
// Machine-readable output: call ParseBenchArgs(argc, argv) in main and
// record numbers through Metric(); with `--json <path>` on the command
// line every metric is also written to <path> as a JSON array of
// {"metric": ..., "value": ...} records, so successive PRs can track the
// perf trajectory (BENCH_*.json) without scraping stdout. A run's
// report (AchillesResult::report) travels as one nested record,
// {"metric": "metrics", "nested": {...}} -- the trend script flattens
// its entries to "metrics.<name>", so flat lookups keep working.

#ifndef ACHILLES_BENCH_BENCH_UTIL_H_
#define ACHILLES_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace achilles {
namespace bench {

/** Collects {metric, value} records and writes them on Flush(). */
class JsonRecorder
{
  public:
    static JsonRecorder &
    Instance()
    {
        static JsonRecorder recorder;
        return recorder;
    }

    void Open(std::string path) { path_ = std::move(path); }
    bool enabled() const { return !path_.empty(); }

    void
    Record(const std::string &metric, double value)
    {
        if (enabled())
            records_.emplace_back(metric, value);
    }

    /**
     * Record one nested object, emitted as
     * {"metric": <metric>, "nested": {name: value, ...}}. Used for the
     * run's observability summary so dozens of obs counters do not
     * crowd the flat record list.
     */
    void
    RecordNested(const std::string &metric,
                 std::vector<std::pair<std::string, double>> entries)
    {
        if (enabled())
            nested_.emplace_back(metric, std::move(entries));
    }

    /** Write all records; called automatically at program exit. */
    void
    Flush()
    {
        if (!enabled() || (records_.empty() && nested_.empty()))
            return;
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
            return;
        }
        const size_t total = records_.size() + nested_.size();
        size_t written = 0;
        std::fprintf(f, "[\n");
        for (size_t i = 0; i < records_.size(); ++i) {
            ++written;
            std::fprintf(f, "  {\"metric\": \"%s\", \"value\": %.9g}%s\n",
                         records_[i].first.c_str(), records_[i].second,
                         written < total ? "," : "");
        }
        for (size_t i = 0; i < nested_.size(); ++i) {
            ++written;
            std::fprintf(f, "  {\"metric\": \"%s\", \"nested\": {",
                         nested_[i].first.c_str());
            const auto &entries = nested_[i].second;
            for (size_t j = 0; j < entries.size(); ++j) {
                std::fprintf(f, "%s\"%s\": %.9g", j > 0 ? ", " : "",
                             entries[j].first.c_str(),
                             entries[j].second);
            }
            std::fprintf(f, "}}%s\n", written < total ? "," : "");
        }
        std::fprintf(f, "]\n");
        std::fclose(f);
        records_.clear();
        nested_.clear();
    }

    ~JsonRecorder() { Flush(); }

  private:
    JsonRecorder() = default;
    std::string path_;
    std::vector<std::pair<std::string, double>> records_;
    std::vector<std::pair<std::string,
                          std::vector<std::pair<std::string, double>>>>
        nested_;
};

/** Handle shared harness flags; currently `--json <path>`. */
inline void
ParseBenchArgs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            JsonRecorder::Instance().Open(argv[i + 1]);
    }
}

inline void
Header(const std::string &title)
{
    std::printf("\n==============================================="
                "=====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================"
                "====================\n");
}

inline void
Section(const std::string &name)
{
    std::printf("\n--- %s ---\n", name.c_str());
}

inline void
Note(const std::string &text)
{
    std::printf("  # %s\n", text.c_str());
}

/** Print a named number and record it for `--json` output. */
inline void
Metric(const std::string &name, double value,
       const std::string &unit = "")
{
    std::printf("  %-40s %12.4f%s%s\n", name.c_str(), value,
                unit.empty() ? "" : " ", unit.c_str());
    JsonRecorder::Instance().Record(name, value);
}

/**
 * Fold a run's report into the `--json` artifact as the nested
 * "metrics" record. No-op when `--json` was not given.
 */
inline void
RecordRunMetrics(const obs::CounterView &report)
{
    std::vector<std::pair<std::string, double>> entries;
    for (const auto &[name, value] : report.All())
        entries.emplace_back(name, static_cast<double>(value));
    JsonRecorder::Instance().RecordNested("metrics", std::move(entries));
}

}  // namespace bench
}  // namespace achilles

#endif  // ACHILLES_BENCH_BENCH_UTIL_H_
