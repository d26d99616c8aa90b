// Achilles reproduction -- observability layer.
//
// Scoped-span tracer emitting Chrome trace-event JSON (open the file in
// chrome://tracing or https://ui.perfetto.dev). One track per worker
// thread (track 0 is the main/pipeline thread, track 1+w is worker w),
// each backed by a fixed-capacity ring of complete-span events, so
// tracing is allocation-bounded: when a ring wraps, the oldest events
// are overwritten and counted as dropped -- recording never blocks and
// never allocates after construction.
//
// Writer discipline: each track is written by exactly one thread (its
// lane owner). The rings are only read after the traced threads have
// joined (WriteChromeTrace at run exit); the recorder makes no
// mid-run read guarantees and the heartbeat never touches it.
//
// Event names/categories/arg keys are `const char *` and must outlive
// the recorder -- string literals in practice; spans carry up to four
// integer args (conflicts, verdict codes, budget spent).

#ifndef ACHILLES_OBS_TRACE_H_
#define ACHILLES_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace achilles {
namespace obs {

/** One recorded event: a complete span ("ph":"X") or, with
 *  duration < 0, an instant event ("ph":"i"). */
struct TraceEvent
{
    static constexpr size_t kMaxArgs = 4;

    const char *name = nullptr;
    const char *category = nullptr;
    int64_t start_us = 0;
    int64_t duration_us = 0;  ///< < 0 marks an instant event
    uint32_t num_args = 0;
    const char *arg_keys[kMaxArgs] = {};
    int64_t arg_values[kMaxArgs] = {};
    /** Optional string-valued arg (e.g. a verdict); key null = unused. */
    const char *str_arg_key = nullptr;
    const char *str_arg_value = nullptr;
};

/** The per-run recorder. */
class TraceRecorder
{
  public:
    /** `ring_capacity` events are retained per track. */
    TraceRecorder(size_t num_tracks, size_t ring_capacity = 1 << 15);
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    size_t num_tracks() const { return tracks_.size(); }

    /** Microseconds since recorder construction (the trace epoch). */
    int64_t
    NowMicros() const
    {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    /** Record a complete event on `track` (wraps modulo num_tracks).
     *  Called by the track's owner thread only. */
    void Record(size_t track, const TraceEvent &event);

    /** Events overwritten by ring wrap-around on one track / overall. */
    int64_t DroppedOn(size_t track) const;
    int64_t TotalDropped() const;
    /** Events currently retained across all tracks. */
    int64_t TotalRetained() const;

    /**
     * Emit the Chrome trace-event JSON object. Call only after every
     * traced thread has joined. Tracks come out oldest-event-first with
     * thread-name metadata ("main" / "worker-N") and a per-track
     * `obs.trace_dropped` counter event when the ring wrapped.
     */
    void WriteChromeTrace(std::ostream &os) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Track
    {
        std::vector<TraceEvent> ring;
        /** Monotone publication count; events [head - retained, head)
         *  survive, where retained = min(head, ring.size()). */
        std::atomic<uint64_t> head{0};
    };

    Clock::time_point epoch_;
    size_t capacity_;
    std::vector<std::unique_ptr<Track>> tracks_;
};

/**
 * RAII span: captures the start time at construction, records on
 * destruction. Inert (no clock reads, no recording) when constructed
 * with a null recorder, so instrumentation sites pay one branch when
 * tracing is off.
 */
class ScopedSpan
{
  public:
    ScopedSpan(TraceRecorder *recorder, size_t track, const char *name,
               const char *category)
        : recorder_(recorder)
    {
        if (recorder_ == nullptr)
            return;
        track_ = track;
        event_.name = name;
        event_.category = category;
        event_.start_us = recorder_->NowMicros();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach an integer arg (ignored beyond TraceEvent::kMaxArgs). */
    void
    AddArg(const char *key, int64_t value)
    {
        if (recorder_ == nullptr ||
            event_.num_args >= TraceEvent::kMaxArgs)
            return;
        event_.arg_keys[event_.num_args] = key;
        event_.arg_values[event_.num_args] = value;
        ++event_.num_args;
    }

    /** Attach the string arg (e.g. "verdict": "unsat"). */
    void
    SetStrArg(const char *key, const char *value)
    {
        if (recorder_ == nullptr)
            return;
        event_.str_arg_key = key;
        event_.str_arg_value = value;
    }

    ~ScopedSpan()
    {
        if (recorder_ == nullptr)
            return;
        event_.duration_us = recorder_->NowMicros() - event_.start_us;
        recorder_->Record(track_, event_);
    }

  private:
    TraceRecorder *recorder_;
    size_t track_ = 0;
    TraceEvent event_;
};

/** Record an instant event (a point-in-time marker with args). */
inline void
TraceInstant(TraceRecorder *recorder, size_t track, const char *name,
             const char *category, const char *key = nullptr,
             int64_t value = 0)
{
    if (recorder == nullptr)
        return;
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.start_us = recorder->NowMicros();
    event.duration_us = -1;
    if (key != nullptr) {
        event.arg_keys[0] = key;
        event.arg_values[0] = value;
        event.num_args = 1;
    }
    recorder->Record(track, event);
}

}  // namespace obs
}  // namespace achilles

#endif  // ACHILLES_OBS_TRACE_H_
