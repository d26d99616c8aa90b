// Achilles reproduction -- observability layer.
//
// ObsHandle: the one struct threaded through the pipeline's config
// objects (AchillesConfig, EngineConfig, SolverConfig) to turn
// instrumentation on. It is a pair of non-owning pointers plus a lane
// number:
//
//   registry  the run's live view, to which each component built with
//             the handle attaches its live counts (null = none)
//   tracer    the Chrome-trace recorder (null = tracing off)
//   lane      this consumer's trace track: 0 for the main or pipeline
//             thread, 1 + w for parallel worker w
//
// Copying a handle is how it propagates: the parallel engine copies the
// home config's handle into each worker config with ForLane(1 + w), so
// every layer running on that worker writes its own trace track. A
// default-constructed handle (both pointers null) makes every
// instrumentation site inert behind a single branch -- the
// zero-cost-when-disabled contract.

#ifndef ACHILLES_OBS_OBS_H_
#define ACHILLES_OBS_OBS_H_

#include <cstddef>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace achilles {
namespace obs {

struct ObsHandle
{
    MetricsRegistry *registry = nullptr;
    TraceRecorder *tracer = nullptr;
    size_t lane = 0;

    bool metrics_on() const { return registry != nullptr; }
    bool tracing_on() const { return tracer != nullptr; }

    /** The same sinks, re-addressed to another lane. */
    ObsHandle
    ForLane(size_t new_lane) const
    {
        ObsHandle h = *this;
        h.lane = new_lane;
        return h;
    }
};

}  // namespace obs
}  // namespace achilles

#endif  // ACHILLES_OBS_OBS_H_
