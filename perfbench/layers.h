// Layer drivers of the traced run: each exercises one layer's public API in
// isolation, on fixed deterministic inputs, and carries a checksum of what
// the layer did so a driver that times a broken layer fails its check.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>

namespace perfbench {

struct LayerResult {
  double ns_per_unit = 0.0;  // host ns per event / subtask / message
  uint64_t units = 0;
  uint64_t checksum = 0;
};

// src/sim: the retry-timer pattern. Every fired event disarms its actor's
// pending timeout (Cancel), arms a new one and schedules the next firing.
LayerResult SimChurn();

// src/core: SchedulerCore Enqueue/NotifyReady admission against a backend
// that completes every partition immediately.
LayerResult CoreAdmit();

// src/net: Link::Send on the static path and, for the same messages, on a
// link with an identity RateModel (the dynamic pacing path).
LayerResult NetSend();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
