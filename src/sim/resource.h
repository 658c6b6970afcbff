// A serialized FIFO resource: the GPU compute streams, the PS shard CPUs and
// the all-reduce ring. Jobs submitted to a Resource execute one at a time, in
// submission order, each occupying the resource for its stated duration. This
// mirrors the paper's observation that the underlying communication stacks
// are "inherently based on FIFO queues": schedulers control *admission
// order*, never preempt an in-flight job. A Resource is anonymous: its owner
// names it where a trace or metric needs a name.
#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/sim/fifo_ring.h"
#include "src/sim/simulator.h"

namespace bsched {

class Resource {
 public:
  explicit Resource(Simulator* sim);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // Enqueues a job that holds the resource for `duration`, then invokes
  // `on_done` (may be empty). Starts immediately if the resource is idle.
  // The running job stays in the Resource and its completion event captures
  // only `this`, so a callback that fits EventFn's inline buffer makes the
  // whole job allocation-free.
  void Submit(SimTime duration, EventFn on_done);

  bool busy() const { return busy_; }
  size_t queue_length() const { return queue_.size(); }

  // Total time the resource has been occupied (for utilization reporting).
  SimTime busy_time() const { return busy_time_; }
  uint64_t jobs_completed() const { return jobs_completed_; }

  // Virtual time at which all currently queued work will have drained,
  // assuming no further submissions.
  SimTime DrainTime() const;

 private:
  struct Job {
    SimTime duration;
    EventFn on_done;
  };

  void StartNext();
  void OnJobDone();

  Simulator* sim_;
  bool busy_ = false;
  SimTime current_job_end_;
  Job current_;
  FifoRing<Job> queue_;
  SimTime busy_time_;
  uint64_t jobs_completed_ = 0;
};

}  // namespace bsched

#endif  // SRC_SIM_RESOURCE_H_
