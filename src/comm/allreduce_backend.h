// Ring all-reduce backend (NCCL/Horovod-style). All workers execute the same
// sequence of all-reduce operations; the paper's master Core decides that
// order and broadcasts it, so this backend is driven by a single scheduling
// Core. One operation over W workers costs
//
//   launch_overhead + 2(W-1) * (step_latency + (bytes/W) / effective_rate)
//
// — the classic segmented-ring cost: 2(W-1) steps, each moving a 1/W chunk
// plus a per-step synchronization latency. The W-dependent fixed cost is why
// all-reduce prefers much larger partitions than PS (Table 1), and the
// launch overhead is pipelined only when more than one operation is in
// flight — which is what sender credits buy over stop-and-wait.
#ifndef SRC_COMM_ALLREDUCE_BACKEND_H_
#define SRC_COMM_ALLREDUCE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/comm/backend.h"
#include "src/fault/fault_injector.h"
#include "src/net/transport.h"
#include "src/sim/fifo_ring.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace bsched {

class MetricsRegistry;
class TraceRecorder;

struct AllReduceConfig {
  int num_workers = 2;  // ring size (total GPUs)
  Bandwidth link_rate = Bandwidth::Gbps(100);
  TransportModel transport = TransportModel::Rdma();
  // Host-side cost to launch/negotiate one collective; overlaps with the
  // ring occupancy of earlier operations.
  SimTime launch_overhead;
  // Per-ring-step synchronization latency.
  SimTime step_latency;
  // Horovod-style coordination: tensors are negotiated across workers in
  // periodic cycles (hvd cycle_time), so an operation enters the ring only at
  // the next cycle boundary after submission. ByteScheduler's master Core
  // pre-decides one global order (§5), which removes the per-tensor
  // negotiation; set 0 to disable.
  SimTime nego_cycle;

  // Fault injection (null disables it). A dropped "message" models a failed
  // collective launch: the operation never completes and the scheduling
  // Core's timeout/retry recovery relaunches it. Delays model transient ring
  // congestion before the operation enters the ring.
  FaultInjector* faults = nullptr;
  // Observability (each null disables its layer): ring occupancy spans and
  // flow hops on the "ring" track; ring metrics at export. Passive; never
  // schedules events.
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  // NCCL-like presets; latencies depend on the transport.
  static AllReduceConfig Nccl(int num_workers, Bandwidth link_rate,
                              const TransportModel& transport);
};

class AllReduceBackend : public CommBackend {
 public:
  AllReduceBackend(Simulator* sim, const AllReduceConfig& config);

  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    StartAsFlight(subtask, std::move(on_finish));
  }
  // Launches after the negotiation wait; the ring pass completes the flight.
  void StartFlight(const Flight& flight) override;

  // Ring time for one operation of `bytes` (excludes the launch overhead).
  SimTime RingTime(Bytes bytes) const;

  uint64_t ops_completed() const { return ring_->jobs_completed(); }

  // Exports end-of-run ring metrics (ring.busy_ns, ring.ops) into the
  // metrics registry. No-op without one.
  void ExportMetrics();

 private:
  // What a ring span records of its operation: it rides the launch event.
  struct RingOp {
    Bytes bytes = 0;
    int32_t layer = 0;
    int32_t partition = 0;
    uint64_t flow = 0;
  };
  // Records the span of the ring pass that just ended.
  void RecordRingSpan();

  Simulator* sim_;
  AllReduceConfig config_;
  std::unique_ptr<Resource> ring_;
  uint64_t ring_site_hash_ = 0;
  // While tracing, the operations on the ring in submission order: the ring
  // is FIFO, so each pass's end pops the front.
  FifoRing<RingOp> ring_ops_;
};

}  // namespace bsched

#endif  // SRC_COMM_ALLREDUCE_BACKEND_H_
