// Runtime fault injection. A FaultInjector is the single object threaded
// through the network links and communication backends: each message send,
// compute submission, and shard update consults it, and every recovery action
// (scheduler timeout/retry, backend retransmission) reports back to it. It
// owns the FaultStats counter block and mirrors both injections and
// recoveries into the TraceRecorder on dedicated tracks ("faults/plan",
// "faults/injected", "faults/recovery"), so a Chrome/Perfetto trace shows the
// stall and the recovery side by side with the training timeline.
//
// Zero-cost when off: every hook site guards on a null injector pointer, so a
// run without fault injection executes the exact pre-fault event sequence.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/trace.h"
#include "src/common/units.h"
#include "src/fault/fault_plan.h"
#include "src/sim/simulator.h"

namespace bsched {

// Counter block for everything injected and everything recovered.
struct FaultStats {
  // Injection side.
  uint64_t messages_seen = 0;
  uint64_t drops_injected = 0;
  uint64_t delays_injected = 0;
  SimTime delay_injected_total;
  uint64_t compute_slowdowns = 0;
  uint64_t shard_slowdowns = 0;
  // Recovery side (reported by SchedulerCore / PsBackend).
  uint64_t core_timeouts = 0;
  uint64_t core_retries = 0;
  uint64_t core_late_completions = 0;
  uint64_t core_abandoned = 0;
  uint64_t backend_retransmits = 0;
  Bytes credit_restored = 0;

  bool any_injected() const {
    return drops_injected + delays_injected + compute_slowdowns + shard_slowdowns > 0;
  }

  std::string DebugString() const;
};

class FaultInjector {
 public:
  // `trace` may be null; when set, it must outlive the injector. Episode
  // windows are exported to the "faults/plan" track immediately.
  FaultInjector(const FaultPlanConfig& config, Simulator* sim, TraceRecorder* trace = nullptr);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  struct MessageFault {
    bool drop = false;
    SimTime delay;
  };

  // One message leaving the link identified by `site_hash` now. Updates stats
  // and the trace; callers apply the returned fate to the delivery.
  MessageFault OnMessageSend(uint64_t site_hash);

  // Scale a compute / shard-update duration by any slowdown episode active
  // now.
  SimTime ScaleCompute(int worker, SimTime duration);
  SimTime ScaleShard(int shard, SimTime duration);

  // Recovery-side recording.
  void RecordCoreTimeout(int worker, int layer, int partition, int attempt, Bytes restored);
  void RecordCoreRetry();
  void RecordLateCompletion();
  void RecordAbandon();
  void RecordBackendRetransmit(int worker, int layer, int partition, int attempt);

  // The plan's knobs, including the recovery policy the Cores and the PS
  // backend arm their timers with.
  const FaultPlanConfig& config() const { return plan_.config(); }
  const FaultStats& stats() const { return stats_; }
  std::string DebugString() const { return stats_.DebugString(); }

 private:
  FaultPlan plan_;
  Simulator* sim_;
  TraceRecorder* trace_;
  FaultStats stats_;
  // Site-local message counters feeding the deterministic drop draw.
  std::map<uint64_t, uint64_t> site_msg_counts_;
};

}  // namespace bsched

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
