// The paper's unified communication abstraction (§3.2). A CommTask wraps one
// tensor's communication operation (push, pull, or all-reduce) independently
// of the training framework and of the communication architecture; the Core
// partitions it into SubCommTasks and schedules those.
#ifndef SRC_CORE_COMM_TASK_H_
#define SRC_CORE_COMM_TASK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace bsched {

enum class CommOpType {
  kPush,
  kPull,
  kAllReduce,
};

const char* ToString(CommOpType type);

using CommTaskId = int64_t;
inline constexpr CommTaskId kInvalidCommTask = -1;

// Description of one tensor's communication, provided by the framework plugin
// when it wraps an engine communication operation.
struct CommTaskDesc {
  // Scheduling worker (each PS worker runs its own Core; all-reduce runs one
  // master Core as in §5 "only the master Core determines the order").
  int worker = 0;
  // DNN layer index; layer 0 is nearest the input. This is the priority for
  // declarative engines (topological order) and equals the creation order
  // tie-break for imperative engines (§3.2).
  int layer = 0;
  Bytes tensor_bytes = 0;
  CommOpType type = CommOpType::kPush;
  std::string name;
  // Cluster-global tensor identity used by backends for PS shard assignment
  // and aggregation slots. Defaults (-1) to the layer index; co-scheduled
  // jobs sharing one backend give each job a disjoint id range while keeping
  // `layer` as the (job-local) scheduling priority.
  int64_t tensor_id = -1;
  // Per-task partition size overriding the scheduler config when > 0. Used to
  // model framework-native splitting (e.g. ps-lite slices tensors above its
  // big-array bound evenly across servers even without ByteScheduler).
  Bytes partition_bytes_override = 0;
  // Fires when every partition of this task has completed.
  std::function<void()> on_finish;
  // Optional: fires as each partition completes (the PS plugin uses this to
  // make pull partitions ready as soon as their push partition is acked).
  std::function<void(int partition)> on_partition_finish;
};

// One partition of a CommTask, as admitted to the underlying FIFO stack.
struct SubCommTask {
  CommTaskId task = kInvalidCommTask;
  int worker = 0;
  int layer = 0;           // scheduling priority source (job-local)
  int64_t tensor_id = 0;   // backend identity (cluster-global)
  int partition = 0;
  Bytes bytes = 0;
  CommOpType type = CommOpType::kPush;
  // Trace flow-arc id stitching this partition's hops across tracks
  // (assigned by the scheduler at admit when tracing; 0 = untracked).
  uint64_t flow = 0;
};

// Queue ordering for the Core's priority queue. Lower key = more urgent.
// Priority policy: layer first (Theorem 1), pulls ahead of pushes at equal
// layer (a completed pull directly unblocks forward compute), then FIFO
// arrival order as the tie-break.
struct SubTaskKey {
  int layer = 0;
  int type_rank = 0;
  uint64_t arrival_seq = 0;

  friend auto operator<=>(const SubTaskKey&, const SubTaskKey&) = default;
};

// Scheduling policy + the two tuned knobs of §4. Timeout/retry recovery is
// not a scheduler setting: its policy lives in FaultPlanConfig, and a Core
// arms it exactly when it is given a FaultInjector.
struct SchedulerConfig {
  enum class Policy {
    kFifo,      // vanilla framework: admission in ready order
    kPriority,  // ByteScheduler / P3: layer-priority admission
  };

  static constexpr Bytes kUnlimited = std::numeric_limits<Bytes>::max();

  Policy policy = Policy::kPriority;
  // Partition size δ; kNoPartition (0) disables tensor partitioning.
  Bytes partition_bytes = MiB(4);
  // Credit size c for credit-based preemption (§4.2), in bytes.
  Bytes credit_bytes = MiB(16);

  static constexpr Bytes kNoPartition = 0;

  // Vanilla framework behaviour: FIFO order, whole tensors, unbounded credit
  // (the engine just dumps operations into the stack's FIFO queue).
  static SchedulerConfig Vanilla();

  // ByteScheduler with explicit knobs.
  static SchedulerConfig ByteScheduler(Bytes partition, Bytes credit);

  // P3 (Jayarajan et al.): priority scheduling with fixed 160 KB slices and
  // stop-and-wait transmission (credit == one partition).
  static SchedulerConfig P3();
};

}  // namespace bsched

#endif  // SRC_CORE_COMM_TASK_H_
