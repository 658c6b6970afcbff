// ByteScheduler Core: Algorithm 1 of the paper. Holds a priority queue of
// ready SubCommTasks and admits them into the communication backend under
// credit-based preemption. One Core instance runs per scheduling worker (each
// PS worker schedules independently; all-reduce uses a single master Core).
//
// The Core is framework- and communication-method-agnostic: it sees only
// CommTaskDescs from plugins and a CommBackend to start partitions on. It is
// also simulator-agnostic — purely callback-driven — so unit tests drive it
// with a mock backend. The optional recovery layer is the one exception: it
// is armed exactly when a FaultInjector is attached, reads its timeout,
// backoff and retry budget from the injector's FaultPlanConfig, and needs the
// Simulator for its per-partition timers. On timeout the charged credit is
// restored, the partition is requeued at its original priority, and the next
// attempt backs off exponentially; a partition that exhausts the budget
// aborts the run. A completion is late, and ignored, when its task has
// finished, its partition is not in flight, or it names an attempt other than
// the one in flight, so a delayed (rather than lost) message can never
// double-finish a partition or leak credit. A finishing attempt cancels its
// own timer, so a timer that fires always belongs to the attempt in flight.
//
// Hot-path layout: the ready queue is a binary heap of *runs*. A run is a
// block [next, end) of one task's partitions that became ready together and
// hold consecutive arrival seqs; its heap key is the front partition's
// SubTaskKey. As in the paper's zero-copy CommTask.partition(), a partition
// is only an offset into its task, from NotifyReady to finish: the head
// partition is read from its run and its task. Admitting a run's front
// advances the entry in place (next + 1, seq + 1) without a sift. Seqs are
// unique and a run's seqs are reserved for it, so no other key lies between
// two consecutive seqs of the run: the heap stays valid, and partitions are
// admitted in exactly the order a heap (or ordered map) of one entry per
// partition would admit them. An admitted partition is handed to the
// backend as a flight (StartFlight) whose 16-byte completion names the Core,
// the task id and a tag: the partition, plus the attempt in the tag's high
// bits for a retry. Task ids are never reused, so a late completion cannot
// name a newer task that took its task's pool slot.
//
// Tasks are pooled and reused across the run, and every completion and
// timer fits the 16 bytes that std::function and EventFn store inline, so
// steady-state admission allocates nothing. A finishing partition's charge
// is recomputed from its task, so a partition waiting in the backend holds
// no Core state. Per-partition side state lives in the task, in vectors
// sized only when needed: the recovery state (attempt count, in-flight flag,
// timer, arrival seq) only with a FaultInjector, and the trace-only stamps
// (ready and credit-wait times, flow arc) only while tracing. A queued run
// carries no time, so an untraced Core reads no clock when it enqueues.
//
// Observability: the Core writes the trace and metrics sinks it is given,
// each nullable. While tracing it also keeps the partition-flow ledger, the
// open flow arc of each (worker, tensor, partition): a push opens an arc, its
// pull continues it (or opens one when no push did, as for the TF
// step-start variable reads), and a finished pull or ring op closes it.
// Flow ids come from the TraceRecorder's counter.
#ifndef SRC_CORE_SCHEDULER_CORE_H_
#define SRC_CORE_SCHEDULER_CORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/pool.h"
#include "src/core/comm_task.h"
#include "src/sim/simulator.h"

namespace bsched {

class FaultInjector;
class Counter;
class Histogram;
class MetricsRegistry;
class TraceRecorder;

class SchedulerCore : private FlightOwner {
 public:
  // `faults` (optional) arms timeout/retry recovery with its plan's policy
  // and receives recovery events for global fault statistics and trace
  // output; it requires `sim`, which hosts the timers.
  // `trace` (optional) records queue-wait spans and partition flow arcs on
  // track sched/w<id>; it requires `sim` for the clock. `metrics` (optional)
  // receives admit-time histograms and, from ExportMetrics, end-of-run
  // totals.
  SchedulerCore(SchedulerConfig config, CommBackend* backend, int worker_id = 0,
                Simulator* sim = nullptr, FaultInjector* faults = nullptr,
                TraceRecorder* trace = nullptr, MetricsRegistry* metrics = nullptr);
  SchedulerCore(const SchedulerCore&) = delete;
  SchedulerCore& operator=(const SchedulerCore&) = delete;

  // Core.enqueue(CommTask): registers the task and partitions it into
  // SubCommTasks of at most `partition_bytes` (CommTask.partition()).
  // Partitions are NOT schedulable until notified ready.
  CommTaskId Enqueue(CommTaskDesc desc);

  // CommTask.notify_ready(): all partitions of the task become schedulable.
  void NotifyReady(CommTaskId id);

  // Partition-granularity readiness; used by the PS plugin to release pull
  // partitions as their push partitions are acked.
  void NotifyReadyPartition(CommTaskId id, int partition);

  int NumPartitions(CommTaskId id) const;

  // Human-readable scheduler state (queue head, credit, recovery counters)
  // for diagnostics.
  std::string DebugString() const;

  // Live scheduler state (used by tests and by auto-tuning instrumentation).
  Bytes credit() const { return credit_; }
  Bytes credit_cap() const { return config_.credit_bytes; }
  // Ready partitions not yet admitted (partitions, not runs).
  size_t queue_length() const { return queued_; }
  uint64_t subtasks_started() const { return subtasks_started_; }
  uint64_t tasks_finished() const { return tasks_finished_; }
  const SchedulerConfig& config() const { return config_; }

  // Recovery counters (all zero without a FaultInjector or when no fault
  // fired).
  uint64_t timeouts_fired() const { return timeouts_fired_; }
  uint64_t retries() const { return retries_; }
  uint64_t late_completions() const { return late_completions_; }
  uint64_t subtasks_abandoned() const { return subtasks_abandoned_; }
  size_t subtasks_in_flight() const { return in_flight_; }

  // Exports end-of-run totals (sched.w<id>.subtasks_started, retries,
  // timeouts, ...) into the metrics registry. Call once after the run;
  // no-op without one.
  void ExportMetrics() const;

 private:
  static constexpr uint32_t kNoTask = UINT32_MAX;
  // A completion's tag: the partition in the low bits, the attempt above.
  static constexpr int kAttemptShift = 24;
  static constexpr uint32_t kPartitionMask = (uint32_t{1} << kAttemptShift) - 1;

  // Only with a FaultInjector, one per partition: its attempts' recovery
  // state.
  struct Recovery {
    EventHandle timer;      // the timeout of the attempt in flight
    uint64_t seq = 0;       // arrival seq, which rebuilds the key on requeue
    uint32_t attempts = 0;  // attempts that already timed out
    bool in_flight = false;
  };

  // One CommTask from Enqueue until its last partition finishes; pooled, so
  // a finished task's vectors keep their capacity for the next one. Every
  // partition holds `unit` bytes except a shorter last one.
  struct TaskState {
    CommTaskDesc desc;
    CommTaskId id = kInvalidCommTask;
    Bytes unit = 0;
    std::vector<bool> partition_notified;  // one per partition
    std::vector<Recovery> recovery;
    // Only while tracing, per partition: when it became schedulable (admit
    // time minus this is the queue-wait span); when, at the head of the
    // queue, it first blocked on credit (SimTime::Max() while it has not),
    // which splits the wait into queue-wait (behind higher-priority work)
    // and credit-wait (Algorithm 1 line 16 starvation), the boundary the
    // critical-path analyzer attributes separately; and its flow arc from
    // admission to finish.
    std::vector<SimTime> ready_at;
    std::vector<SimTime> credit_wait_since;
    std::vector<uint64_t> flow;
    int partitions_finished = 0;

    int num_partitions() const { return static_cast<int>(partition_notified.size()); }
    Bytes PartitionBytes(int p) const { return std::min(unit, desc.tensor_bytes - p * unit); }
  };

  // One run of ready partitions [next, end) of `task`; `key` is the front
  // partition's key.
  struct QueueEntry {
    SubTaskKey key;
    CommTaskId task;
    int next;
    int end;
  };
  // Min-heap order on the key: true when `a` is less urgent than `b`.
  struct QueueAfter {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const { return b.key < a.key; }
  };

  TaskState& Task(CommTaskId id);
  const TaskState& Task(CommTaskId id) const;
  // The SubCommTask the backend sees for `partition` of `state`.
  SubCommTask Subtask(const TaskState& state, int partition) const;
  // The credit an admitted `partition` of `state` holds: its bytes, or the
  // whole pool for a partition larger than the pool (admitted only when the
  // pool is full); none for a pull.
  Bytes Charge(const TaskState& state, int partition) const;
  void PushQueue(const QueueEntry& entry);
  // Removes the head partition: advances its run in place, or pops the run
  // when it was the last partition.
  void PopHead();

  // Records admit-time metrics/trace/flow for one admitted `partition` of
  // `state` with priority `key`; while tracing, sets its flow.
  // `queue_depth_before` is the queue length at pop time.
  void RecordAdmit(TaskState& state, int partition, const SubTaskKey& key, Bytes charged,
                   size_t queue_depth_before);

  // The key of a partition with arrival seq `seq` of a task described by
  // `desc`.
  SubTaskKey KeyFor(const CommTaskDesc& desc, uint64_t seq) const;
  // Enqueues partitions [begin, end) of task `id` as one run.
  void EnqueueRun(TaskState& state, CommTaskId id, int begin, int end);
  void TrySchedule();
  // Starts `partition` of `state`, admitted with arrival seq `seq`, as a
  // flight; with recovery, arms the attempt's timeout.
  void StartAttempt(TaskState& state, int partition, uint64_t seq);
  void OnFlightDone(uint32_t id, uint32_t tag) override;
  void OnAttemptTimeout(CommTaskId id, int partition);
  // Returns `partition`'s credit and runs the callbacks of `state`.
  void OnSubTaskFinish(TaskState& state, int partition);

  SchedulerConfig config_;
  CommBackend* backend_;
  int worker_id_;
  Simulator* sim_;
  FaultInjector* faults_;
  TraceRecorder* trace_;
  MetricsRegistry* metrics_;
  std::string track_;  // trace track name ("sched/w<id>")
  // The open flow arc of each (worker, tensor id, partition); filled only
  // while tracing.
  std::map<std::tuple<int, int64_t, int>, uint64_t> flows_;
  // Cached metric handles (null when metrics are off).
  Histogram* m_queue_depth_ = nullptr;
  Histogram* m_credit_in_use_ = nullptr;
  Histogram* m_partition_bytes_ = nullptr;
  Counter* m_preemptions_ = nullptr;
  // Priority of the previous admission, for the preemption counter.
  SubTaskKey last_admitted_key_;
  bool has_last_admitted_ = false;

  CommTaskId next_task_id_ = 0;
  uint64_t next_arrival_seq_ = 0;
  Bytes credit_;
  // Task pool, plus the pool index of every task id ever issued (kNoTask
  // once the task finished).
  Pool<TaskState> tasks_;
  std::vector<uint32_t> task_index_;
  // Runs of ready partitions; front() is the head (lowest key).
  std::vector<QueueEntry> queue_;
  size_t queued_ = 0;     // partitions in queue_
  size_t in_flight_ = 0;  // partitions under timeout watch
  bool scheduling_ = false;

  uint64_t subtasks_started_ = 0;
  uint64_t tasks_finished_ = 0;
  uint64_t timeouts_fired_ = 0;
  uint64_t retries_ = 0;
  uint64_t late_completions_ = 0;
  uint64_t subtasks_abandoned_ = 0;
};

}  // namespace bsched

#endif  // SRC_CORE_SCHEDULER_CORE_H_
