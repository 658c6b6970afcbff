#include "src/core/scheduler_core.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/trace.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metrics.h"

namespace bsched {

SchedulerCore::SchedulerCore(SchedulerConfig config, CommBackend* backend, int worker_id,
                             Simulator* sim, FaultInjector* faults, TraceRecorder* trace,
                             MetricsRegistry* metrics)
    : config_(std::move(config)),
      backend_(backend),
      worker_id_(worker_id),
      sim_(sim),
      faults_(faults),
      trace_(trace),
      metrics_(metrics),
      credit_(config_.credit_bytes) {
  BSCHED_CHECK(backend_ != nullptr);
  BSCHED_CHECK(config_.credit_bytes > 0);
  BSCHED_CHECK((faults_ == nullptr || sim_ != nullptr) &&
               "retry recovery needs a Simulator for timeout timers");
  BSCHED_CHECK((trace_ == nullptr || sim_ != nullptr) && "a trace needs a Simulator clock");
  BSCHED_CHECK((faults_ == nullptr ||
                faults_->config().max_retries < (1 << (32 - kAttemptShift))) &&
               "a retry's attempt fits a completion tag");
  if (trace_ != nullptr) {
    track_ = "sched/w" + std::to_string(worker_id_);
  }
  if (metrics_ != nullptr) {
    const std::string prefix = "sched.w" + std::to_string(worker_id_);
    m_queue_depth_ = metrics_->histogram(prefix + ".queue_depth");
    m_credit_in_use_ = metrics_->histogram(prefix + ".credit_in_use");
    m_partition_bytes_ = metrics_->histogram(prefix + ".partition_bytes");
    m_preemptions_ = metrics_->counter(prefix + ".preemptions");
  }
}

SchedulerCore::TaskState& SchedulerCore::Task(CommTaskId id) {
  BSCHED_CHECK(id >= 0 && id < next_task_id_ && task_index_[id] != kNoTask);
  return tasks_[task_index_[id]];
}

const SchedulerCore::TaskState& SchedulerCore::Task(CommTaskId id) const {
  BSCHED_CHECK(id >= 0 && id < next_task_id_ && task_index_[id] != kNoTask);
  return tasks_[task_index_[id]];
}

CommTaskId SchedulerCore::Enqueue(CommTaskDesc desc) {
  BSCHED_CHECK(desc.tensor_bytes > 0);
  BSCHED_CHECK(next_task_id_ < kNoTask && "a task id fits a completion's id");
  const CommTaskId id = next_task_id_++;
  const uint32_t slot = tasks_.Acquire();
  task_index_.push_back(slot);
  TaskState& state = tasks_[slot];
  state.id = id;
  state.partitions_finished = 0;

  // CommTask.partition(size): split into SubCommTasks no larger than the
  // configured partition size (zero-copy in real frameworks; here we only
  // track sizes).
  const Bytes unit = desc.partition_bytes_override > 0 ? desc.partition_bytes_override
                                                       : config_.partition_bytes;
  state.unit = unit <= 0 || unit >= desc.tensor_bytes ? desc.tensor_bytes : unit;
  const Bytes partitions = (desc.tensor_bytes + state.unit - 1) / state.unit;
  BSCHED_CHECK(partitions <= kPartitionMask + 1 && "a partition fits a completion tag");
  const size_t n = static_cast<size_t>(partitions);
  state.partition_notified.assign(n, false);
  if (faults_ != nullptr) {
    state.recovery.assign(n, Recovery{});
  }
  if (trace_ != nullptr) {
    state.ready_at.assign(n, SimTime());
    state.credit_wait_since.assign(n, SimTime::Max());
    state.flow.assign(n, 0);
  }
  state.desc = std::move(desc);
  return id;
}

void SchedulerCore::NotifyReady(CommTaskId id) {
  TaskState& state = Task(id);
  const int n = state.num_partitions();
  // Each maximal block of not-yet-notified partitions becomes one run.
  for (int p = 0; p < n;) {
    if (state.partition_notified[p]) {
      ++p;
      continue;
    }
    int end = p + 1;
    while (end < n && !state.partition_notified[end]) {
      ++end;
    }
    EnqueueRun(state, id, p, end);
    p = end;
  }
  TrySchedule();
}

void SchedulerCore::NotifyReadyPartition(CommTaskId id, int partition) {
  TaskState& state = Task(id);
  BSCHED_CHECK(partition >= 0);
  BSCHED_CHECK(partition < state.num_partitions());
  if (!state.partition_notified[partition]) {
    EnqueueRun(state, id, partition, partition + 1);
  }
  TrySchedule();
}

int SchedulerCore::NumPartitions(CommTaskId id) const {
  return Task(id).num_partitions();
}

SubTaskKey SchedulerCore::KeyFor(const CommTaskDesc& desc, uint64_t seq) const {
  SubTaskKey key;
  key.arrival_seq = seq;
  if (config_.policy == SchedulerConfig::Policy::kPriority) {
    key.layer = desc.layer;
    // Pulls ahead of pushes at the same layer: a finished pull directly
    // unblocks next-iteration forward compute.
    key.type_rank = (desc.type == CommOpType::kPush) ? 1 : 0;
  }
  // For kFifo the key is pure arrival order (layer and type_rank stay 0).
  return key;
}

SubCommTask SchedulerCore::Subtask(const TaskState& state, int partition) const {
  const CommTaskDesc& desc = state.desc;
  SubCommTask subtask;
  subtask.task = state.id;
  subtask.worker = desc.worker;
  subtask.layer = desc.layer;
  subtask.tensor_id = desc.tensor_id >= 0 ? desc.tensor_id : desc.layer;
  subtask.partition = partition;
  subtask.bytes = state.PartitionBytes(partition);
  subtask.type = desc.type;
  subtask.flow = trace_ != nullptr ? state.flow[partition] : 0;
  return subtask;
}

Bytes SchedulerCore::Charge(const TaskState& state, int partition) const {
  return state.desc.type == CommOpType::kPull
             ? 0
             : std::min(state.PartitionBytes(partition), config_.credit_bytes);
}

void SchedulerCore::PushQueue(const QueueEntry& entry) {
  queued_ += static_cast<size_t>(entry.end - entry.next);
  queue_.push_back(entry);
  std::push_heap(queue_.begin(), queue_.end(), QueueAfter());
}

void SchedulerCore::PopHead() {
  --queued_;
  QueueEntry& head = queue_.front();
  if (++head.next < head.end) {
    // The run's next partition holds the next seq, and no other entry's key
    // lies between the two, so the heap needs no sift.
    ++head.key.arrival_seq;
    return;
  }
  std::pop_heap(queue_.begin(), queue_.end(), QueueAfter());
  queue_.pop_back();
}

void SchedulerCore::EnqueueRun(TaskState& state, CommTaskId id, int begin, int end) {
  std::fill(state.partition_notified.begin() + begin, state.partition_notified.begin() + end,
            true);
  if (trace_ != nullptr) {
    std::fill(state.ready_at.begin() + begin, state.ready_at.begin() + end, sim_->Now());
  }
  PushQueue(QueueEntry{KeyFor(state.desc, next_arrival_seq_), id, begin, end});
  next_arrival_seq_ += static_cast<uint64_t>(end - begin);
}

void SchedulerCore::TrySchedule() {
  if (scheduling_) {
    // Re-entrant call (a finish callback released new work while we were
    // already draining the queue); the outer loop will pick it up.
    return;
  }
  scheduling_ = true;
  while (!queue_.empty()) {
    const QueueEntry& head = queue_.front();
    const SubTaskKey key = head.key;
    const int partition = head.next;
    TaskState& state = Task(head.task);
    const Bytes bytes = state.PartitionBytes(partition);
    // Credits model the *sender's* buffer (§4.2): pushes and all-reduce
    // operations fill it; pull responses are sent by the server and consume
    // the server-side egress queue instead, so they admit freely.
    const bool charges_credit = state.desc.type != CommOpType::kPull;
    // Algorithm 1 line 16: wait unless the credit covers the head subtask.
    // A subtask larger than the whole credit pool is admitted only when the
    // pool is full, otherwise it could never start.
    const bool can_start = !charges_credit || credit_ >= bytes ||
                           credit_ == config_.credit_bytes;
    if (!can_start) {
      // Stamp the moment the head first starved on credit; RecordAdmit
      // splits the wait span there. No event is scheduled, so the
      // simulation trajectory is unchanged whether or not anyone traces.
      if (trace_ != nullptr && state.credit_wait_since[partition] == SimTime::Max()) {
        state.credit_wait_since[partition] = sim_->Now();
      }
      break;
    }
    const size_t depth_before = queued_;
    PopHead();
    // Equal to Charge(): the credit covers the head, or the pool is full.
    const Bytes charged = charges_credit ? std::min(bytes, credit_) : 0;
    credit_ -= charged;
    BSCHED_DCHECK(credit_ >= 0);
    ++subtasks_started_;
    if (metrics_ != nullptr || trace_ != nullptr) {
      RecordAdmit(state, partition, key, charged, depth_before);
    }
    StartAttempt(state, partition, key.arrival_seq);
  }
  scheduling_ = false;
}

void SchedulerCore::RecordAdmit(TaskState& state, int partition, const SubTaskKey& key,
                                Bytes charged, size_t queue_depth_before) {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Observe(static_cast<int64_t>(queue_depth_before));
    m_credit_in_use_->Observe(config_.credit_bytes == SchedulerConfig::kUnlimited
                                  ? 0
                                  : config_.credit_bytes - credit_);
    m_partition_bytes_->Observe(state.PartitionBytes(partition));
    // A preemption in the paper's sense: this admission outranks the one
    // before it, i.e. a higher-priority partition jumped the FIFO order a
    // vanilla scheduler would have used.
    if (has_last_admitted_ && key < last_admitted_key_) {
      m_preemptions_->Inc();
    }
  }
  last_admitted_key_ = key;
  has_last_admitted_ = true;

  if (trace_ == nullptr) {
    return;
  }
  // Assign (or continue) the partition's flow arc. Pushes and all-reduce
  // operations open the arc; a pull continues the arc its push opened, or
  // opens its own for pulls with no tracked push (e.g. step-start reads).
  // A retried attempt keeps its arc.
  const SubCommTask st = Subtask(state, partition);
  uint64_t& flow = state.flow[partition];
  FlowPhase phase = FlowPhase::kStep;
  if (flow == 0) {
    uint64_t& open = flows_[{st.worker, st.tensor_id, st.partition}];
    if (st.type != CommOpType::kPull || open == 0) {
      open = trace_->NewFlowId();
      phase = FlowPhase::kStart;
    }
    flow = open;
  }

  const std::string& name = state.desc.name;
  const std::string& tensor = !name.empty() ? name : "L" + std::to_string(st.layer);
  const std::string base =
      tensor + ".p" + std::to_string(st.partition) + "." + ToString(st.type);
  const SimTime now = sim_->Now();
  const SimTime ready_at = state.ready_at[partition];
  const SimTime credit_wait_since = state.credit_wait_since[partition];
  const bool credit_waiting = credit_wait_since != SimTime::Max();
  const int64_t attempt = faults_ != nullptr ? state.recovery[partition].attempts : 0;
  // Wait decomposition: queue-wait (ready → first credit starvation at the
  // head, or admit when credit never blocked) and credit-wait (starvation →
  // admit). The critical-path analyzer attributes the two separately.
  const SimTime wait_end = credit_waiting ? std::max(ready_at, credit_wait_since) : now;
  if (wait_end > ready_at) {
    trace_->AddSpan(track_, base + ".wait", ready_at, wait_end,
                    {TraceArg::Int("layer", st.layer), TraceArg::Int("partition", st.partition),
                     TraceArg::Int("bytes", st.bytes), TraceArg::Int("attempt", attempt),
                     TraceArg::Int("charged", charged)});
  }
  if (credit_waiting && now > credit_wait_since) {
    trace_->AddSpan(track_, base + ".credit_wait", credit_wait_since, now,
                    {TraceArg::Int("layer", st.layer), TraceArg::Int("partition", st.partition),
                     TraceArg::Int("bytes", st.bytes), TraceArg::Int("attempt", attempt),
                     TraceArg::Int("charged", charged)});
  }
  trace_->AddFlow(track_, base + ".admit", now, flow, phase);
}

void SchedulerCore::StartAttempt(TaskState& state, int partition, uint64_t seq) {
  // The backend gets a copy of the subtask: a backend that completes
  // synchronously re-enters the Core, which may release this task while
  // StartFlight still reads the flight.
  Flight flight{Subtask(state, partition),
                Flight::Done{this, static_cast<uint32_t>(state.id),
                             static_cast<uint32_t>(partition)}};
  if (faults_ != nullptr) {
    Recovery& r = state.recovery[partition];
    r.seq = seq;
    r.in_flight = true;
    ++in_flight_;
    flight.done.tag |= r.attempts << kAttemptShift;
    const FaultPlanConfig& policy = faults_->config();
    const SimTime timeout =
        BackoffTimeout(policy.retry_timeout, policy.retry_backoff, static_cast<int>(r.attempts));
    r.timer = sim_->Schedule(timeout, [this, id = flight.done.id, partition] {
      OnAttemptTimeout(id, partition);
    });
  }
  backend_->StartFlight(flight);
}

void SchedulerCore::OnFlightDone(uint32_t id, uint32_t tag) {
  const int partition = static_cast<int>(tag & kPartitionMask);
  if (faults_ == nullptr) {
    OnSubTaskFinish(Task(id), partition);
    return;
  }
  Recovery* r = task_index_[id] != kNoTask ? &Task(id).recovery[partition] : nullptr;
  if (r == nullptr || !r->in_flight || r->attempts != tag >> kAttemptShift) {
    // A delayed copy of an attempt that already timed out (and was retried)
    // or of a partition or task that already finished: the message was late,
    // not lost. Counting it would double-finish the partition and leak
    // credit.
    ++late_completions_;
    faults_->RecordLateCompletion();
    return;
  }
  r->in_flight = false;
  --in_flight_;
  r->timer.Cancel();
  OnSubTaskFinish(Task(id), partition);
}

void SchedulerCore::OnAttemptTimeout(CommTaskId id, int partition) {
  TaskState& state = Task(id);
  Recovery& r = state.recovery[partition];
  // OnFlightDone cancels exactly this attempt's timer, so a timer that fires
  // belongs to the attempt in flight.
  BSCHED_DCHECK(r.in_flight);
  r.in_flight = false;
  --in_flight_;
  ++timeouts_fired_;
  // Credit restoration: the lost attempt's bytes are no longer in flight.
  const Bytes charged = Charge(state, partition);
  credit_ += charged;
  BSCHED_DCHECK(credit_ <= config_.credit_bytes);
  const CommTaskDesc& desc = state.desc;
  faults_->RecordCoreTimeout(desc.worker, desc.layer, partition, static_cast<int>(r.attempts) + 1,
                             charged);
  if (static_cast<int>(r.attempts) >= faults_->config().max_retries) {
    // A silently dropped partition would wedge training; stop here instead.
    ++subtasks_abandoned_;
    faults_->RecordAbandon();
    BSCHED_CHECK(false && "subtask exhausted its retry budget");
  }
  ++retries_;
  faults_->RecordCoreRetry();
  // Requeue at the ORIGINAL priority key: the retry competes exactly where
  // the partition always belonged, not behind newer arrivals.
  ++r.attempts;
  if (trace_ != nullptr) {
    state.ready_at[partition] = sim_->Now();
    state.credit_wait_since[partition] = SimTime::Max();
  }
  PushQueue(QueueEntry{KeyFor(desc, r.seq), id, partition, partition + 1});
  TrySchedule();
}

void SchedulerCore::OnSubTaskFinish(TaskState& state, int partition) {
  const CommTaskId id = state.id;
  credit_ += Charge(state, partition);
  BSCHED_DCHECK(credit_ <= config_.credit_bytes);
  if (trace_ != nullptr && state.flow[partition] != 0 && state.desc.type != CommOpType::kPush) {
    // The pull (or ring op) completing ends the partition's arc; a push's
    // arc stays open for its pull to continue.
    const CommTaskDesc& desc = state.desc;
    trace_->AddFlow(track_, "finish", sim_->Now(), state.flow[partition], FlowPhase::kEnd);
    flows_.erase({desc.worker, desc.tensor_id >= 0 ? desc.tensor_id : desc.layer, partition});
  }
  ++state.partitions_finished;

  // Copy the callbacks out: both may re-enter the Core (enqueue/ready new
  // tasks), which may reuse this task's pool slot.
  const bool task_done =
      state.partitions_finished == state.num_partitions();
  auto on_partition_finish = state.desc.on_partition_finish;
  std::function<void()> on_finish;
  if (task_done) {
    ++tasks_finished_;
    on_finish = std::move(state.desc.on_finish);
    state.desc.on_finish = nullptr;
    state.desc.on_partition_finish = nullptr;
    tasks_.Release(task_index_[id]);
    task_index_[id] = kNoTask;
  }
  if (on_partition_finish) {
    on_partition_finish(partition);
  }
  if (on_finish) {
    on_finish();
  }
  TrySchedule();
}

void SchedulerCore::ExportMetrics() const {
  if (metrics_ == nullptr) {
    return;
  }
  MetricsRegistry* m = metrics_;
  const std::string prefix = "sched.w" + std::to_string(worker_id_);
  m->counter(prefix + ".subtasks_started")->Inc(subtasks_started_);
  m->counter(prefix + ".tasks_finished")->Inc(tasks_finished_);
  m->counter(prefix + ".timeouts")->Inc(timeouts_fired_);
  m->counter(prefix + ".retries")->Inc(retries_);
  m->counter(prefix + ".late_completions")->Inc(late_completions_);
  m->counter(prefix + ".abandoned")->Inc(subtasks_abandoned_);
  m->gauge(prefix + ".credit_final")->Set(credit_);
  m->gauge(prefix + ".queue_len_final")->Set(static_cast<int64_t>(queued_));
}

std::string SchedulerCore::DebugString() const {
  std::string out = "core[" + std::to_string(worker_id_) + "] credit=" + std::to_string(credit_) +
                    "/" + std::to_string(config_.credit_bytes) +
                    " queued=" + std::to_string(queued_) +
                    " unfinished_tasks=" + std::to_string(tasks_.held());
  if (!queue_.empty()) {
    const QueueEntry& head = queue_.front();
    const TaskState& task = Task(head.task);
    out += " head=(layer=" + std::to_string(task.desc.layer) + " " + ToString(task.desc.type) +
           " part=" + std::to_string(head.next) +
           " bytes=" + std::to_string(task.PartitionBytes(head.next)) + ")";
  }
  if (faults_ != nullptr) {
    out += " retry(timeouts=" + std::to_string(timeouts_fired_) +
           " retries=" + std::to_string(retries_) +
           " late=" + std::to_string(late_completions_) +
           " abandoned=" + std::to_string(subtasks_abandoned_) +
           " inflight=" + std::to_string(in_flight_) + ")";
  }
  return out;
}

}  // namespace bsched
