// Parameterized property sweeps across the full configuration space:
// determinism, liveness (no deadlock for arbitrary knob settings), the
// "ByteScheduler never loses" property, scheduler-core credit conservation
// under randomized event orders, and the Simulator and Core admission oracles
// (sorted-reference event trajectories, ordered-map admission order).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/rng.h"
#include "src/core/scheduler_core.h"
#include "src/fault/fault_injector.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"
#include "src/sim/simulator.h"
#include "tests/sim_reference.h"

namespace bsched {
namespace {

Setup SetupByIndex(int index) {
  switch (index) {
    case 0:
      return Setup::MxnetPsTcp();
    case 1:
      return Setup::MxnetPsRdma();
    case 2:
      return Setup::TensorFlowPsTcp();
    case 3:
      return Setup::MxnetNcclRdma();
    default:
      return Setup::PyTorchNcclTcp();
  }
}

// ---- full-grid sweep: model x setup x machines ------------------------------

using SweepParam = std::tuple<std::string, int, int>;  // model, setup idx, machines

class SpeedupSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SpeedupSweepTest, SchedulingNeverLosesAndStaysUnderLinear) {
  const auto& [model_name, setup_idx, machines] = GetParam();
  JobConfig job;
  job.model = ModelByName(model_name).value();
  job.setup = SetupByIndex(setup_idx);
  job.num_machines = machines;
  job.bandwidth = Bandwidth::Gbps(100);
  job.warmup_iters = 2;
  job.measure_iters = 3;

  job.mode = SchedMode::kVanilla;
  const JobResult baseline = RunTrainingJob(job);

  job.mode = SchedMode::kByteScheduler;
  const TunedParams tuned =
      DefaultTunedParams(job.model, job.setup.arch, job.setup.transport, job.bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  const JobResult sched = RunTrainingJob(job);

  const double linear = LinearScalingSpeed(job.model, job.total_gpus());
  EXPECT_GT(baseline.samples_per_sec, 0.0);
  // ByteScheduler never loses to the baseline (±0.5% tolerance).
  EXPECT_GE(sched.samples_per_sec, baseline.samples_per_sec * 0.995);
  // Nothing exceeds compute-bound linear scaling.
  EXPECT_LE(sched.samples_per_sec, linear * 1.005);
  EXPECT_LE(baseline.samples_per_sec, linear * 1.005);
}

INSTANTIATE_TEST_SUITE_P(
    AllSetups, SpeedupSweepTest,
    ::testing::Combine(::testing::Values("vgg16", "resnet50", "transformer", "alexnet"),
                       ::testing::Values(0, 1, 2, 3, 4), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::get<0>(info.param) + "_setup" + std::to_string(std::get<1>(info.param)) +
             "_m" + std::to_string(std::get<2>(info.param));
    });

// ---- fuzz: random models, random knobs, all modes — must terminate ----------

class JobFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JobFuzzTest, RandomConfigurationsRunToCompletion) {
  Rng rng(GetParam() * 0x9e3779b9ULL + 17);
  SyntheticSpec spec;
  spec.num_layers = static_cast<int>(rng.UniformInt(2, 30));
  spec.min_layer_bytes = KiB(1);
  spec.max_layer_bytes = MiB(static_cast<int64_t>(rng.UniformInt(1, 64)));
  spec.total_compute = SimTime::Millis(static_cast<int64_t>(rng.UniformInt(5, 80)));
  ModelProfile model = SyntheticModel(spec, rng);
  if (rng.NextDouble() < 0.3) {
    model.layers[0].splittable = false;
  }

  JobConfig job;
  job.model = model;
  job.setup = SetupByIndex(static_cast<int>(rng.UniformInt(0, 4)));
  job.num_machines = static_cast<int>(rng.UniformInt(1, 6));
  job.gpus_per_machine = static_cast<int>(rng.UniformInt(1, 8));
  job.bandwidth = Bandwidth::Gbps(rng.Uniform(0.5, 120.0));
  job.warmup_iters = 1;
  job.measure_iters = static_cast<int>(rng.UniformInt(1, 3));
  job.ps_async = job.setup.arch == ArchType::kPs && rng.NextDouble() < 0.25;

  const int mode = static_cast<int>(rng.UniformInt(0, 2));
  job.mode = mode == 0 ? SchedMode::kVanilla
                       : (mode == 1 ? SchedMode::kByteScheduler : SchedMode::kP3);
  if (job.mode == SchedMode::kByteScheduler) {
    // Adversarial knobs, including credit < partition and tiny partitions.
    job.partition_bytes = static_cast<Bytes>(rng.UniformInt(KiB(1), MiB(8)));
    job.credit_bytes = static_cast<Bytes>(rng.UniformInt(KiB(1), MiB(64)));
  }

  // The real assertion is inside RunTrainingJob: engines must drain (any
  // deadlock aborts via BSCHED_CHECK). Completion + positive speed == pass.
  const JobResult result = RunTrainingJob(job);
  EXPECT_GT(result.samples_per_sec, 0.0);
  // Determinism under the exact same configuration.
  const JobResult again = RunTrainingJob(job);
  EXPECT_EQ(result.avg_iter_time, again.avg_iter_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobFuzzTest, ::testing::Range<uint64_t>(0, 24));

// ---- scheduler-core fuzz: randomized completion order -----------------------

class ReorderBackend : public CommBackend {
 public:
  explicit ReorderBackend(uint64_t seed) : rng_(seed) {}

  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    pending_.push_back(std::move(on_finish));
    (void)subtask;
  }

  // Completes a random in-flight subtask (models out-of-order networks).
  bool FinishRandom() {
    if (pending_.empty()) {
      return false;
    }
    const size_t i = static_cast<size_t>(rng_.UniformInt(0, pending_.size() - 1));
    auto cb = std::move(pending_[i]);
    pending_.erase(pending_.begin() + static_cast<long>(i));
    cb();
    return true;
  }

  size_t in_flight() const { return pending_.size(); }

 private:
  Rng rng_;
  std::vector<std::function<void()>> pending_;
};

class CoreFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreFuzzTest, CreditConservedUnderRandomCompletionOrder) {
  Rng rng(GetParam() + 1000);
  ReorderBackend backend(GetParam());
  const Bytes credit = KiB(static_cast<int64_t>(rng.UniformInt(64, 4096)));
  const Bytes partition = KiB(static_cast<int64_t>(rng.UniformInt(16, 2048)));
  SchedulerCore core(SchedulerConfig::ByteScheduler(partition, credit), &backend);

  int finished = 0;
  const int num_tasks = static_cast<int>(rng.UniformInt(5, 60));
  std::vector<CommTaskId> ids;
  for (int i = 0; i < num_tasks; ++i) {
    CommTaskDesc desc;
    desc.layer = static_cast<int>(rng.UniformInt(0, 20));
    desc.tensor_bytes = rng.UniformInt(1, MiB(4));
    desc.type = rng.NextDouble() < 0.5 ? CommOpType::kPush : CommOpType::kAllReduce;
    desc.on_finish = [&finished] { ++finished; };
    ids.push_back(core.Enqueue(std::move(desc)));
  }
  // Interleave readiness notifications with random completions.
  size_t next_ready = 0;
  while (finished < num_tasks) {
    if (next_ready < ids.size() && rng.NextDouble() < 0.4) {
      core.NotifyReady(ids[next_ready++]);
    } else if (!backend.FinishRandom() && next_ready < ids.size()) {
      core.NotifyReady(ids[next_ready++]);
    }
  }
  EXPECT_EQ(core.credit(), credit);  // every charged byte returned
  EXPECT_EQ(core.queue_length(), 0u);
  EXPECT_EQ(core.tasks_finished(), static_cast<uint64_t>(num_tasks));
  EXPECT_EQ(backend.in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreFuzzTest, ::testing::Range<uint64_t>(0, 16));

// ---- simulator trajectory oracle ---------------------------------------------

// For any randomized schedule/cancel/run-to-deadline workload, the Simulator
// fires the same events at the same times, with the same live/queued counts,
// lazy skips and compactions, as a fully sorted reference queue (deeper
// structural cases live in tests/event_queue_test.cc).
class SimulatorOracleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorOracleFuzzTest, TrajectoryMatchesSortedReference) {
  Rng rng(GetParam());
  SimLockstep s;
  int next_id = 0;
  for (int op = 0; op < 1500; ++op) {
    const double r = rng.NextDouble();
    if (r < 0.5) {
      // Ties, near timers, and timers up to ~1 simulated minute out.
      const int64_t delay = rng.NextDouble() < 0.3 ? 1000 : rng.UniformInt(0, int64_t{1} << 36);
      s.Schedule(delay, next_id++);
    } else if (r < 0.8 && s.handles() > 0) {
      s.Cancel(static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(s.handles()) - 1)));
    } else {
      s.Run(s.sim().Now().nanos() + rng.UniformInt(0, 1'000'000));
      s.ExpectSameState();
    }
  }
  s.Run();
  s.ExpectSame();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOracleFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---- scheduler-core admission oracle -------------------------------------------

// The Core's ready queue is a binary heap of runs of partitions, keyed by each
// run's front SubTaskKey and advanced in place as the front is admitted. Keys
// are unique, so for any interleaving of Enqueue, NotifyReady(Partition),
// completions (late ones included) and retry timeouts it must admit exactly
// what an ordered std::map with one entry per partition admits. CoreModel replays Algorithm 1 on such a
// map: credit check on the head, retries requeued at their original key with
// timeouts growing by the backoff. It also derives the admission metrics the
// Core reports: the queue_depth histogram (queue size at each admission) and
// the preemption count (admissions that outrank the one before).
class CoreModel {
 public:
  CoreModel(const SchedulerConfig& config, SimTime retry_timeout)
      : config_(config), retry_timeout_(retry_timeout), credit_(config.credit_bytes) {}

  CommTaskId Enqueue(int layer, CommOpType type, Bytes bytes) {
    Task task{layer, type, {}, {}};
    const Bytes unit = config_.partition_bytes;
    if (unit <= 0 || unit >= bytes) {
      task.parts.push_back(bytes);
    } else {
      for (Bytes left = bytes; left > 0; left -= task.parts.back()) {
        task.parts.push_back(std::min(unit, left));
      }
    }
    task.notified.assign(task.parts.size(), false);
    tasks_.push_back(std::move(task));
    return static_cast<CommTaskId>(tasks_.size() - 1);
  }

  void NotifyPartition(CommTaskId id, int partition) {
    MakeReady(id, partition);
    TrySchedule();
  }

  // Every partition becomes ready before any is admitted, so the queue
  // depths admission observes include the whole tensor.
  void NotifyAll(CommTaskId id) {
    for (int p = 0; p < static_cast<int>(tasks_[id].parts.size()); ++p) {
      MakeReady(id, p);
    }
    TrySchedule();
  }

  // Completion of admission `index` (ignored when that attempt timed out).
  void Complete(size_t index) {
    Attempt& a = attempts_[index];
    if (!a.live) {
      return;
    }
    a.live = false;
    timers_.erase({a.deadline, index});
    credit_ += a.charged;
    TrySchedule();
  }

  // Fires every retry timer due by `until`, in (deadline, arming) order.
  void AdvanceTo(int64_t until) {
    while (!timers_.empty() && timers_.begin()->first <= until) {
      const size_t index = timers_.begin()->second;
      now_ = timers_.begin()->first;
      timers_.erase(timers_.begin());
      Attempt& a = attempts_[index];
      a.live = false;
      credit_ += a.charged;
      queue_.emplace(a.key, Queued{a.task, a.partition, a.attempts + 1});
      TrySchedule();
    }
  }

  bool AllNotified(CommTaskId id) const {
    const auto& n = tasks_[id].notified;
    return std::find(n.begin(), n.end(), false) == n.end();
  }
  const std::vector<std::pair<CommTaskId, int>>& admitted() const { return admitted_; }
  Bytes credit() const { return credit_; }
  size_t queue_length() const { return queue_.size(); }
  uint64_t depth_count() const { return depth_count_; }
  int64_t depth_sum() const { return depth_sum_; }
  uint64_t preemptions() const { return preemptions_; }

 private:
  struct Task {
    int layer;
    CommOpType type;
    std::vector<Bytes> parts;
    std::vector<bool> notified;
  };
  struct Queued {
    CommTaskId task;
    int partition;
    int attempts;
  };
  struct Attempt {
    SubTaskKey key;
    CommTaskId task;
    int partition;
    int attempts;
    Bytes charged;
    int64_t deadline;
    bool live;
  };

  void MakeReady(CommTaskId id, int partition) {
    Task& task = tasks_[id];
    if (!task.notified[partition]) {
      task.notified[partition] = true;
      SubTaskKey key;
      key.arrival_seq = next_seq_++;
      if (config_.policy == SchedulerConfig::Policy::kPriority) {
        key.layer = task.layer;
        key.type_rank = task.type == CommOpType::kPush ? 1 : 0;
      }
      queue_.emplace(key, Queued{id, partition, 0});
    }
  }

  void TrySchedule() {
    while (!queue_.empty()) {
      const auto [key, q] = *queue_.begin();
      const Task& task = tasks_[q.task];
      const Bytes bytes = task.parts[q.partition];
      const bool charges = task.type != CommOpType::kPull;
      if (charges && credit_ < bytes && credit_ != config_.credit_bytes) {
        return;
      }
      ++depth_count_;
      depth_sum_ += static_cast<int64_t>(queue_.size());
      if (has_last_key_ && key < last_key_) {
        ++preemptions_;
      }
      last_key_ = key;
      has_last_key_ = true;
      queue_.erase(queue_.begin());
      const Bytes charged = charges ? std::min(bytes, credit_) : 0;
      credit_ -= charged;
      const int64_t deadline = now_ + (retry_timeout_.nanos() << q.attempts);
      timers_.insert({deadline, attempts_.size()});
      attempts_.push_back(Attempt{key, q.task, q.partition, q.attempts, charged, deadline, true});
      admitted_.emplace_back(q.task, q.partition);
    }
  }

  SchedulerConfig config_;
  SimTime retry_timeout_;
  Bytes credit_;
  int64_t now_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Task> tasks_;
  std::map<SubTaskKey, Queued> queue_;
  std::vector<Attempt> attempts_;
  std::set<std::pair<int64_t, size_t>> timers_;
  std::vector<std::pair<CommTaskId, int>> admitted_;
  uint64_t depth_count_ = 0;
  int64_t depth_sum_ = 0;
  uint64_t preemptions_ = 0;
  SubTaskKey last_key_;
  bool has_last_key_ = false;
};

// Records admissions and hands their completion callbacks to the test.
class AdmissionLog : public CommBackend {
 public:
  void Start(const SubCommTask& subtask, std::function<void()> on_finish) override {
    admitted.emplace_back(subtask.task, subtask.partition);
    finishes.push_back(std::move(on_finish));
  }
  std::vector<std::pair<CommTaskId, int>> admitted;
  std::vector<std::function<void()>> finishes;
};

class CoreOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreOracleTest, AdmissionOrderMatchesOrderedMapReference) {
  Rng rng(GetParam() * 7919 + 3);
  SchedulerConfig config = SchedulerConfig::ByteScheduler(
      KiB(static_cast<int64_t>(rng.UniformInt(16, 1024))),
      KiB(static_cast<int64_t>(rng.UniformInt(64, 4096))));
  if (GetParam() % 3 == 0) {
    config.policy = SchedulerConfig::Policy::kFifo;
  }
  // A plan that injects nothing and carries only the recovery policy.
  FaultPlanConfig plan;
  plan.retry_timeout = SimTime::Micros(5);
  plan.retry_backoff = 2.0;
  plan.max_retries = 40;
  Simulator sim;
  FaultInjector faults(plan, &sim);
  AdmissionLog backend;
  MetricsRegistry metrics;
  SchedulerCore core(config, &backend, 0, &sim, &faults, nullptr, &metrics);
  CoreModel model(config, plan.retry_timeout);
  const Histogram* queue_depth = metrics.histogram("sched.w0.queue_depth");
  const Counter* preemptions = metrics.counter("sched.w0.preemptions");

  std::vector<CommTaskId> open;  // tasks with partitions not yet notified
  std::vector<bool> completed;   // per admission: completion delivered
  for (int op = 0; op < 3000; ++op) {
    const double r = rng.NextDouble();
    if (r < 0.15 || open.empty()) {
      CommTaskDesc desc;
      desc.layer = static_cast<int>(rng.UniformInt(0, 12));
      const double t = rng.NextDouble();
      desc.type = t < 0.4   ? CommOpType::kPush
                  : t < 0.8 ? CommOpType::kPull
                            : CommOpType::kAllReduce;
      desc.tensor_bytes = rng.UniformInt(1, MiB(3));
      const CommTaskId model_id = model.Enqueue(desc.layer, desc.type, desc.tensor_bytes);
      ASSERT_EQ(core.Enqueue(std::move(desc)), model_id);
      open.push_back(model_id);
    } else if (r < 0.45) {
      const size_t i =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1));
      const CommTaskId id = open[i];
      if (rng.NextDouble() < 0.3) {
        core.NotifyReady(id);
        model.NotifyAll(id);
      } else {
        const int p = static_cast<int>(rng.UniformInt(0, core.NumPartitions(id) - 1));
        core.NotifyReadyPartition(id, p);
        model.NotifyPartition(id, p);
      }
      if (model.AllNotified(id)) {
        open.erase(open.begin() + static_cast<long>(i));
      }
    } else if (r < 0.85) {
      // Complete a random admission not completed yet; a timed-out attempt's
      // completion arrives late and must be ignored.
      completed.resize(backend.finishes.size(), false);
      std::vector<size_t> candidates;
      for (size_t i = 0; i < completed.size(); ++i) {
        if (!completed[i]) {
          candidates.push_back(i);
        }
      }
      if (!candidates.empty()) {
        const size_t i = candidates[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
        completed[i] = true;
        backend.finishes[i]();
        model.Complete(i);
      }
    } else {
      const int64_t until = sim.Now().nanos() + rng.UniformInt(0, 20'000);
      sim.Run(SimTime::Nanos(until));
      model.AdvanceTo(until);
    }
    ASSERT_EQ(backend.admitted, model.admitted()) << "op " << op;
    ASSERT_EQ(core.credit(), model.credit()) << "op " << op;
    ASSERT_EQ(core.queue_length(), model.queue_length()) << "op " << op;
    ASSERT_EQ(queue_depth->count(), model.depth_count()) << "op " << op;
    ASSERT_EQ(queue_depth->sum(), model.depth_sum()) << "op " << op;
    ASSERT_EQ(preemptions->value(), model.preemptions()) << "op " << op;
    const std::string debug = core.DebugString();
    ASSERT_NE(debug.find(" queued=" + std::to_string(model.queue_length()) + " "),
              std::string::npos)
        << debug << " (op " << op << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreOracleTest, ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace bsched
