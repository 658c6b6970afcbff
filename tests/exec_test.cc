// Parallel sweep execution layer: ThreadPool / SweepRunner semantics
// (ordering, exception propagation), and the serial-vs-parallel
// bit-exactness guarantees of the sweeps built on it (AutoTuner::Tune and
// the figure scaling grid).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/exec/sweep_runner.h"
#include "src/exec/thread_pool.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/tuning/auto_tuner.h"
#include "src/tuning/search.h"

namespace bsched {
namespace {

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  while (!ran) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  // Two tasks that can only finish once both have started: requires 2 workers.
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == 2; });
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] { return arrived == 2; }));
}

// ---- SweepRunner ----------------------------------------------------------

TEST(SweepRunnerTest, ResultsComeBackInInputOrder) {
  SweepRunner runner(4);
  const std::vector<int> results = runner.ParallelFor(64, [](size_t i) {
    if (i % 7 == 0) {  // stagger completion order
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(results.size(), 64u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(SweepRunnerTest, SerialAndParallelProduceIdenticalResults) {
  const auto body = [](size_t i) { return 3.0 * static_cast<double>(i) + 1.0; };
  SweepRunner serial(1);
  SweepRunner parallel(8);
  EXPECT_EQ(serial.ParallelFor(33, body), parallel.ParallelFor(33, body));
}

TEST(SweepRunnerTest, VoidBodyRunsEveryIndexExactlyOnce) {
  SweepRunner runner(4);
  std::vector<std::atomic<int>> hits(50);
  runner.ParallelFor(50, [&hits](size_t i) { ++hits[i]; });
  for (const std::atomic<int>& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(SweepRunnerTest, ZeroAndSingleItemSweeps) {
  SweepRunner runner(4);
  EXPECT_TRUE(runner.ParallelFor(0, [](size_t) { return 1; }).empty());
  const std::vector<int> one = runner.ParallelFor(1, [](size_t i) { return static_cast<int>(i); });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0);
}

TEST(SweepRunnerTest, LowestIndexExceptionPropagates) {
  SweepRunner runner(4);
  try {
    runner.ParallelFor(16, [](size_t i) -> int {
      if (i == 11 || i == 5) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 5");
  }
}

TEST(SweepRunnerTest, SerialExceptionPropagates) {
  SweepRunner runner(1);
  EXPECT_THROW(runner.ParallelFor(4, [](size_t) -> int { throw std::runtime_error("x"); }),
               std::runtime_error);
}

TEST(SweepRunnerTest, DefaultJobsOverride) {
  const int before = SweepRunner::DefaultJobs();
  SweepRunner::SetDefaultJobs(3);
  EXPECT_EQ(SweepRunner::DefaultJobs(), 3);
  EXPECT_EQ(SweepRunner().jobs(), 3);
  SweepRunner::SetDefaultJobs(0);  // restore the hardware default
  EXPECT_GE(SweepRunner::DefaultJobs(), 1);
  EXPECT_GE(before, 1);
}

TEST(SweepRunnerTest, UsesMultipleThreadsWhenParallel) {
  SweepRunner runner(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> arrived{0};
  runner.ParallelFor(4, [&](size_t) {
    ++arrived;
    // Hold each task open briefly so one worker cannot drain the whole queue.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

// ---- serial-vs-parallel bit-exactness of the real sweeps ------------------

AutoTunerOptions BatchedOptions(int jobs) {
  AutoTunerOptions opt;
  opt.max_trials = 8;
  opt.batch_size = 3;  // rounds of 3, 3, 2
  opt.jobs = jobs;
  opt.seed = 11;
  opt.profile_iters = 2;
  return opt;
}

JobConfig TunerJob() {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  return job;
}

TEST(ParallelTuneTest, TuneIsBitIdenticalAcrossWorkerCounts) {
  AutoTuner serial_tuner(TunerJob(), BatchedOptions(/*jobs=*/1));
  AutoTuner parallel_tuner(TunerJob(), BatchedOptions(/*jobs=*/8));
  const AutoTuner::Result a = serial_tuner.TuneWithBo();
  const AutoTuner::Result b = parallel_tuner.TuneWithBo();

  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].partition_bytes, b.trials[i].partition_bytes) << i;
    EXPECT_EQ(a.trials[i].credit_bytes, b.trials[i].credit_bytes) << i;
    // Bitwise equality, not approximate: the parallel tuner must reproduce
    // the serial result stream exactly.
    EXPECT_EQ(std::memcmp(&a.trials[i].speed, &b.trials[i].speed, sizeof(double)), 0) << i;
  }
  EXPECT_EQ(a.best.partition_bytes, b.best.partition_bytes);
  EXPECT_EQ(a.best.credit_bytes, b.best.credit_bytes);
  EXPECT_EQ(std::memcmp(&a.best_speed, &b.best_speed, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.tuning_cost_sec, &b.tuning_cost_sec, sizeof(double)), 0);
}

TEST(ParallelTuneTest, BatchSizeOneMatchesLegacySequentialTuner) {
  // batch_size = 1 must reproduce the strictly sequential pre-batching tuner:
  // same suggestions, same rng draw order, same trials.
  AutoTunerOptions sequential = BatchedOptions(/*jobs=*/1);
  sequential.batch_size = 1;
  AutoTuner tuner(TunerJob(), sequential);
  const AutoTuner::Result result = tuner.TuneWithBo();

  // Replay the legacy loop by hand against the same search and seed.
  AutoTuner replay(TunerJob(), sequential);
  BayesianOptimizer bo(2, sequential.seed);
  for (size_t i = 0; i < result.trials.size(); ++i) {
    const std::vector<double> x = bo.Suggest();
    const double speed =
        replay.EvaluateObjective(replay.PartitionFromUnit(x[0]), replay.CreditFromUnit(x[1]));
    bo.Observe(x, speed);
    EXPECT_EQ(std::memcmp(&speed, &result.trials[i].speed, sizeof(double)), 0) << i;
  }
}

TEST(ParallelGridTest, ScalingGridIsBitIdenticalAcrossWorkerCounts) {
  const std::vector<bench::ScalingPane> serial =
      bench::ComputeScalingGrid(Vgg16(), /*include_p3=*/true, /*jobs=*/1);
  const std::vector<bench::ScalingPane> parallel =
      bench::ComputeScalingGrid(Vgg16(), /*include_p3=*/true, /*jobs=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].setup, parallel[s].setup);
    ASSERT_EQ(serial[s].cells.size(), parallel[s].cells.size());
    for (size_t c = 0; c < serial[s].cells.size(); ++c) {
      const bench::ScalingCell& a = serial[s].cells[c];
      const bench::ScalingCell& b = parallel[s].cells[c];
      EXPECT_EQ(a.gpus, b.gpus);
      EXPECT_EQ(a.has_p3, b.has_p3);
      EXPECT_EQ(std::memcmp(&a.baseline, &b.baseline, sizeof(double)), 0) << s << "," << c;
      EXPECT_EQ(std::memcmp(&a.sched, &b.sched, sizeof(double)), 0) << s << "," << c;
      EXPECT_EQ(std::memcmp(&a.linear, &b.linear, sizeof(double)), 0) << s << "," << c;
      EXPECT_EQ(std::memcmp(&a.p3, &b.p3, sizeof(double)), 0) << s << "," << c;
    }
  }
}

// ---- sweep-shard determinism oracle ---------------------------------------
//
// A figure sweep is sharded across SweepRunner workers (--jobs N). Every job
// runs on its own Simulator, so each observable below must be bit-identical
// whether the sweep runs on one shard or on four. The jobs use
// JobConfig::delayed_notify, the PS notification path fig15 runs.

std::vector<JobConfig> ShardedOracleSweep() {
  std::vector<JobConfig> sweep;
  for (int machines : {2, 3, 4}) {
    JobConfig job = bench::WithMode(
        bench::MakeJob(Vgg16(), Setup::MxnetPsTcp(), machines, Bandwidth::Gbps(10)),
        SchedMode::kByteScheduler);
    job.warmup_iters = 1;
    job.measure_iters = 2;
    job.delayed_notify = true;
    sweep.push_back(job);
  }
  return sweep;
}

// Runs `body` on every job of ShardedOracleSweep() across `shards` workers.
template <typename Fn>
auto RunShardedSweep(int shards, Fn body) {
  const std::vector<JobConfig> sweep = ShardedOracleSweep();
  return SweepRunner(shards).ParallelFor(sweep.size(),
                                         [&](size_t i) { return body(sweep[i]); });
}

void ExpectBitIdentical(const JobResult& a, const JobResult& b) {
  EXPECT_EQ(std::memcmp(&a.samples_per_sec, &b.samples_per_sec, sizeof(double)), 0);
  EXPECT_EQ(a.avg_iter_time, b.avg_iter_time);
  EXPECT_EQ(std::memcmp(&a.shard_load_imbalance, &b.shard_load_imbalance, sizeof(double)), 0);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.subtasks_started, b.subtasks_started);
  EXPECT_EQ(a.subtasks_abandoned, b.subtasks_abandoned);
  ASSERT_EQ(a.iter_end_times.size(), b.iter_end_times.size());
  for (size_t i = 0; i < a.iter_end_times.size(); ++i) {
    EXPECT_EQ(a.iter_end_times[i], b.iter_end_times[i]) << "iter " << i;
  }
}

TEST(ShardedDeterminismTest, ResultsAreBitIdenticalAcrossShardCounts) {
  auto run = [](const JobConfig& job) { return RunTrainingJob(job); };
  const std::vector<JobResult> one = RunShardedSweep(1, run);
  const std::vector<JobResult> four = RunShardedSweep(4, run);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_GT(one[i].samples_per_sec, 0.0);
    ExpectBitIdentical(one[i], four[i]);
  }
}

TEST(ShardedDeterminismTest, MetricsSnapshotIsByteIdenticalAcrossShardCounts) {
  // Each job's exported metrics snapshot must serialize to the same bytes.
  auto snapshot_json = [](JobConfig job) {
    MetricsRegistry metrics;
    job.metrics = &metrics;
    RunTrainingJob(job);
    std::ostringstream out;
    metrics.Snapshot().WriteJson(out);
    return out.str();
  };
  const std::vector<std::string> one = RunShardedSweep(1, snapshot_json);
  EXPECT_FALSE(one.front().empty());
  EXPECT_EQ(one, RunShardedSweep(4, snapshot_json));
}

TEST(ShardedDeterminismTest, TimeSeriesCsvIsByteIdenticalAcrossShardCounts) {
  // The sim-time sampling pipeline merges per-scope series in fixed
  // (time, scope) order, so the exported CSV (tick times, instantaneous
  // values and per-window sketch percentiles alike) must not depend on how
  // many sweep workers produced it.
  auto series_csv = [](JobConfig job) {
    MetricsRegistry metrics;
    TimeSeriesRecorder recorder(&metrics, SimTime::Micros(200));
    job.metrics = &metrics;
    job.timeseries = &recorder;
    RunTrainingJob(job);
    return recorder.ToCsv();
  };
  const std::vector<std::string> one = RunShardedSweep(1, series_csv);
  for (const std::string& csv : one) {
    // Sanity: the series actually carries sampled rows, not just the header.
    EXPECT_NE(csv.find(",w0,"), std::string::npos)
        << "expected worker-0 sample rows in:\n"
        << csv.substr(0, 400);
  }
  EXPECT_EQ(one, RunShardedSweep(4, series_csv));
}

// ---- delayed PS notifications -------------------------------------------

TEST(DelayedNotifyTest, SpeedTracksImmediateNotify) {
  // JobConfig::delayed_notify turns the PS push-ack cancel and the
  // aggregation notifications into control messages, so its trajectory is
  // NOT bit-identical to the synchronous default, but the physics are the
  // same control_latency, so steady-state speed must stay within 10%.
  JobConfig job = bench::WithMode(
      bench::MakeJob(Vgg16(), Setup::MxnetPsTcp(), /*num_machines=*/3, Bandwidth::Gbps(10)),
      SchedMode::kByteScheduler);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  const double immediate_speed = RunTrainingJob(job).samples_per_sec;
  job.delayed_notify = true;
  const double delayed_speed = RunTrainingJob(job).samples_per_sec;
  EXPECT_GT(immediate_speed, 0.0);
  EXPECT_NEAR(delayed_speed / immediate_speed, 1.0, 0.10);
}

}  // namespace
}  // namespace bsched
