// Parallel sweep execution layer: ParallelFor semantics (ordering,
// exception propagation), and the serial-vs-parallel bit-exactness
// guarantees of the sweeps built on it (the figure scaling grid and the
// oracle sweeps below).
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
#include "src/common/flags.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/tuning/auto_tuner.h"

namespace bsched {
namespace {

// ---- ParallelFor --------------------------------------------------------

TEST(ParallelForTest, ResultsComeBackInInputOrder) {
  const std::vector<int> results = ParallelFor(
      64,
      [](size_t i) {
        if (i % 7 == 0) {  // stagger completion order
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return static_cast<int>(i * i);
      },
      4);
  ASSERT_EQ(results.size(), 64u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(ParallelForTest, SerialAndParallelProduceIdenticalResults) {
  const auto body = [](size_t i) { return 3.0 * static_cast<double>(i) + 1.0; };
  EXPECT_EQ(ParallelFor(33, body, 1), ParallelFor(33, body, 8));
}

TEST(ParallelForTest, VoidBodyRunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(50);
  ParallelFor(50, [&hits](size_t i) { ++hits[i]; }, 4);
  for (const std::atomic<int>& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroAndSingleItemSweeps) {
  EXPECT_TRUE(ParallelFor(0, [](size_t) { return 1; }, 4).empty());
  const std::vector<int> one = ParallelFor(1, [](size_t i) { return static_cast<int>(i); }, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0);
}

TEST(ParallelForTest, LowestIndexExceptionPropagates) {
  try {
    ParallelFor(
        16,
        [](size_t i) -> int {
          if (i == 11 || i == 5) {
            throw std::runtime_error("boom at " + std::to_string(i));
          }
          return 0;
        },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 5");
  }
}

TEST(ParallelForTest, SerialExceptionPropagates) {
  int started = 0;
  EXPECT_THROW(ParallelFor(
                   4,
                   [&started](size_t) -> int {
                     ++started;
                     throw std::runtime_error("x");
                   },
                   1),
               std::runtime_error);
  EXPECT_EQ(started, 1);  // items after the first throw never start
}

TEST(ParallelForTest, DefaultJobsOverride) {
  const int before = DefaultJobs();
  SetDefaultJobs(3);
  EXPECT_EQ(DefaultJobs(), 3);
  // jobs == 0 picks the default: 3 threads serve a 16-item sweep.
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> arrived{0};
  ParallelFor(16, [&](size_t) {
    ++arrived;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 3 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids.size(), 3u);
  SetDefaultJobs(0);  // restore the hardware default
  EXPECT_GE(DefaultJobs(), 1);
  EXPECT_GE(before, 1);
}

TEST(ParallelForTest, UsesMultipleThreadsWhenParallel) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> arrived{0};
  ParallelFor(
      4,
      [&](size_t) {
        ++arrived;
        // Hold each item open briefly so one thread cannot claim every index.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      },
      4);
  EXPECT_GE(ids.size(), 2u);
}

TEST(JobsFlagTest, AcceptsOnlyWholePositiveNumbers) {
  const auto accepts = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return SetDefaultJobsFromFlags(Flags(static_cast<int>(args.size()), args.data()), "prog");
  };
  EXPECT_TRUE(accepts({}));  // absent: keep the default
  EXPECT_TRUE(accepts({"--jobs", "3"}));
  EXPECT_EQ(DefaultJobs(), 3);
  for (const char* bad : {"abc", "-3", "0", "2x", "+2", "", "99999999999999999999"}) {
    EXPECT_FALSE(accepts({"--jobs", bad})) << "'" << bad << "'";
  }
  EXPECT_FALSE(accepts({"--jobs=2x"}));
  EXPECT_FALSE(accepts({"--jobs"}));  // bare flag parses as "true"
  EXPECT_EQ(DefaultJobs(), 3);        // a rejected value installs nothing
  SetDefaultJobs(0);
}

// ---- serial-vs-parallel bit-exactness of the real sweeps ------------------

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

// ---- --jobs 1 vs --jobs 4 determinism oracle ----------------------------
//
// A figure sweep runs on --jobs N threads. Every job runs on its own
// Simulator, so each observable below must be bit-identical whether the
// sweep runs with --jobs 1 or --jobs 4. The jobs use
// JobConfig::delayed_notify, the PS notification path fig15 runs.

std::vector<JobConfig> JobsOracleSweep() {
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

// Runs `body` on every job of JobsOracleSweep() on `jobs` threads.
template <typename Fn>
auto RunJobsOracleSweep(int jobs, Fn body) {
  const std::vector<JobConfig> sweep = JobsOracleSweep();
  return ParallelFor(sweep.size(), [&](size_t i) { return body(sweep[i]); }, jobs);
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
  EXPECT_EQ(a.peaks, b.peaks);
}

TEST(SweepJobsDeterminismTest, ResultsAreBitIdenticalAtJobs1And4) {
  auto run = [](const JobConfig& job) { return RunTrainingJob(job); };
  const std::vector<JobResult> one = RunJobsOracleSweep(1, run);
  const std::vector<JobResult> four = RunJobsOracleSweep(4, run);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_GT(one[i].samples_per_sec, 0.0);
    ExpectBitIdentical(one[i], four[i]);
  }
}

TEST(SweepJobsDeterminismTest, LatticeSpeedsAreBitIdenticalAtJobs1And4) {
  // The lattice helper of fig14 and table1 returns each point's speed in
  // input order, bit-identical to a serial EvaluateConfigured, at any worker
  // count; the points mix long push flights (large credit) with
  // credit-bound ones.
  // (bsched::Setup: the fixture base class has a Setup member.)
  for (const bsched::Setup& setup :
       {bsched::Setup::MxnetPsRdma(), bsched::Setup::MxnetNcclRdma()}) {
    SCOPED_TRACE(setup.name);
    const AutoTuner tuner(bench::MakeJob(Vgg16(), setup, 2, Bandwidth::Gbps(25)),
                          AutoTunerOptions());
    std::vector<TunedParams> points;
    for (const auto& [u, v] : std::vector<std::pair<double, double>>{
             {0.25, 1.0}, {1.0, 0.5}, {0.25, 0.0}, {0.5, 0.75}, {0.5, 0.0}}) {
      points.push_back(TunedParams{tuner.PartitionFromUnit(u), tuner.CreditFromUnit(v)});
    }
    const std::vector<double> one = bench::EvaluateLattice(tuner, points, 1);
    const std::vector<double> four = bench::EvaluateLattice(tuner, points, 4);
    ASSERT_EQ(one.size(), points.size());
    ASSERT_EQ(four.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      const double serial =
          tuner.EvaluateConfigured(points[i].partition_bytes, points[i].credit_bytes);
      EXPECT_GT(serial, 0.0);
      EXPECT_EQ(std::memcmp(&one[i], &serial, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&four[i], &serial, sizeof(double)), 0);
    }
  }
}

TEST(SweepJobsDeterminismTest, MetricsSnapshotIsByteIdenticalAtJobs1And4) {
  // Each job's exported metrics snapshot must serialize to the same bytes.
  auto snapshot_json = [](JobConfig job) {
    MetricsRegistry metrics;
    job.metrics = &metrics;
    RunTrainingJob(job);
    std::ostringstream out;
    metrics.Snapshot().WriteJson(out);
    return out.str();
  };
  const std::vector<std::string> one = RunJobsOracleSweep(1, snapshot_json);
  EXPECT_FALSE(one.front().empty());
  EXPECT_EQ(one, RunJobsOracleSweep(4, snapshot_json));
}

TEST(SweepJobsDeterminismTest, TimeSeriesCsvIsByteIdenticalAtJobs1And4) {
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
  const std::vector<std::string> one = RunJobsOracleSweep(1, series_csv);
  for (const std::string& csv : one) {
    // Sanity: the series actually carries sampled rows, not just the header.
    EXPECT_NE(csv.find(",w0,"), std::string::npos)
        << "expected worker-0 sample rows in:\n"
        << csv.substr(0, 400);
  }
  EXPECT_EQ(one, RunJobsOracleSweep(4, series_csv));
}

// ---- delayed PS notifications -------------------------------------------

TEST(DelayedNotifyTest, SpeedTracksImmediateNotify) {
  // JobConfig::delayed_notify turns the aggregation notifications into
  // control messages, so its trajectory is NOT bit-identical to the
  // synchronous default, but the physics are the same control_latency, so
  // steady-state speed must stay within 10%.
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
