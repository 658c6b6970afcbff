// Observability layer tests: metrics registry exactness (including under the
// parallel sweep pool — run with the tsan preset for the data-race proof),
// histogram bucket boundaries, snapshot determinism across worker counts,
// and round-trip parsing of the exported trace + metrics artifacts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/trace.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/obs/critical_path.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/runtime/cluster.h"
#include "src/runtime/obs_artifacts.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

JobConfig SmallJob() {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.mode = SchedMode::kByteScheduler;
  job.partition_bytes = MiB(4);
  job.credit_bytes = MiB(16);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  return job;
}

// ---- histogram buckets ----------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0: v <= 0. Bucket k >= 1: [2^(k-1), 2^k - 1] (the bit width).
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  for (int k = 1; k < 62; ++k) {
    const int64_t lo = int64_t{1} << (k - 1);
    const int64_t hi = (int64_t{1} << k) - 1;
    EXPECT_EQ(Histogram::BucketIndex(lo), k) << "lo of bucket " << k;
    EXPECT_EQ(Histogram::BucketIndex(hi), k) << "hi of bucket " << k;
    EXPECT_EQ(Histogram::BucketLowerBound(k), lo);
    EXPECT_EQ(Histogram::BucketUpperBound(k), hi);
  }
  // The top bucket absorbs everything wider than 63 bits of range.
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
}

TEST(HistogramTest, ObserveAndSnapshot) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1011);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.bucket_count(10), 1u);

  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1011);
  EXPECT_EQ(snap.buckets.size(), 4u);  // only non-empty buckets exported
  const std::vector<double> p = snap.Percentiles({50, 90, 100});
  ASSERT_EQ(p.size(), 3u);
  // The median observation (5) lives in bucket 3 = [4, 7].
  EXPECT_GE(p[0], 4.0);
  EXPECT_LE(p[0], 7.0);
  // Percentiles are monotone in p.
  EXPECT_LE(p[0], p[1]);
  EXPECT_LE(p[1], p[2]);
}

// ---- registry -------------------------------------------------------------

TEST(MetricsRegistryTest, StableHandles) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a");
  EXPECT_EQ(reg.counter("a"), c);
  EXPECT_NE(reg.counter("b"), c);
  Gauge* g = reg.gauge("a");  // same name, different kind: distinct handle
  EXPECT_EQ(reg.gauge("a"), g);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  g->Set(-7);
  g->Add(3);
  EXPECT_EQ(g->value(), -4);
}

TEST(MetricsSnapshotTest, JsonIndependentOfRegistrationOrder) {
  MetricsRegistry a;
  a.counter("x")->Inc(3);
  a.gauge("y")->Set(9);
  a.histogram("z")->Observe(5);

  MetricsRegistry b;  // same state, reverse registration order
  b.histogram("z")->Observe(5);
  b.gauge("y")->Set(9);
  b.counter("x")->Inc(3);

  std::ostringstream ja;
  std::ostringstream jb;
  a.Snapshot().WriteJson(ja);
  b.Snapshot().WriteJson(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

// ---- end-to-end job instrumentation --------------------------------------

TEST(ObsJobTest, MetricsDoNotPerturbSimulation) {
  JobConfig job = SmallJob();
  const JobResult plain = RunTrainingJob(job);

  MetricsRegistry metrics;
  TraceRecorder trace;
  job.metrics = &metrics;
  job.trace = &trace;
  const JobResult observed = RunTrainingJob(job);
  EXPECT_EQ(observed.avg_iter_time, plain.avg_iter_time);
  EXPECT_EQ(observed.sim_events, plain.sim_events);
}

// The same job snapshots byte-identically whether the surrounding sweep ran
// serially or on four threads (each run owns a private registry).
TEST(ObsJobTest, SnapshotDeterministicAcrossJobCounts) {
  auto run_once = [](size_t) {
    MetricsRegistry metrics;
    JobConfig job = SmallJob();
    job.metrics = &metrics;
    RunTrainingJob(job);
    std::ostringstream os;
    metrics.Snapshot().WriteJson(os);
    return os.str();
  };
  const std::vector<std::string> one = ParallelFor(2, run_once, 1);
  const std::vector<std::string> many = ParallelFor(4, run_once, 4);
  for (const std::string& snapshot : many) {
    EXPECT_EQ(snapshot, one.front());
  }
  EXPECT_EQ(one.back(), one.front());
}

TEST(ObsJobTest, TraceRoundTripsThroughParser) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  JobConfig job = SmallJob();
  job.trace = &trace;
  job.metrics = &metrics;
  RunTrainingJob(job);

  std::ostringstream os;
  trace.WriteChromeTrace(os);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(os.str(), &root, &error)) << error;
  ASSERT_TRUE(root.is_array());
  ASSERT_FALSE(root.array.empty());

  std::set<int> named_tids;
  std::map<uint64_t, std::set<int>> flow_tracks;
  std::map<uint64_t, std::set<std::string>> flow_phases;
  for (const obs::JsonValue& ev : root.array) {
    ASSERT_TRUE(ev.is_object());
    const obs::JsonValue* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    const obs::JsonValue* pid = ev.Find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_EQ(pid->IntOr(-1), 1);
    const std::string phase = ph->str;
    const int tid = static_cast<int>(ev.Find("tid")->IntOr(-1));
    if (phase == "M") {
      named_tids.insert(tid);
    } else if (phase == "s" || phase == "t" || phase == "f") {
      const uint64_t id = static_cast<uint64_t>(ev.Find("id")->IntOr(0));
      EXPECT_NE(id, 0u);
      flow_tracks[id].insert(tid);
      flow_phases[id].insert(phase);
    } else {
      // Every span/instant lands on a track announced via thread_name.
      EXPECT_TRUE(named_tids.count(tid)) << "unnamed tid " << tid;
    }
  }
  // At least one partition is traceable end-to-end: its arc opens, closes,
  // and crosses >= 3 distinct tracks (scheduler -> link -> shard -> ...).
  bool end_to_end = false;
  for (const auto& [id, tracks] : flow_tracks) {
    if (tracks.size() >= 3 && flow_phases[id].count("s") && flow_phases[id].count("f")) {
      end_to_end = true;
      break;
    }
  }
  EXPECT_TRUE(end_to_end);
}

// A span or flow point without a numeric time is rejected, and the error
// names its event index.
TEST(ChromeTraceLoaderTest, RejectsSpansAndFlowPointsWithoutNumericTimes) {
  const std::string name = R"({"ph":"M","name":"thread_name","pid":1,"tid":1,)"
                           R"("args":{"name":"sched/w0"}},)";
  const struct {
    std::string json;
    std::string error;
  } cases[] = {
      {"[" + name + R"({"ph":"X","name":"a","ts":"abc","dur":1,"pid":1,"tid":1}])",
       "event 1: \"X\" span without a numeric ts"},
      {"[" + name + R"({"ph":"X","name":"a","dur":1,"pid":1,"tid":1}])",
       "event 1: \"X\" span without a numeric ts"},
      {"[" + name + R"({"ph":"X","name":"a","ts":1,"pid":1,"tid":1}])",
       "event 1: \"X\" span without a non-negative numeric dur"},
      {"[" + name + R"({"ph":"X","name":"a","ts":1,"dur":null,"pid":1,"tid":1}])",
       "event 1: \"X\" span without a non-negative numeric dur"},
      {"[" + name + R"({"ph":"X","name":"a","ts":1,"dur":-2,"pid":1,"tid":1}])",
       "event 1: \"X\" span without a non-negative numeric dur"},
      {"[" + name + R"({"ph":"X","name":"a","ts":1,"dur":2,"pid":1,"tid":1},)"
                    R"({"ph":"s","name":"f","id":7,"pid":1,"tid":1}])",
       "event 2: flow point without a numeric ts"},
  };
  for (const auto& c : cases) {
    obs::CpInput in;
    std::string error;
    EXPECT_FALSE(obs::LoadCpInputFromChromeTrace(c.json, &in, &error)) << c.json;
    EXPECT_EQ(error, c.error) << c.json;
  }
  // The same events with numeric times load.
  obs::CpInput in;
  std::string error;
  ASSERT_TRUE(obs::LoadCpInputFromChromeTrace(
      "[" + name + R"({"ph":"X","name":"a","ts":1,"dur":0,"pid":1,"tid":1},)"
                   R"({"ph":"s","name":"f","id":7,"ts":1,"pid":1,"tid":1}])",
      &in, &error))
      << error;
  ASSERT_EQ(in.spans.size(), 1u);
  EXPECT_EQ(in.spans[0].track, "sched/w0");
  EXPECT_EQ(in.flows.at(7).size(), 1u);
}

TEST(ObsJobTest, MetricsRoundTripsWithAcceptanceKeys) {
  MetricsRegistry metrics;
  JobConfig job = SmallJob();
  job.metrics = &metrics;
  RunTrainingJob(job);

  std::ostringstream os;
  metrics.Snapshot().WriteJson(os);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(os.str(), &root, &error)) << error;
  ASSERT_TRUE(root.is_object());

  const obs::JsonValue* counters = root.Find("counters");
  const obs::JsonValue* gauges = root.Find("gauges");
  const obs::JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);

  // Scheduler queue depth + credit occupancy histograms, populated.
  const obs::JsonValue* queue_depth = histograms->Find("sched.w0.queue_depth");
  ASSERT_NE(queue_depth, nullptr);
  EXPECT_GT(queue_depth->Find("count")->IntOr(0), 0);
  const obs::JsonValue* credit = histograms->Find("sched.w0.credit_in_use");
  ASSERT_NE(credit, nullptr);
  EXPECT_GT(credit->Find("count")->IntOr(0), 0);

  // Link busy time gauge for at least one link.
  bool link_busy = false;
  for (const auto& [name, value] : gauges->object) {
    if (name.rfind("net.", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".busy_ns") == 0 && value.IntOr(0) > 0) {
      link_busy = true;
      break;
    }
  }
  EXPECT_TRUE(link_busy);

  // Fault-recovery counters always exported (zero without chaos).
  const obs::JsonValue* retries = counters->Find("fault.core_retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->IntOr(-1), 0);

  // Link byte counters account for real traffic.
  bool link_bytes = false;
  for (const auto& [name, value] : counters->object) {
    if (name.rfind("net.", 0) == 0 && value.IntOr(0) > 0) {
      link_bytes = true;
      break;
    }
  }
  EXPECT_TRUE(link_bytes);
}

TEST(ObsJobTest, ChaosJobExportsRetryCounters) {
  MetricsRegistry metrics;
  JobConfig job = SmallJob();
  job.chaos = FaultPlanConfig::Chaos(1);
  job.metrics = &metrics;
  const JobResult result = RunTrainingJob(job);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("fault.core_retries"), result.fault_stats.core_retries);
  EXPECT_EQ(snap.counters.at("fault.backend_retransmits"),
            result.fault_stats.backend_retransmits);
  EXPECT_EQ(snap.counters.at("fault.drops_injected"), result.fault_stats.drops_injected);
}

TEST(ObsJobTest, RingJobExportsRingCounters) {
  // The ring backend's end-of-run metrics: one ring op per admitted
  // all-reduce subtask, and the ring's busy time.
  uint64_t vanilla_ops = 0;
  for (const SchedMode mode : {SchedMode::kVanilla, SchedMode::kByteScheduler}) {
    SCOPED_TRACE(mode == SchedMode::kVanilla ? "vanilla" : "bytescheduler");
    MetricsRegistry metrics;
    JobConfig job;
    job.model = Vgg16();
    job.setup = Setup::MxnetNcclRdma();
    job.num_machines = 4;
    job.mode = mode;
    if (mode == SchedMode::kByteScheduler) {
      job.partition_bytes = MiB(16);
      job.credit_bytes = MiB(64);
    }
    job.metrics = &metrics;
    const JobResult result = RunTrainingJob(job);
    const MetricsSnapshot snap = metrics.Snapshot();
    EXPECT_GT(result.subtasks_started, 0u);
    EXPECT_EQ(snap.counters.at("ring.ops"), result.subtasks_started);
    EXPECT_GT(snap.gauges.at("ring.busy_ns"), 0);
    if (mode == SchedMode::kVanilla) {
      vanilla_ops = result.subtasks_started;
    } else {
      EXPECT_GT(result.subtasks_started, vanilla_ops);  // partitioned tensors
    }
  }
}

// ---- artifact owner ----------------------------------------------------------

TEST(ObsArtifactsTest, TimeSeriesAttachesTheMetricsRegistryToo) {
  ObsFlags flags;
  flags.timeseries_path = "timeseries.csv";
  flags.sample_every_us = 100;
  ObsArtifacts artifacts(flags);
  JobConfig job = SmallJob();
  artifacts.Attach(&job);
  EXPECT_EQ(job.trace, nullptr);
  ASSERT_NE(job.metrics, nullptr);
  ASSERT_NE(job.timeseries, nullptr);
  EXPECT_EQ(job.timeseries->registry(), job.metrics);
  RunTrainingJob(job);
  EXPECT_GT(job.timeseries->total_ticks(), 0u);
}

TEST(ObsArtifactsTest, WriteFailsOnAnUnwritablePath) {
  ObsFlags flags;
  flags.metrics_path = "/nonexistent-dir/metrics.json";
  ObsArtifacts artifacts(flags);
  JobConfig job = SmallJob();
  artifacts.Attach(&job);
  EXPECT_FALSE(artifacts.Write());
}

TEST(ObsArtifactsDeathTest, SecondAttachCheckFails) {
  ObsFlags flags;
  flags.trace_path = "trace.json";
  ObsArtifacts artifacts(flags);
  JobConfig first = SmallJob();
  artifacts.Attach(&first);
  JobConfig second = SmallJob();
  EXPECT_DEATH(artifacts.Attach(&second), "exactly one job");
}

}  // namespace
}  // namespace bsched
