// Time-series recorder + critical-path analyzer suite: sampling cadence and
// stop semantics, (time, scope) row order on one simulator, zero
// perturbation of the simulated trajectory, byte-identical CSV across sweep
// worker counts, and
// the per-iteration longest-path decomposition — synthetic inputs, a round
// trip through the Chrome-trace loader, and a real fig04-style run that must
// decompose >= 95% of every iteration's wall clock.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/common/trace.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

// ---- TimeSeriesRecorder ---------------------------------------------------

TEST(TimeSeriesRecorderTest, SamplesCounterAtCadenceUntilInactive) {
  Simulator sim;
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  sim.Schedule(SimTime::Micros(150), [c] { c->Inc(5); });
  sim.Schedule(SimTime::Micros(350), [c] { c->Inc(7); });

  TimeSeriesRecorder rec(&registry, SimTime::Micros(100));
  const int scope =
      rec.AddScope("s", &sim, [&sim] { return sim.Now() < SimTime::Micros(500); });
  rec.SampleCounter(scope, "c");
  rec.Start();
  sim.Run();

  // Ticks at 100..500us; the 500us tick sees the predicate go false, records
  // its final row, and stops the chain.
  EXPECT_EQ(rec.total_ticks(), 5u);
  EXPECT_EQ(rec.ToCsv(),
            "time_ns,scope,metric,kind,value,count,sum,p50,p95,p99\n"
            "100000,s,c,counter,0,,,,,\n"
            "200000,s,c,counter,5,,,,,\n"
            "300000,s,c,counter,5,,,,,\n"
            "400000,s,c,counter,12,,,,,\n"
            "500000,s,c,counter,12,,,,,\n");
}

TEST(TimeSeriesRecorderTest, SketchRowsCarryPerWindowDeltas) {
  Simulator sim;
  MetricsRegistry registry;
  Histogram* h = registry.histogram("h");
  sim.Schedule(SimTime::Micros(50), [h] {
    h->Observe(100);
    h->Observe(100);
  });
  sim.Schedule(SimTime::Micros(250), [h] { h->Observe(1000); });

  TimeSeriesRecorder rec(&registry, SimTime::Micros(100));
  const int scope =
      rec.AddScope("s", &sim, [&sim] { return sim.Now() < SimTime::Micros(300); });
  rec.SampleSketch(scope, "h");
  rec.Start();
  sim.Run();

  const std::string csv = rec.ToCsv();
  // Window 1: two observations of 100. Window 2: empty (zeros, not repeats of
  // the cumulative state). Window 3: one observation of 1000.
  EXPECT_NE(csv.find("100000,s,h,sketch,,2,200,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("200000,s,h,sketch,,0,0,0,0,0\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("300000,s,h,sketch,,1,1000,"), std::string::npos) << csv;
}

TEST(TimeSeriesRecorderTest, ScopesOnOneSimulatorInterleaveInTimeThenScopeOrder) {
  // Each tick appends its rows as it fires; both chains run at one cadence on
  // one simulator, so the rows come out in (time, scope) order. Scope a stops
  // first: its last row is at 200us, b's at 300us.
  Simulator sim;
  MetricsRegistry registry;
  TimeSeriesRecorder rec(&registry, SimTime::Micros(100));
  const int a = rec.AddScope("a", &sim, [&sim] { return sim.Now() < SimTime::Micros(200); });
  const int b = rec.AddScope("b", &sim, [&sim] { return sim.Now() < SimTime::Micros(300); });
  rec.SampleCounter(a, "c");
  rec.SampleGauge(b, "g");
  rec.Start();
  sim.Run();
  EXPECT_EQ(rec.total_ticks(), 5u);
  EXPECT_EQ(rec.ToCsv(),
            "time_ns,scope,metric,kind,value,count,sum,p50,p95,p99\n"
            "100000,a,c,counter,0,,,,,\n"
            "100000,b,g,gauge,0,,,,,\n"
            "200000,a,c,counter,0,,,,,\n"
            "200000,b,g,gauge,0,,,,,\n"
            "300000,b,g,gauge,0,,,,,\n");
}

TEST(TimeSeriesRecorderDeathTest, ScopesOnASecondSimulatorCheckFail) {
  Simulator sim_a;
  Simulator sim_b;
  MetricsRegistry registry;
  TimeSeriesRecorder rec(&registry, SimTime::Micros(100));
  rec.AddScope("a", &sim_a, [] { return false; });
  EXPECT_DEATH(rec.AddScope("b", &sim_b, [] { return false; }), "one simulator");
}

JobConfig SmallSampledJob() {
  JobConfig job = bench::WithMode(
      bench::MakeJob(Vgg16(), Setup::MxnetPsTcp(), /*num_machines=*/2, Bandwidth::Gbps(10)),
      SchedMode::kByteScheduler);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  return job;
}

TEST(TimeSeriesRecorderTest, SamplingNeverPerturbsIterationTimings) {
  const JobResult plain = RunTrainingJob(SmallSampledJob());

  MetricsRegistry metrics;
  TimeSeriesRecorder rec(&metrics, SimTime::Micros(100));
  JobConfig job = SmallSampledJob();
  job.metrics = &metrics;
  job.timeseries = &rec;
  const JobResult sampled = RunTrainingJob(job);

  // Ticks are real simulator events, so the event total grows — but they only
  // read metric state, so every timing observable is bit-identical.
  EXPECT_GT(rec.total_ticks(), 0u);
  EXPECT_GT(sampled.sim_events, plain.sim_events);
  EXPECT_EQ(plain.avg_iter_time, sampled.avg_iter_time);
  ASSERT_EQ(plain.iter_end_times.size(), sampled.iter_end_times.size());
  for (size_t i = 0; i < plain.iter_end_times.size(); ++i) {
    EXPECT_EQ(plain.iter_end_times[i], sampled.iter_end_times[i]) << "iter " << i;
  }
}

TEST(TimeSeriesRecorderTest, CsvIsByteIdenticalAcrossSweepWorkerCounts) {
  // Three instrumented copies of the same job, swept at --jobs 1 vs --jobs 4:
  // every copy's CSV must be byte-identical across both sweeps.
  auto sweep = [](int jobs) {
    return ParallelFor(
        3,
        [](size_t) {
          MetricsRegistry metrics;
          TimeSeriesRecorder rec(&metrics, SimTime::Micros(100));
          JobConfig job = SmallSampledJob();
          job.metrics = &metrics;
          job.timeseries = &rec;
          RunTrainingJob(job);
          return rec.ToCsv();
        },
        jobs);
  };
  const std::vector<std::string> serial = sweep(1);
  const std::vector<std::string> parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial[0].empty());
  EXPECT_NE(serial[0].find(",w0,"), std::string::npos);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
  }
  EXPECT_EQ(serial[0], serial[1]);  // identical configs -> identical series
}

// ---- critical-path analyzer -----------------------------------------------

obs::CpSpan Span(const std::string& track, const std::string& name, double ts, double dur,
                 int attempt = 0) {
  obs::CpSpan s;
  s.track = track;
  s.name = name;
  s.ts_us = ts;
  s.dur_us = dur;
  s.attempt = attempt;
  return s;
}

obs::CpFlowPoint Point(const std::string& track, const std::string& name, double ts, char ph) {
  obs::CpFlowPoint p;
  p.track = track;
  p.name = name;
  p.ts_us = ts;
  p.ph = ph;
  return p;
}

TEST(CriticalPathTest, DecomposesSyntheticIterationFully) {
  obs::CpInput in;
  // Worker 0 finishes early; worker 1 is critical: compute [0,10)+[30,40),
  // credit-wait [10,26), uplink transit [26,30).
  in.spans.push_back(Span("worker0/gpu", "f0_0", 0, 5));
  in.spans.push_back(Span("worker0/gpu", "b0_0", 5, 10));
  in.spans.push_back(Span("worker1/gpu", "f0_0", 0, 10));
  in.spans.push_back(Span("sched/w1", "t3.p0.credit_wait", 10, 16));
  in.spans.push_back(Span("net/worker1.up", "t3.p0.push", 26, 4));
  in.spans.push_back(Span("worker1/gpu", "b0_0", 30, 10));

  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 5);
  ASSERT_EQ(report.iterations.size(), 1u);
  const obs::IterationBreakdown& it = report.iterations[0];
  EXPECT_EQ(it.iter, 0);
  EXPECT_EQ(it.critical_worker, 1);
  EXPECT_DOUBLE_EQ(it.start_us, 0.0);
  EXPECT_DOUBLE_EQ(it.end_us, 40.0);
  EXPECT_DOUBLE_EQ(it.compute_us, 20.0);
  EXPECT_DOUBLE_EQ(it.credit_wait_us, 16.0);
  EXPECT_DOUBLE_EQ(it.transport_us, 4.0);
  EXPECT_DOUBLE_EQ(it.recovery_us, 0.0);
  EXPECT_DOUBLE_EQ(it.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(report.MinCoverage(), 1.0);
}

TEST(CriticalPathTest, AttributesRetryWaitsToRecovery) {
  obs::CpInput in;
  in.spans.push_back(Span("worker0/gpu", "f0_0", 0, 10));
  in.spans.push_back(Span("sched/w0", "t1.p0.wait", 10, 8, /*attempt=*/1));
  in.spans.push_back(Span("sched/w0", "t2.p0.wait", 18, 2, /*attempt=*/0));
  in.spans.push_back(Span("worker0/gpu", "b0_0", 20, 10));

  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 5);
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(report.iterations[0].compute_us, 20.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].recovery_us, 8.0);
  // Attempt-0 waits are ordinary pipeline latency, i.e. transport.
  EXPECT_DOUBLE_EQ(report.iterations[0].transport_us, 2.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].coverage(), 1.0);
}

TEST(CriticalPathTest, SharedPsSpansCountAsTransportWithoutDoubleCounting) {
  obs::CpInput in;
  in.spans.push_back(Span("worker0/gpu", "f0_0", 0, 10));
  // The shard's aggregation overlaps compute [5,10); only [10,20) may count.
  in.spans.push_back(Span("ps/shard0", "t0.p0.update", 5, 15));
  in.spans.push_back(Span("worker0/gpu", "b0_0", 20, 10));

  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 5);
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(report.iterations[0].compute_us, 20.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].transport_us, 10.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].coverage(), 1.0);
}

TEST(CriticalPathTest, SplitsConsecutiveIterationsAtSlowestBpEnd) {
  obs::CpInput in;
  in.spans.push_back(Span("worker0/gpu", "b0_0", 0, 10));   // iter 0 ends at 10
  in.spans.push_back(Span("worker0/gpu", "f1_0", 10, 5));
  in.spans.push_back(Span("worker0/gpu", "b1_0", 15, 10));  // iter 1 ends at 25
  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 5);
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_DOUBLE_EQ(report.iterations[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].end_us, 10.0);
  EXPECT_DOUBLE_EQ(report.iterations[1].start_us, 10.0);
  EXPECT_DOUBLE_EQ(report.iterations[1].end_us, 25.0);
  EXPECT_DOUBLE_EQ(report.iterations[1].compute_us, 15.0);
}

TEST(CriticalPathTest, RanksStragglerPartitionsByArcDuration) {
  obs::CpInput in;
  in.spans.push_back(Span("worker0/gpu", "b0_0", 0, 100));
  in.flows[7] = {Point("sched/w0", "t1.p0.admit", 10, 's'),
                 Point("net/worker0.up", "t1.p0.push", 90, 'f')};
  in.flows[8] = {Point("sched/w0", "t2.p0.admit", 20, 's'),
                 Point("net/worker0.up", "t2.p0.push", 50, 'f')};
  in.flows[9] = {Point("sched/w0", "lone", 5, 's')};  // single point: no arc

  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 1);
  ASSERT_EQ(report.stragglers.size(), 1u);  // top_k = 1 keeps only the worst
  EXPECT_EQ(report.stragglers[0].flow_id, 7u);
  EXPECT_EQ(report.stragglers[0].name, "t1.p0.admit");
  EXPECT_EQ(report.stragglers[0].iter, 0);
  EXPECT_DOUBLE_EQ(report.stragglers[0].duration_us(), 80.0);
}

TEST(CriticalPathTest, IntervalSetHelpers) {
  // Normalize sorts, drops empty intervals and merges touching ones.
  const obs::Intervals a = obs::Normalize({{5, 8}, {0, 2}, {3, 3}, {2, 4}});
  EXPECT_EQ(a, (obs::Intervals{{0, 4}, {5, 8}}));
  EXPECT_DOUBLE_EQ(obs::Total(a), 7.0);
  const obs::Intervals b = obs::Normalize({{1, 6}});
  EXPECT_DOUBLE_EQ(obs::IntersectionLength(a, b), 4.0);  // [1,4) + [5,6)
  EXPECT_DOUBLE_EQ(obs::IntersectionLength(a, {}), 0.0);
  EXPECT_EQ(obs::Clip(a, 3, 6), (obs::Intervals{{3, 4}, {5, 6}}));
  EXPECT_EQ(obs::Subtract(a, b), (obs::Intervals{{0, 1}, {6, 8}}));
  EXPECT_EQ(obs::WorkerOf("worker12/gpu", "worker"), 12);
  EXPECT_EQ(obs::WorkerOf("worker/gpu", "worker"), -1);
  EXPECT_EQ(obs::WorkerOf("net/worker3.up", "worker"), -1);
}

TEST(CriticalPathTest, CsvHasHeaderAndOneRowPerIteration) {
  obs::CpInput in;
  in.spans.push_back(Span("worker0/gpu", "b0_0", 0, 10));
  in.spans.push_back(Span("worker0/gpu", "b1_0", 10, 10));
  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 5);
  std::ostringstream os;
  obs::WriteCriticalPathCsv(report, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("iter,critical_worker,start_us,end_us,total_us,compute_us,"
                      "transport_us,credit_wait_us,recovery_us,coverage\n",
                      0),
            0u);
  size_t lines = 0;
  for (char ch : csv) {
    lines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 3u);  // header + 2 iterations
  EXPECT_NE(csv.find("\n0,0,"), std::string::npos);
  EXPECT_NE(csv.find("\n1,0,"), std::string::npos);
}

TEST(CriticalPathTest, RoundTripsThroughChromeTraceJson) {
  TraceRecorder trace;
  trace.AddSpan("worker0/gpu", "f0_0", SimTime::Micros(0), SimTime::Micros(10));
  trace.AddSpan("sched/w0", "t1.p0.wait", SimTime::Micros(10), SimTime::Micros(14),
                {TraceArg::Int("attempt", 1)});
  trace.AddSpan("worker0/gpu", "b0_0", SimTime::Micros(14), SimTime::Micros(24));
  trace.AddFlow("sched/w0", "t1.p0.admit", SimTime::Micros(10), 42, FlowPhase::kStart);
  trace.AddFlow("net/worker0.up", "t1.p0.push", SimTime::Micros(14), 42, FlowPhase::kEnd);
  std::ostringstream os;
  trace.WriteChromeTrace(os);

  obs::CpInput in;
  std::string error;
  ASSERT_TRUE(obs::LoadCpInputFromChromeTrace(os.str(), &in, &error)) << error;
  ASSERT_EQ(in.spans.size(), 3u);
  ASSERT_EQ(in.flows.count(42), 1u);
  EXPECT_EQ(in.flows.at(42).size(), 2u);

  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 5);
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(report.iterations[0].compute_us, 20.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].recovery_us, 4.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].coverage(), 1.0);
  ASSERT_EQ(report.stragglers.size(), 1u);
  EXPECT_EQ(report.stragglers[0].name, "t1.p0.admit");
}

TEST(CriticalPathTest, Fig04StyleRunCoverageIsAtLeast95Percent) {
  // The acceptance run: trace a fig04-style job (VGG16, MXNet PS TCP,
  // 10 Gbps — the bandwidth-starved regime where credit waits appear), replay
  // it through the Chrome-trace loader, and require the decomposition to
  // explain >= 95% of every iteration's wall clock.
  TraceRecorder trace;
  JobConfig job = bench::WithMode(
      bench::MakeJob(Vgg16(), Setup::MxnetPsTcp(), /*num_machines=*/4, Bandwidth::Gbps(10)),
      SchedMode::kByteScheduler);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  job.trace = &trace;
  RunTrainingJob(job);

  std::ostringstream os;
  trace.WriteChromeTrace(os);
  obs::CpInput in;
  std::string error;
  ASSERT_TRUE(obs::LoadCpInputFromChromeTrace(os.str(), &in, &error)) << error;

  const obs::CriticalPathReport report = obs::AnalyzeCriticalPath(in, 5);
  ASSERT_EQ(report.iterations.size(), 3u);  // 1 warmup + 2 measured
  for (const obs::IterationBreakdown& it : report.iterations) {
    EXPECT_GT(it.compute_us, 0.0) << "iter " << it.iter;
    EXPECT_GT(it.transport_us + it.credit_wait_us, 0.0) << "iter " << it.iter;
    EXPECT_GE(it.coverage(), 0.95) << "iter " << it.iter;
  }
  EXPECT_GE(report.MinCoverage(), 0.95);
  EXPECT_FALSE(report.stragglers.empty());
}

// The analyzer finds iteration ends by name: a worker's b<k>_0 GPU span. Both
// engines name each compute span f<k>_<i> or b<k>_<i>, once per layer and
// iteration, so every warmup and measured iteration gets its window.
TEST(CriticalPathTest, BothEnginesNameComputeSpansForTheAnalyzer) {
  for (const bsched::Setup& setup : {Setup::PyTorchNcclTcp(), Setup::MxnetPsRdma()}) {
    SCOPED_TRACE(setup.name);
    TraceRecorder trace;
    JobConfig job = bench::WithMode(
        bench::MakeJob(Vgg16(), setup, /*num_machines=*/2, Bandwidth::Gbps(25)),
        SchedMode::kByteScheduler);
    job.warmup_iters = 1;
    job.measure_iters = 2;
    job.trace = &trace;
    RunTrainingJob(job);

    std::ostringstream os;
    trace.WriteChromeTrace(os);
    obs::CpInput in;
    std::string error;
    ASSERT_TRUE(obs::LoadCpInputFromChromeTrace(os.str(), &in, &error)) << error;
    std::multiset<std::string> want;
    for (int k = 0; k < 3; ++k) {
      for (int i = 0; i < job.model.num_layers(); ++i) {
        const std::string suffix = std::to_string(k) + "_" + std::to_string(i);
        want.insert("f" + suffix);
        want.insert("b" + suffix);
      }
    }
    std::multiset<std::string> got;
    for (const obs::CpSpan& span : in.spans) {
      if (span.track == "worker0/gpu") {
        got.insert(span.name);
      }
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(obs::AnalyzeCriticalPath(in, 5).iterations.size(), 3u);  // 1 warmup + 2 measured
  }
}

}  // namespace
}  // namespace bsched
