#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/common/flags.h"
#include "src/common/trace.h"
#include "src/model/zoo.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

TEST(TraceRecorderTest, RecordsSpansAndInstants) {
  TraceRecorder trace;
  EXPECT_TRUE(trace.empty());
  trace.AddSpan("gpu", "f0", SimTime::Micros(10), SimTime::Micros(40));
  trace.AddInstant("gpu", "marker", SimTime::Micros(50));
  trace.AddSpan("net", "push", SimTime::Micros(0), SimTime::Micros(100));
  EXPECT_EQ(trace.num_events(), 3u);
  EXPECT_EQ(trace.Tracks(), (std::vector<std::string>{"gpu", "net"}));
}

TEST(TraceRecorderTest, TrackBusyTime) {
  TraceRecorder trace;
  trace.AddSpan("gpu", "a", SimTime::Micros(0), SimTime::Micros(30));
  trace.AddSpan("gpu", "b", SimTime::Micros(40), SimTime::Micros(50));
  trace.AddInstant("gpu", "i", SimTime::Micros(60));  // no duration
  EXPECT_EQ(trace.TrackBusyTime("gpu"), SimTime::Micros(40));
  EXPECT_EQ(trace.TrackBusyTime("absent"), SimTime());
}

TEST(TraceRecorderTest, ChromeTraceJsonShape) {
  TraceRecorder trace;
  trace.AddSpan("track \"x\"", "op\\1", SimTime::Micros(5), SimTime::Micros(9));
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
  // Quotes/backslashes escaped.
  EXPECT_NE(json.find("track \\\"x\\\""), std::string::npos);
  EXPECT_NE(json.find("op\\\\1"), std::string::npos);
  // Thread-name metadata present.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TraceRecorderTest, EscapesControlCharactersAndQuotedNames) {
  TraceRecorder trace;
  // A tensor named like an indexed parameter dict entry, plus raw control
  // characters that must never reach the JSON output unescaped.
  trace.AddSpan("net", "grad[\"fc1\"]", SimTime::Micros(0), SimTime::Micros(1));
  trace.AddSpan("net", std::string("a\nb\tc\x01"), SimTime::Micros(2), SimTime::Micros(3));
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("grad[\\\"fc1\\\"]"), std::string::npos);
  EXPECT_NE(json.find("a\\nb\\tc\\u0001"), std::string::npos);
  // No raw control characters inside any JSON string (the only control
  // bytes in the file are the inter-event newlines).
  for (char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
}

TEST(TraceRecorderTest, TrackIdsFollowFirstUseOrder) {
  TraceRecorder trace;
  trace.AddSpan("zeta", "a", SimTime::Micros(0), SimTime::Micros(1));
  trace.AddSpan("alpha", "b", SimTime::Micros(0), SimTime::Micros(1));
  trace.AddSpan("zeta", "c", SimTime::Micros(2), SimTime::Micros(3));
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  // "zeta" was seen first, so it owns the lower tid; the thread_name
  // metadata is emitted in ascending tid order.
  const size_t zeta = json.find("\"name\":\"zeta\"");
  const size_t alpha = json.find("\"name\":\"alpha\"");
  ASSERT_NE(zeta, std::string::npos);
  ASSERT_NE(alpha, std::string::npos);
  EXPECT_LT(zeta, alpha);
}

TEST(TraceRecorderTest, FlowEventsAndArgs) {
  TraceRecorder trace;
  trace.AddSpan("sched", "admit", SimTime::Micros(0), SimTime::Micros(2),
                {TraceArg::Int("bytes", 4096), TraceArg::Int("partition", -3)});
  trace.AddFlow("sched", "t0.p0", SimTime::Micros(2), 7, FlowPhase::kStart);
  trace.AddFlow("link", "t0.p0", SimTime::Micros(5), 7, FlowPhase::kStep);
  trace.AddFlow("sched", "t0.p0", SimTime::Micros(9), 7, FlowPhase::kEnd);
  EXPECT_EQ(trace.num_flow_events(), 3u);
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Binding point "e" on the closing event; shared flow id and category.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  // Integer args rendered into the span's args object.
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"partition\":-3"), std::string::npos);
}

TEST(TraceRecorderTest, JobProducesCoherentTrace) {
  TraceRecorder trace;
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
  job.trace = &trace;
  const JobResult result = RunTrainingJob(job);

  // At least: 2 workers x 3 iterations x 16 layers x (fp + bp) compute spans,
  // plus one communication span per (worker, layer, iteration). The
  // observability layer adds scheduler/link/shard detail spans and partition
  // flow arcs on top.
  EXPECT_GE(trace.num_events(), 2u * 3 * 16 * 2 + 2u * 3 * 16);
  EXPECT_GT(trace.num_flow_events(), 0u);
  // GPU busy time per worker equals iterations x model compute time.
  const double gpu_busy = trace.TrackBusyTime("worker0/gpu").ToSeconds();
  EXPECT_NEAR(gpu_busy, 3 * job.model.TotalComputeTime().ToSeconds(), 1e-6);
  // Tracing must not perturb the simulation.
  job.trace = nullptr;
  EXPECT_EQ(RunTrainingJob(job).avg_iter_time, result.avg_iter_time);
}

TEST(FlagsTest, KeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7.5", "--gamma", "--delta=hello"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0), 7.5);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_EQ(flags.GetString("delta", ""), "hello");
  EXPECT_FALSE(flags.Has("epsilon"));
  EXPECT_EQ(flags.GetInt("epsilon", 42), 42);
}

TEST(FlagsTest, PositionalAndErrors) {
  const char* argv[] = {"prog", "input.txt", "-x", "--ok=1", "more"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"input.txt", "more"}));
  EXPECT_EQ(flags.errors(), (std::vector<std::string>{"-x"}));
  EXPECT_TRUE(flags.Has("ok"));
}

TEST(FlagsTest, BareFlagBeforeAnotherFlag) {
  const char* argv[] = {"prog", "--verbose", "--level=2"};
  Flags flags(3, argv);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("level", 0), 2);
}

TEST(FlagsTest, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false", "--e=0", "--f=no"};
  Flags flags(7, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
  EXPECT_FALSE(flags.GetBool("f", true));
}

TEST(FlagsDeathTest, BadBoolExits2) {
  const char* argv[] = {"prog", "--check=on"};
  const Flags flags(2, argv);
  EXPECT_EXIT(flags.GetBool("check", false), testing::ExitedWithCode(2),
              "--check needs true, false, 1, 0, yes or no, got 'on'");
}

TEST(ObsFlagsTest, DisabledByDefault) {
  const char* argv[] = {"prog", "--jobs=4"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_FALSE(obs.enabled());
  EXPECT_TRUE(obs.trace_path.empty());
  EXPECT_TRUE(obs.metrics_path.empty());
}

TEST(ObsFlagsTest, ExplicitPaths) {
  const char* argv[] = {"prog", "--trace=/tmp/t.json", "--metrics=/tmp/m.json"};
  const ObsFlags obs = ParseObsFlags(Flags(3, argv));
  EXPECT_TRUE(obs.enabled());
  EXPECT_EQ(obs.trace_path, "/tmp/t.json");
  EXPECT_EQ(obs.metrics_path, "/tmp/m.json");
}

TEST(ObsFlagsTest, BareFlagsUseDefaults) {
  const char* argv[] = {"prog", "--trace"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_EQ(obs.trace_path, "trace.json");
  EXPECT_TRUE(obs.metrics_path.empty());
}

TEST(ObsFlagsTest, ObsEnablesBoth) {
  const char* argv[] = {"prog", "--obs"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_EQ(obs.trace_path, "trace.json");
  EXPECT_EQ(obs.metrics_path, "metrics.json");
}

TEST(ObsFlagsTest, ObsKeepsExplicitPaths) {
  const char* argv[] = {"prog", "--obs", "--trace=custom.json"};
  const ObsFlags obs = ParseObsFlags(Flags(3, argv));
  EXPECT_EQ(obs.trace_path, "custom.json");
  EXPECT_EQ(obs.metrics_path, "metrics.json");
}

TEST(ObsFlagsTest, SampleEverySetsCadenceAndImpliesTimeseries) {
  const char* argv[] = {"prog", "--sample-every=250"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_EQ(obs.timeseries_path, "timeseries.csv");
  EXPECT_EQ(obs.sample_every_us, 250);
  const char* bare[] = {"prog", "--timeseries"};
  EXPECT_EQ(ParseObsFlags(Flags(2, bare)).sample_every_us, 100);
}

TEST(ObsFlagsTest, RejectsCadenceOutsideSimTime) {
  // Zero and negative cadences used to fall back to 100us or sample nothing;
  // above INT64_MAX / 1000 us, SimTime::Micros would overflow.
  for (const char* value : {"0", "-5", "9223372036854776"}) {
    const char* argv[] = {"prog", "--sample-every", value};
    EXPECT_EXIT(ParseObsFlags(Flags(3, argv)), ::testing::ExitedWithCode(2),
                "prog: --sample-every needs .*microseconds") << value;
  }
  const char* max[] = {"prog", "--sample-every", "9223372036854775"};
  EXPECT_EQ(ParseObsFlags(Flags(3, max)).sample_every_us, 9223372036854775);
}

TEST(PerLayerPartitionTest, OverridesUniformSize) {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.mode = SchedMode::kByteScheduler;
  job.partition_bytes = MiB(2);
  job.credit_bytes = MiB(10);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  const JobResult uniform = RunTrainingJob(job);

  // Same sizes expressed per layer: identical result.
  job.per_layer_partition.assign(job.model.layers.size(), MiB(2));
  EXPECT_EQ(RunTrainingJob(job).avg_iter_time, uniform.avg_iter_time);

  // Absurd per-layer sizes for the big fc layers: must change (hurt) timing.
  job.per_layer_partition.assign(job.model.layers.size(), MiB(2));
  job.per_layer_partition[13] = KiB(16);  // fc6 in 16 KiB pieces
  const JobResult skewed = RunTrainingJob(job);
  EXPECT_GT(skewed.avg_iter_time, uniform.avg_iter_time);
}

}  // namespace
}  // namespace bsched
