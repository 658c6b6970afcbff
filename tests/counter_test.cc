// Deterministic work-count gate. One reference job per wiring branch of the
// training-job runtime (PS push/pull pipelining, TF's vanilla push/pull split,
// TF's barrier-crossing Dependency Proxies, async PS, imperative hooks, the
// NCCL negotiation cycle, chaos on PS and on the ring's master Core, the
// dynamic fabric with delayed PS notifications, and both co-scheduling
// policies) must reproduce the recorded simulator event count, admitted
// subtasks and per-iteration BP-end times exactly, and the in-flight
// high-water marks of its PS hops, link queue entries and pending events
// (JobResult::Peaks), so a change to what a job holds at once
// shows up here as a table diff. Unlike a wall-clock gate this neither flakes
// nor lets a 30% regression through: any change to the
// event trajectory fails here, and an intentional one updates the table from
// the values the failure prints.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/model/zoo.h"
#include "src/net/net_dynamics.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

struct Counts {
  uint64_t sim_events = 0;
  uint64_t subtasks_started = 0;
  std::vector<int64_t> iter_end_ns;
  JobResult::Peaks peaks;  // {ps_hops, link_entries, sim_events}

  bool operator==(const Counts&) const = default;
};

struct Case {
  std::string name;
  std::vector<JobConfig> jobs;
  // Unset: one job run alone by RunTrainingJob.
  std::optional<CoschedulePolicy> policy;
  std::vector<Counts> expected;  // one per job
};

JobConfig Job(const ModelProfile& model, const Setup& setup, SchedMode mode) {
  JobConfig job;
  job.model = model;
  job.setup = setup;
  job.mode = mode;
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(25);
  if (mode == SchedMode::kByteScheduler) {
    const TunedParams tuned =
        DefaultTunedParams(model, setup.arch, setup.transport, job.bandwidth);
    job.partition_bytes = tuned.partition_bytes;
    job.credit_bytes = tuned.credit_bytes;
  }
  job.warmup_iters = 1;
  job.measure_iters = 2;
  return job;
}

JobConfig Async(JobConfig job) {
  job.ps_async = true;
  return job;
}

JobConfig Chaotic(JobConfig job, uint64_t seed) {
  job.chaos = FaultPlanConfig::Chaos(seed);
  return job;
}

// A volatile fabric (random-walk drift and cross traffic, as fig15 runs)
// with delayed PS notifications, as fig15 sets, plus AIMD enabled. Without a
// FaultInjector no push-ack timer is armed, so AIMD never acts here; the
// pinned values are those of this exact config.
JobConfig Volatile(JobConfig job) {
  NetDynamicsConfig dyn;
  dyn.seed = 3;
  dyn.volatility_amplitude = 0.4;
  dyn.cross_flows = 2;
  dyn.cross_load = 0.35;
  dyn.aimd.enable = true;
  job.dynamics = dyn;
  job.delayed_notify = true;
  return job;
}

std::vector<Case> Cases() {
  const JobConfig vgg_ps = Job(Vgg16(), Setup::MxnetPsRdma(), SchedMode::kByteScheduler);
  const std::vector<JobConfig> pair = {
      vgg_ps, Job(Transformer(), Setup::MxnetPsRdma(), SchedMode::kByteScheduler)};
  return {
      {"Vgg16MxnetPsRdmaByteScheduler",
       {vgg_ps},
       std::nullopt,
       {{20013, 4596, {168421039, 377757279, 586667580}, {61, 94, 30}}}},
      {"Vgg16TfPsTcpVanilla",
       {Job(Vgg16(), Setup::TensorFlowPsTcp(), SchedMode::kVanilla)},
       std::nullopt,
       {{2010, 336, {168421039, 2424120699, 4411562072}, {56, 145, 56}}}},
      {"Vgg16TfPsTcpByteScheduler",
       {Job(Vgg16(), Setup::TensorFlowPsTcp(), SchedMode::kByteScheduler)},
       std::nullopt,
       {{65473, 15276, {168421039, 976761790, 1784739684}, {76, 93, 33}}}},
      {"Vgg16MxnetPsRdmaAsync",
       {Async(vgg_ps)},
       std::nullopt,
       {{21162, 4596, {168421039, 375866709, 582527580}, {60, 87, 30}}}},
      {"Vgg16MxnetPsRdmaAsyncVanilla",
       {Async(Job(Vgg16(), Setup::MxnetPsRdma(), SchedMode::kVanilla))},
       std::nullopt,
       {{1992, 336, {168421039, 698426349, 1158977950}, {95, 169, 12}}}},
      {"ResNet50PyTorchNcclTcpByteScheduler",
       {Job(ResNet50(), Setup::PyTorchNcclTcp(), SchedMode::kByteScheduler)},
       std::nullopt,
       {{435, 54, {94117625, 201901476, 309685327}, {0, 0, 6}}}},
      {"Vgg16MxnetNcclRdmaVanilla",
       {Job(Vgg16(), Setup::MxnetNcclRdma(), SchedMode::kVanilla)},
       std::nullopt,
       {{336, 48, {168421039, 579491979, 989491979}, {0, 0, 4}}}},
      {"Vgg16MxnetPsRdmaChaos7",
       {Chaotic(vgg_ps, 7)},
       std::nullopt,
       {{20685, 4674, {188568399, 416338361, 637828511}, {66, 122, 136}}}},
      {"Vgg16MxnetNcclRdmaChaos7",
       {Chaotic(Job(Vgg16(), Setup::MxnetNcclRdma(), SchedMode::kByteScheduler), 7)},
       std::nullopt,
       {{953, 259, {168421039, 1722575419, 3264230384}, {0, 0, 17}}}},
      {"Vgg16MxnetPsTcpVolatileDelayedNotify",
       {Volatile(Job(Vgg16(), Setup::MxnetPsTcp(), SchedMode::kByteScheduler))},
       std::nullopt,
       {{23337, 4812, {168421039, 597144422, 949553119}, {185, 245, 21}}}},
      {"Vgg16TransformerIndependent",
       pair,
       CoschedulePolicy::kIndependent,
       {{50217, 4596, {168421039, 584239338, 920761986}, {189, 223, 30}},
        {50217, 7008, {134736834, 766385356, 1383590319}, {189, 223, 30}}}},
      {"Vgg16TransformerCoordinated",
       pair,
       CoschedulePolicy::kCoordinated,
       {{50217, 11604, {168421039, 1015742994, 1541285456}, {205, 237, 29}},
        {50217, 11604, {134736834, 521824892, 966392178}, {205, 237, 29}}}},
  };
}

Counts CountsOf(const JobResult& result) {
  Counts counts{result.sim_events, result.subtasks_started, {}, result.peaks};
  for (const SimTime& t : result.iter_end_times) {
    counts.iter_end_ns.push_back(t.nanos());
  }
  return counts;
}

// Prints `counts` as its table literal, for updating the recorded values.
void PrintTo(const Counts& counts, std::ostream* out) {
  *out << "{" << counts.sim_events << ", " << counts.subtasks_started << ", {";
  for (size_t i = 0; i < counts.iter_end_ns.size(); ++i) {
    *out << (i > 0 ? ", " : "") << counts.iter_end_ns[i];
  }
  const JobResult::Peaks& p = counts.peaks;
  *out << "}, {" << p.ps_hops << ", " << p.link_entries << ", " << p.sim_events << "}}";
}

void PrintTo(const Case& c, std::ostream* out) { *out << c.name; }

class CounterTest : public testing::TestWithParam<Case> {};

TEST_P(CounterTest, MatchesRecordedRun) {
  const Case& c = GetParam();
  const std::vector<JobResult> results =
      c.policy.has_value() ? RunCoscheduledPsJobs(c.jobs, *c.policy)
                           : std::vector<JobResult>{RunTrainingJob(c.jobs.front())};
  ASSERT_EQ(results.size(), c.expected.size());
  for (size_t j = 0; j < results.size(); ++j) {
    EXPECT_EQ(CountsOf(results[j]), c.expected[j]) << "job " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(WiringBranches, CounterTest, testing::ValuesIn(Cases()),
                         [](const testing::TestParamInfo<Case>& info) { return info.param.name; });

}  // namespace
}  // namespace bsched
