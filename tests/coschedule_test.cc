#include <gtest/gtest.h>

#include <vector>

#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

JobConfig PsJob(const ModelProfile& model, int machines) {
  JobConfig job;
  job.model = model;
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = machines;
  job.bandwidth = Bandwidth::Gbps(100);
  job.mode = SchedMode::kByteScheduler;
  const TunedParams tuned =
      DefaultTunedParams(model, ArchType::kPs, job.setup.transport, job.bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  job.warmup_iters = 2;
  job.measure_iters = 3;
  return job;
}

TEST(CoscheduleTest, SingleJobMatchesStandaloneRun) {
  JobConfig job = PsJob(Vgg16(), 2);
  const JobResult alone = RunTrainingJob(job);
  const std::vector<JobResult> co =
      RunCoscheduledPsJobs({job}, CoschedulePolicy::kIndependent);
  ASSERT_EQ(co.size(), 1u);
  EXPECT_EQ(co[0].sim_events, alone.sim_events);
  EXPECT_EQ(co[0].subtasks_started, alone.subtasks_started);
  EXPECT_EQ(co[0].iter_end_times, alone.iter_end_times);
}

TEST(CoscheduleTest, RejectsMetricsOnAnyJob) {
  // The shared fabric takes its observability sinks from the first job only,
  // so a sink on another job would be silently dropped.
  MetricsRegistry metrics;
  JobConfig second = PsJob(ResNet50(), 2);
  second.metrics = &metrics;
  EXPECT_DEATH(RunCoscheduledPsJobs({PsJob(Vgg16(), 2), second},
                                    CoschedulePolicy::kIndependent),
               "trace, metrics and timeseries are unsupported for co-scheduled jobs");
}

TEST(CoscheduleTest, SharingSlowsBothJobs) {
  JobConfig a = PsJob(Vgg16(), 2);
  JobConfig b = PsJob(Transformer(), 2);
  const double a_alone = RunTrainingJob(a).samples_per_sec;
  const double b_alone = RunTrainingJob(b).samples_per_sec;
  const auto co = RunCoscheduledPsJobs({a, b}, CoschedulePolicy::kIndependent);
  // Two communication-heavy jobs on one fabric: both must lose speed.
  EXPECT_LT(co[0].samples_per_sec, a_alone);
  EXPECT_LT(co[1].samples_per_sec, b_alone);
}

TEST(CoscheduleTest, DeterministicPerPolicy) {
  JobConfig a = PsJob(Vgg16(), 2);
  JobConfig b = PsJob(ResNet50(), 2);
  for (CoschedulePolicy policy :
       {CoschedulePolicy::kIndependent, CoschedulePolicy::kCoordinated}) {
    const auto r1 = RunCoscheduledPsJobs({a, b}, policy);
    const auto r2 = RunCoscheduledPsJobs({a, b}, policy);
    EXPECT_EQ(r1[0].avg_iter_time, r2[0].avg_iter_time);
    EXPECT_EQ(r1[1].avg_iter_time, r2[1].avg_iter_time);
  }
}

TEST(CoscheduleTest, CoordinatedHelpsCombinedProgress) {
  // Two identical comm-heavy jobs: coordination (global layer priority on a
  // shared Core) should not hurt, and typically improves the slower job.
  JobConfig a = PsJob(Vgg16(), 2);
  JobConfig b = PsJob(Vgg16(), 2);
  const auto indep = RunCoscheduledPsJobs({a, b}, CoschedulePolicy::kIndependent);
  const auto coord = RunCoscheduledPsJobs({a, b}, CoschedulePolicy::kCoordinated);
  const double indep_worst = std::min(indep[0].samples_per_sec, indep[1].samples_per_sec);
  const double coord_worst = std::min(coord[0].samples_per_sec, coord[1].samples_per_sec);
  EXPECT_GE(coord_worst, indep_worst * 0.95);
}

TEST(CoscheduleTest, ThreeJobsRunToCompletion) {
  JobConfig a = PsJob(Vgg16(), 2);
  JobConfig b = PsJob(ResNet50(), 2);
  JobConfig c = PsJob(Transformer(), 2);
  const auto results = RunCoscheduledPsJobs({a, b, c}, CoschedulePolicy::kCoordinated);
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    EXPECT_GT(r.samples_per_sec, 0.0);
  }
}

TEST(CoscheduleTest, ComputeBoundJobBarelyAffected) {
  // ResNet50 at 100 Gbps is compute-bound; sharing the fabric with VGG16
  // should cost it far less than it costs VGG16.
  JobConfig heavy = PsJob(Vgg16(), 2);
  JobConfig light = PsJob(ResNet50(), 2);
  const double light_alone = RunTrainingJob(light).samples_per_sec;
  const auto co = RunCoscheduledPsJobs({heavy, light}, CoschedulePolicy::kCoordinated);
  EXPECT_GT(co[1].samples_per_sec, light_alone * 0.6);
}

}  // namespace
}  // namespace bsched
