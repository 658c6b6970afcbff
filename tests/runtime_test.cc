#include <gtest/gtest.h>

#include <vector>

#include "src/model/zoo.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

JobConfig BaseJob(const ModelProfile& model, const Setup& setup, int machines) {
  JobConfig job;
  job.model = model;
  job.setup = setup;
  job.num_machines = machines;
  job.bandwidth = Bandwidth::Gbps(100);
  job.warmup_iters = 2;
  job.measure_iters = 4;
  return job;
}

JobConfig WithMode(JobConfig job, SchedMode mode) {
  job.mode = mode;
  if (mode == SchedMode::kByteScheduler) {
    const TunedParams tuned =
        DefaultTunedParams(job.model, job.setup.arch, job.setup.transport, job.bandwidth);
    job.partition_bytes = tuned.partition_bytes;
    job.credit_bytes = tuned.credit_bytes;
  }
  return job;
}

TEST(ClusterTest, FrameworkProperties) {
  EXPECT_FALSE(HasGlobalBarrier(Framework::kMxnet));
  EXPECT_TRUE(HasGlobalBarrier(Framework::kTensorFlow));
  EXPECT_TRUE(HasGlobalBarrier(Framework::kPyTorch));
  EXPECT_FALSE(IsImperative(Framework::kMxnet));
  EXPECT_FALSE(IsImperative(Framework::kTensorFlow));
  EXPECT_TRUE(IsImperative(Framework::kPyTorch));
}

TEST(ClusterTest, SetupPresets) {
  EXPECT_EQ(Setup::MxnetPsTcp().arch, ArchType::kPs);
  EXPECT_EQ(Setup::MxnetPsTcp().transport.name, "tcp");
  EXPECT_EQ(Setup::MxnetPsRdma().transport.name, "rdma");
  EXPECT_EQ(Setup::TensorFlowPsTcp().framework, Framework::kTensorFlow);
  EXPECT_EQ(Setup::MxnetNcclRdma().arch, ArchType::kAllReduce);
  EXPECT_EQ(Setup::PyTorchNcclTcp().framework, Framework::kPyTorch);
}

TEST(ClusterTest, ToStrings) {
  EXPECT_STREQ(ToString(ArchType::kPs), "ps");
  EXPECT_STREQ(ToString(ArchType::kAllReduce), "allreduce");
  EXPECT_STREQ(ToString(Framework::kMxnet), "mxnet");
  EXPECT_STREQ(ToString(SchedMode::kVanilla), "baseline");
  EXPECT_STREQ(ToString(SchedMode::kP3), "p3");
}

TEST(TrainingJobTest, DeterministicAcrossRuns) {
  JobConfig job = WithMode(BaseJob(Vgg16(), Setup::MxnetPsRdma(), 2), SchedMode::kByteScheduler);
  JobResult a = RunTrainingJob(job);
  JobResult b = RunTrainingJob(job);
  EXPECT_EQ(a.avg_iter_time, b.avg_iter_time);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(TrainingJobTest, IterationTimesMonotonic) {
  JobConfig job = WithMode(BaseJob(Vgg16(), Setup::MxnetPsTcp(), 2), SchedMode::kVanilla);
  JobResult r = RunTrainingJob(job);
  ASSERT_EQ(r.iter_end_times.size(), 6u);
  for (size_t i = 1; i < r.iter_end_times.size(); ++i) {
    EXPECT_GT(r.iter_end_times[i], r.iter_end_times[i - 1]);
  }
}

TEST(TrainingJobTest, ByteSchedulerBeatsBaselineInAllFiveSetups) {
  const std::vector<::bsched::Setup> setups = {Setup::MxnetPsTcp(), Setup::MxnetPsRdma(),
                                     Setup::TensorFlowPsTcp(), Setup::MxnetNcclRdma(),
                                     Setup::PyTorchNcclTcp()};
  for (const ::bsched::Setup& setup : setups) {
    JobConfig base = BaseJob(Vgg16(), setup, 2);
    const double baseline = RunTrainingJob(WithMode(base, SchedMode::kVanilla)).samples_per_sec;
    const double sched =
        RunTrainingJob(WithMode(base, SchedMode::kByteScheduler)).samples_per_sec;
    EXPECT_GT(sched, baseline) << setup.name;
  }
}

TEST(TrainingJobTest, NeverExceedsLinearScalingByMuch) {
  for (const ::bsched::Setup& setup : {Setup::MxnetPsRdma(), Setup::MxnetNcclRdma()}) {
    JobConfig job = WithMode(BaseJob(ResNet50(), setup, 4), SchedMode::kByteScheduler);
    JobResult r = RunTrainingJob(job);
    const double linear = LinearScalingSpeed(job.model, job.total_gpus());
    EXPECT_LE(r.samples_per_sec, linear * 1.01) << setup.name;
  }
}

TEST(TrainingJobTest, P3BetweenBaselineAndByteScheduler) {
  // P3's only scenario: MXNet PS TCP (§6.2). ByteScheduler outperforms it
  // because stop-and-wait cannot fill the pipe.
  JobConfig base = BaseJob(Vgg16(), Setup::MxnetPsTcp(), 4);
  const double baseline = RunTrainingJob(WithMode(base, SchedMode::kVanilla)).samples_per_sec;
  const double p3 = RunTrainingJob(WithMode(base, SchedMode::kP3)).samples_per_sec;
  const double bs = RunTrainingJob(WithMode(base, SchedMode::kByteScheduler)).samples_per_sec;
  EXPECT_GT(p3, baseline);
  EXPECT_GT(bs, p3);
}

TEST(TrainingJobTest, PartitioningBalancesPsLoad) {
  // Transformer's row-sparse embedding is not splittable by vanilla ps-lite,
  // so its 150 MB gradient lands whole on one shard; ByteScheduler's
  // partitioning stripes it (§6.2 "PS load balancing").
  JobConfig base = BaseJob(Transformer(), Setup::MxnetPsRdma(), 4);
  JobResult baseline = RunTrainingJob(WithMode(base, SchedMode::kVanilla));
  JobResult sched = RunTrainingJob(WithMode(base, SchedMode::kByteScheduler));
  EXPECT_GT(baseline.shard_load_imbalance, 1.5);
  EXPECT_LT(sched.shard_load_imbalance, 1.2);
  // VGG16's fc6 is dense and thus split by vanilla ps-lite: mostly balanced.
  JobConfig vgg = BaseJob(Vgg16(), Setup::MxnetPsRdma(), 4);
  EXPECT_LT(RunTrainingJob(WithMode(vgg, SchedMode::kVanilla)).shard_load_imbalance, 1.3);
}

TEST(TrainingJobTest, BarrierMakesVanillaTensorFlowSlowerThanMxnet) {
  JobConfig mx = WithMode(BaseJob(Vgg16(), Setup::MxnetPsTcp(), 2), SchedMode::kVanilla);
  const ::bsched::Setup tf_setup = Setup::TensorFlowPsTcp();
  JobConfig tf = WithMode(BaseJob(Vgg16(), tf_setup, 2), SchedMode::kVanilla);
  EXPECT_LE(RunTrainingJob(tf).samples_per_sec, RunTrainingJob(mx).samples_per_sec * 1.001);
}

TEST(TrainingJobTest, PsGainsExceedAllReduceGains) {
  // §6.2: "ByteScheduler has larger speedup in PS architecture than in
  // all-reduce" (VGG16, RDMA).
  JobConfig ps = BaseJob(Vgg16(), Setup::MxnetPsRdma(), 2);
  JobConfig ar = BaseJob(Vgg16(), Setup::MxnetNcclRdma(), 2);
  const double ps_gain =
      RunTrainingJob(WithMode(ps, SchedMode::kByteScheduler)).samples_per_sec /
      RunTrainingJob(WithMode(ps, SchedMode::kVanilla)).samples_per_sec;
  const double ar_gain =
      RunTrainingJob(WithMode(ar, SchedMode::kByteScheduler)).samples_per_sec /
      RunTrainingJob(WithMode(ar, SchedMode::kVanilla)).samples_per_sec;
  EXPECT_GT(ps_gain, ar_gain);
}

TEST(TrainingJobTest, ResNetGainsSmallerThanVggAt100Gbps) {
  // §6.2: ResNet50 at 100 Gbps RDMA is not communication-bound.
  JobConfig vgg = BaseJob(Vgg16(), Setup::MxnetPsRdma(), 2);
  JobConfig rn = BaseJob(ResNet50(), Setup::MxnetPsRdma(), 2);
  const double vgg_gain =
      RunTrainingJob(WithMode(vgg, SchedMode::kByteScheduler)).samples_per_sec /
      RunTrainingJob(WithMode(vgg, SchedMode::kVanilla)).samples_per_sec;
  const double rn_gain =
      RunTrainingJob(WithMode(rn, SchedMode::kByteScheduler)).samples_per_sec /
      RunTrainingJob(WithMode(rn, SchedMode::kVanilla)).samples_per_sec;
  EXPECT_GT(vgg_gain, rn_gain);
}

TEST(TrainingJobTest, AsyncPsRunsAndIsAtLeastAsFastAsSync) {
  JobConfig sync_job = WithMode(BaseJob(Vgg16(), Setup::MxnetPsRdma(), 2), SchedMode::kVanilla);
  JobConfig async_job = sync_job;
  async_job.ps_async = true;
  const double sync_speed = RunTrainingJob(sync_job).samples_per_sec;
  const double async_speed = RunTrainingJob(async_job).samples_per_sec;
  EXPECT_GE(async_speed, sync_speed * 0.99);
}

TEST(TrainingJobTest, SingleMachineJobsWork) {
  for (const ::bsched::Setup& setup : {Setup::MxnetPsTcp(), Setup::PyTorchNcclTcp()}) {
    JobConfig job = WithMode(BaseJob(ResNet50(), setup, 1), SchedMode::kByteScheduler);
    JobResult r = RunTrainingJob(job);
    EXPECT_GT(r.samples_per_sec, 0.0) << setup.name;
  }
}

TEST(TrainingJobTest, MoreMachinesMoreThroughput) {
  JobConfig two = WithMode(BaseJob(ResNet50(), Setup::MxnetNcclRdma(), 2),
                           SchedMode::kByteScheduler);
  JobConfig eight = WithMode(BaseJob(ResNet50(), Setup::MxnetNcclRdma(), 8),
                             SchedMode::kByteScheduler);
  EXPECT_GT(RunTrainingJob(eight).samples_per_sec, RunTrainingJob(two).samples_per_sec * 2);
}

TEST(TrainingJobTest, LinearScalingFormula) {
  ModelProfile m = Vgg16();
  const double one_gpu = LinearScalingSpeed(m, 1);
  EXPECT_NEAR(one_gpu, 190.0, 1.0);  // calibrated throughput
  EXPECT_NEAR(LinearScalingSpeed(m, 64), 64 * one_gpu, 1e-6);
}

TEST(TrainingJobTest, TunedParamsShapes) {
  ModelProfile m = Vgg16();
  const TunedParams ps =
      DefaultTunedParams(m, ArchType::kPs, TransportModel::Rdma(), Bandwidth::Gbps(100));
  const TunedParams ar =
      DefaultTunedParams(m, ArchType::kAllReduce, TransportModel::Rdma(), Bandwidth::Gbps(100));
  // Table 1: NCCL wants much larger partitions and credits than PS.
  EXPECT_GT(ar.partition_bytes, 4 * ps.partition_bytes);
  EXPECT_GT(ps.credit_bytes, ps.partition_bytes);
  // Lower bandwidth -> smaller PS partitions.
  const TunedParams ps_slow =
      DefaultTunedParams(m, ArchType::kPs, TransportModel::Rdma(), Bandwidth::Gbps(10));
  EXPECT_LT(ps_slow.partition_bytes, ps.partition_bytes);
}

TEST(TrainingJobTest, TransformerImbalanceDrivenGains) {
  // §6.2: Transformer's embedding tensor severely imbalances the PS; the
  // paper saw up to 171 % with 2 workers on RDMA.
  JobConfig base = BaseJob(Transformer(), Setup::MxnetPsRdma(), 2);
  JobResult vanilla = RunTrainingJob(WithMode(base, SchedMode::kVanilla));
  JobResult sched = RunTrainingJob(WithMode(base, SchedMode::kByteScheduler));
  EXPECT_GT(vanilla.shard_load_imbalance, 1.1);
  EXPECT_GT(sched.samples_per_sec, vanilla.samples_per_sec * 1.15);
}

TEST(TrainingJobTest, BertLargeEndToEnd) {
  // A 1.3 GB model is deeply communication-bound even on RDMA PS: the
  // scheduler should deliver a clear speedup and stay under linear scaling.
  // (The gain is smaller than VGG16's: BERT's 24 uniform encoder layers give
  // the vanilla baseline little load skew to lose to.)
  JobConfig base = BaseJob(BertLarge(), Setup::MxnetPsRdma(), 4);
  const double baseline = RunTrainingJob(WithMode(base, SchedMode::kVanilla)).samples_per_sec;
  const double sched =
      RunTrainingJob(WithMode(base, SchedMode::kByteScheduler)).samples_per_sec;
  EXPECT_GT(sched, baseline * 1.15);
  EXPECT_LE(sched, LinearScalingSpeed(base.model, base.total_gpus()) * 1.005);
}

TEST(TrainingJobTest, VanillaAllReduceSendsWholeTensors) {
  // Regression: the ps-lite big-array split must not leak into the all-reduce
  // path — vanilla Horovod all-reduces exactly one operation per tensor.
  JobConfig job = WithMode(BaseJob(ResNet50(), Setup::MxnetNcclRdma(), 8), SchedMode::kVanilla);
  const JobResult r = RunTrainingJob(job);
  const uint64_t iters = job.warmup_iters + job.measure_iters;
  EXPECT_EQ(r.subtasks_started, iters * static_cast<uint64_t>(job.model.num_layers()));
}

TEST(TrainingJobTest, VanillaPsSplitsOnlyLargeDenseTensors) {
  JobConfig job = WithMode(BaseJob(Transformer(), Setup::MxnetPsRdma(), 4), SchedMode::kVanilla);
  const JobResult r = RunTrainingJob(job);
  const uint64_t iters = job.warmup_iters + job.measure_iters;
  uint64_t expected_per_worker_iter = 0;
  for (const Layer& l : job.model.layers) {
    const uint64_t parts =
        (l.splittable && l.param_bytes > MiB(1)) ? job.num_machines : 1;  // ps-lite split
    expected_per_worker_iter += 2 * parts;  // push + pull
  }
  EXPECT_EQ(r.subtasks_started, iters * job.num_machines * expected_per_worker_iter);
}

TEST(TrainingJobTest, ByteSchedulerPartitionCountMatchesConfig) {
  JobConfig job = WithMode(BaseJob(Vgg16(), Setup::MxnetPsRdma(), 2), SchedMode::kByteScheduler);
  job.partition_bytes = MiB(8);
  const JobResult r = RunTrainingJob(job);
  const uint64_t iters = job.warmup_iters + job.measure_iters;
  uint64_t per_worker_iter = 0;
  for (const Layer& l : job.model.layers) {
    per_worker_iter += 2 * ((l.param_bytes + MiB(8) - 1) / MiB(8));
  }
  EXPECT_EQ(r.subtasks_started, iters * job.num_machines * per_worker_iter);
}

}  // namespace
}  // namespace bsched
