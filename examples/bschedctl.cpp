// bschedctl: command-line experiment runner. Configure a distributed
// training job entirely from flags, run it, and optionally dump a Chrome
// trace of the compute/communication overlap.
//
// Examples (one command per line):
//   bschedctl --model vgg16 --setup mxnet-ps-rdma --machines 4 --gbps 100
//   bschedctl --model transformer --setup pytorch-nccl-tcp --mode baseline --trace
//   bschedctl --model resnet50 --partition-kb 2048 --credit-kb 10240 --async
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/model/zoo.h"
#include "src/runtime/cluster.h"
#include "src/runtime/obs_artifacts.h"
#include "src/runtime/training_job.h"

using namespace bsched;

namespace {

constexpr char kUsage[] = R"(usage: bschedctl [flags]
  --model      vgg16|vgg19|alexnet|resnet50|transformer   (default vgg16)
  --setup      mxnet-ps-tcp|mxnet-ps-rdma|tf-ps-tcp|mxnet-nccl-rdma|pytorch-nccl-tcp
  --mode       baseline|bytescheduler|p3                  (default bytescheduler)
  --machines   worker machines, 8 GPUs each               (default 4)
  --gbps       network bandwidth in Gbps                  (default 100)
  --partition-kb / --credit-kb   bytescheduler knobs (default: auto heuristic)
  --async      asynchronous PS training (PS setups only)
  --iters      measured iterations                        (default 5)
  --trace[=path]  write a Chrome trace JSON                (default path trace.json)
A value outside its flag's range exits with status 2.
)";

Setup SetupByName(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "mxnet-ps-tcp") {
    return Setup::MxnetPsTcp();
  }
  if (name == "mxnet-ps-rdma") {
    return Setup::MxnetPsRdma();
  }
  if (name == "tf-ps-tcp") {
    return Setup::TensorFlowPsTcp();
  }
  if (name == "mxnet-nccl-rdma") {
    return Setup::MxnetNcclRdma();
  }
  if (name == "pytorch-nccl-tcp") {
    return Setup::PyTorchNcclTcp();
  }
  *ok = false;
  return Setup{};
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool known = flags.CheckNames(argv[0], {"model", "setup", "mode", "machines", "gbps",
                                                "partition-kb", "credit-kb", "async", "iters",
                                                "trace", "help"});
  if (!known || flags.Has("help")) {
    std::fputs(kUsage, stderr);
    return known ? 0 : 2;
  }

  // Every value is range-checked here, so a bad one exits 2 naming the flag
  // (Flags::RejectValue, as for a malformed number) instead of aborting on an
  // invariant deep inside the run, and so does a flag the chosen setup or
  // mode would ignore. Counts are stored as int and KiB become bytes, which
  // bounds the rest.
  constexpr int64_t kMaxCount = std::numeric_limits<int>::max();
  constexpr int64_t kMaxKb = std::numeric_limits<Bytes>::max() / 1024;
  JobConfig job;
  const std::optional<ModelProfile> model = ModelByName(flags.GetString("model", "vgg16"));
  if (!model.has_value()) {
    flags.RejectValue("model", "a zoo model name");
  }
  job.model = *model;
  bool setup_ok = false;
  job.setup = SetupByName(flags.GetString("setup", "mxnet-ps-rdma"), &setup_ok);
  if (!setup_ok) {
    flags.RejectValue("setup", "a setup listed in --help");
  }
  const bool ps = job.setup.arch == ArchType::kPs;
  // A PS hop names its worker and shard in 16 bits; a ring counts its GPUs
  // in an int.
  const int64_t max_machines = ps ? int64_t{UINT16_MAX} + 1 : kMaxCount / job.gpus_per_machine;
  const int64_t machines = flags.GetInt("machines", 4);
  if (machines < 1 || machines > max_machines) {
    flags.RejectValue("machines", ps ? "a whole number in [1, 65536] on a PS setup"
                                     : "a whole number >= 1 that fits the GPU count");
  }
  job.num_machines = static_cast<int>(machines);
  job.bandwidth = Bandwidth::Gbps(flags.GetGbps("gbps", 100));
  const int64_t iters = flags.GetInt("iters", 5);
  if (iters < 1 || iters > kMaxCount) {
    flags.RejectValue("iters", "a whole number >= 1");
  }
  job.measure_iters = static_cast<int>(iters);
  job.ps_async = flags.GetBool("async", false);
  if (job.ps_async && !ps) {
    flags.RejectValue("async", "a PS setup");
  }

  const std::string mode = flags.GetString("mode", "bytescheduler");
  if (mode == "baseline") {
    job.mode = SchedMode::kVanilla;
  } else if (mode == "p3") {
    job.mode = SchedMode::kP3;
  } else if (mode == "bytescheduler") {
    job.mode = SchedMode::kByteScheduler;
    const TunedParams tuned =
        DefaultTunedParams(job.model, job.setup.arch, job.setup.transport, job.bandwidth);
    // 0 KiB means no partitioning; the credit must admit something.
    const int64_t partition_kb = flags.GetInt("partition-kb", tuned.partition_bytes / 1024);
    if (partition_kb < 0 || partition_kb > kMaxKb) {
      flags.RejectValue("partition-kb", "a whole number >= 0");
    }
    const int64_t credit_kb = flags.GetInt("credit-kb", tuned.credit_bytes / 1024);
    if (credit_kb < 1 || credit_kb > kMaxKb) {
      flags.RejectValue("credit-kb", "a whole number >= 1");
    }
    job.partition_bytes = KiB(partition_kb);
    job.credit_bytes = KiB(credit_kb);
  } else {
    flags.RejectValue("mode", "baseline, bytescheduler or p3");
  }
  for (const char* knob : {"partition-kb", "credit-kb"}) {
    if (job.mode != SchedMode::kByteScheduler && flags.Has(knob)) {
      flags.RejectValue(knob, "--mode bytescheduler");
    }
  }

  // Of the obs flags only --trace passes CheckNames above.
  ObsArtifacts artifacts(ParseObsFlags(flags));
  artifacts.Attach(&job);
  const JobResult result = RunTrainingJob(job);
  std::printf("model           : %s (%s params)\n", job.model.name.c_str(),
              FormatBytes(job.model.TotalParamBytes()).c_str());
  std::printf("setup           : %s, %d machines (%d GPUs), %.0f Gbps\n",
              job.setup.name.c_str(), job.num_machines, job.total_gpus(),
              job.bandwidth.ToGbps());
  std::printf("scheduler       : %s", ToString(job.mode));
  if (job.mode == SchedMode::kByteScheduler) {
    std::printf(" (partition %s, credit %s)", FormatBytes(job.partition_bytes).c_str(),
                FormatBytes(job.credit_bytes).c_str());
  }
  std::printf("\n");
  std::printf("iteration time  : %s\n", result.avg_iter_time.ToString().c_str());
  const double linear = LinearScalingSpeed(job.model, job.total_gpus());
  std::printf("training speed  : %.1f %s/sec (%.1f%% of linear scaling)\n",
              result.samples_per_sec, job.model.sample_unit.c_str(),
              100.0 * result.samples_per_sec / linear);
  if (job.setup.arch == ArchType::kPs) {
    std::printf("shard imbalance : %.2fx\n", result.shard_load_imbalance);
  }
  std::printf("simulator events: %llu\n", static_cast<unsigned long long>(result.sim_events));

  return artifacts.Write() ? 0 : 1;
}
