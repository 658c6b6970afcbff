#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/common/flags.h"
#include "src/exec/sweep_runner.h"
#include "src/runtime/obs_artifacts.h"
#include "src/tuning/auto_tuner.h"

namespace bsched {
namespace bench {
namespace {

// Artifact paths captured by InitObsBenchJobs for MaybeWriteObsArtifacts.
ObsFlags g_obs_flags;

// Parses --jobs plus the `known` flags; exits 2 on a bad one.
Flags InitFlags(int argc, const char* const* argv, std::vector<std::string_view> known) {
  const Flags flags(argc, argv);
  known.push_back("jobs");
  if (!flags.CheckNames(argv[0], known) || !SetDefaultJobsFromFlags(flags, argv[0])) {
    std::exit(2);
  }
  return flags;
}

}  // namespace

std::vector<Setup> PaperSetups() {
  return {Setup::MxnetPsTcp(), Setup::MxnetPsRdma(), Setup::TensorFlowPsTcp(),
          Setup::MxnetNcclRdma(), Setup::PyTorchNcclTcp()};
}

JobConfig MakeJob(const ModelProfile& model, const Setup& setup, int num_machines,
                  Bandwidth bandwidth) {
  JobConfig job;
  job.model = model;
  job.setup = setup;
  job.num_machines = num_machines;
  job.gpus_per_machine = kGpusPerMachine;
  job.bandwidth = bandwidth;
  job.warmup_iters = 2;
  job.measure_iters = 5;
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

double RunSpeed(const JobConfig& job) { return RunTrainingJob(job).samples_per_sec; }

std::vector<double> EvaluateLattice(const AutoTuner& tuner, const std::vector<TunedParams>& points,
                                    int jobs) {
  return ParallelFor(
      points.size(),
      [&tuner, &points](size_t i) {
        return tuner.EvaluateConfigured(points[i].partition_bytes, points[i].credit_bytes);
      },
      jobs);
}

std::string GainPercent(double sched, double baseline) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (sched / baseline - 1.0));
  return buf;
}

std::vector<ScalingPane> ComputeScalingGrid(const ModelProfile& model, bool include_p3,
                                            int jobs) {
  const std::vector<Setup> setups = PaperSetups();
  const size_t cells_per_pane = kGpuCounts.size();

  // Every (setup, GPU count) cell is an independent set of simulations, so
  // the flattened grid evaluates concurrently; results come back in input
  // order, keeping the printed figure bit-identical to a serial sweep.
  std::vector<ScalingCell> cells = ParallelFor(
      setups.size() * cells_per_pane,
      [&](size_t index) {
        const Setup& setup = setups[index / cells_per_pane];
        const bool p3_pane = include_p3 && setup.name == Setup::MxnetPsTcp().name;
        const int gpus = kGpuCounts[index % cells_per_pane];
        ScalingCell cell;
        cell.gpus = gpus;
        const JobConfig base = MakeJob(model, setup, gpus / kGpusPerMachine, Bandwidth::Gbps(100));
        cell.baseline = RunSpeed(WithMode(base, SchedMode::kVanilla));
        cell.sched = RunSpeed(WithMode(base, SchedMode::kByteScheduler));
        cell.linear = LinearScalingSpeed(model, base.total_gpus());
        if (p3_pane) {
          cell.has_p3 = true;
          cell.p3 = RunSpeed(WithMode(base, SchedMode::kP3));
        }
        return cell;
      },
      jobs);

  std::vector<ScalingPane> panes(setups.size());
  for (size_t s = 0; s < setups.size(); ++s) {
    panes[s].setup = setups[s].name;
    panes[s].cells.assign(cells.begin() + s * cells_per_pane,
                          cells.begin() + (s + 1) * cells_per_pane);
  }
  return panes;
}

void PrintScalingFigure(const std::string& title, const ModelProfile& model, bool include_p3) {
  std::printf("%s\n", title.c_str());
  std::printf("speed unit: %s/sec; per-GPU batch %d; 100 Gbps fabric\n\n", model.sample_unit.c_str(),
              model.batch_per_gpu);
  for (const ScalingPane& pane : ComputeScalingGrid(model, include_p3)) {
    const bool p3_pane = !pane.cells.empty() && pane.cells.front().has_p3;
    std::vector<std::string> header = {"#GPUs", "baseline", "bytescheduler"};
    if (p3_pane) {
      header.push_back("p3");
    }
    header.push_back("linear");
    header.push_back("speedup");
    Table table(std::move(header));
    double min_gain = 1e300;
    double max_gain = -1e300;
    for (const ScalingCell& cell : pane.cells) {
      const double gain = cell.sched / cell.baseline - 1.0;
      min_gain = std::min(min_gain, gain);
      max_gain = std::max(max_gain, gain);
      std::vector<std::string> row = {std::to_string(cell.gpus), Table::Num(cell.baseline, 0),
                                      Table::Num(cell.sched, 0)};
      if (p3_pane) {
        row.push_back(Table::Num(cell.p3, 0));
      }
      row.push_back(Table::Num(cell.linear, 0));
      row.push_back(GainPercent(cell.sched, cell.baseline));
      table.AddRow(std::move(row));
    }
    std::printf("-- %s (speedup %0.0f%%-%0.0f%%) --\n", pane.setup.c_str(), 100 * min_gain,
                100 * max_gain);
    table.RenderAscii(std::cout);
    std::printf("\n");
  }
  MaybeWriteObsArtifacts(
      MakeJob(model, PaperSetups().front(), kGpuCounts.front() / kGpusPerMachine,
              Bandwidth::Gbps(100)));
}

int InitBenchJobs(int argc, const char* const* argv,
                  std::initializer_list<std::string_view> extra) {
  InitFlags(argc, argv, extra);
  return DefaultJobs();
}

void InitObsBenchJobs(int argc, const char* const* argv) {
  g_obs_flags = ParseObsFlags(
      InitFlags(argc, argv, {"trace", "metrics", "timeseries", "sample-every", "obs"}));
}

void MaybeWriteObsArtifacts(const JobConfig& job) {
  if (!g_obs_flags.enabled()) {
    return;
  }
  // One representative ByteScheduler run, executed serially on this thread:
  // the TraceRecorder is not thread-safe, so the figure sweeps above run
  // uninstrumented and this rerun owns all sinks exclusively.
  ObsArtifacts artifacts(g_obs_flags);
  JobConfig run = WithMode(job, SchedMode::kByteScheduler);
  artifacts.Attach(&run);
  RunTrainingJob(run);
  if (!artifacts.Write()) {
    std::exit(1);
  }
}

}  // namespace bench
}  // namespace bsched
