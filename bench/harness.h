// Shared helpers for the figure-regeneration benchmarks: each bench binary
// prints the rows/series of one table or figure from the paper's evaluation.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/table.h"
#include "src/model/profile.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {

class AutoTuner;

namespace bench {

// Default cluster scales of Figures 10-12.
inline const std::vector<int> kGpuCounts = {8, 16, 32, 64};
inline constexpr int kGpusPerMachine = 8;

// The five setups of Figures 10-12, in paper order.
std::vector<Setup> PaperSetups();

JobConfig MakeJob(const ModelProfile& model, const Setup& setup, int num_machines,
                  Bandwidth bandwidth);

// Applies a scheduling mode; for ByteScheduler, installs the heuristic tuned
// parameters for the job's architecture/transport/bandwidth.
JobConfig WithMode(JobConfig job, SchedMode mode);

double RunSpeed(const JobConfig& job);

// One (setup, GPU count) cell of a model-scaling figure.
struct ScalingCell {
  int gpus = 0;
  double baseline = 0.0;
  double sched = 0.0;
  double linear = 0.0;
  bool has_p3 = false;
  double p3 = 0.0;
};

// One pane (setup) of a model-scaling figure, cells in kGpuCounts order.
struct ScalingPane {
  std::string setup;
  std::vector<ScalingCell> cells;
};

// Computes the Figure 10/11/12 grid: every (setup, GPU count) cell across
// PaperSetups(). Cells are independent simulations; jobs > 1 evaluates them
// concurrently with bit-identical output (0 = DefaultJobs(), i.e. the
// --jobs flag or the hardware concurrency).
std::vector<ScalingPane> ComputeScalingGrid(const ModelProfile& model, bool include_p3,
                                            int jobs = 0);

// Prints one model-scaling figure (the Figure 10/11/12 family): per setup, a
// speed table over GPU counts for baseline / ByteScheduler / linear scaling
// (and P3 in the MXNet PS TCP pane when requested), plus the speed-up range
// the paper quotes in each pane's caption.
void PrintScalingFigure(const std::string& title, const ModelProfile& model, bool include_p3);

std::string GainPercent(double sched, double baseline);

// Profiles every (partition, credit) point through the const
// AutoTuner::EvaluateConfigured, concurrently on ParallelFor (0 = the --jobs
// worker count), and returns the speeds in input order: bit-identical at any
// worker count.
std::vector<double> EvaluateLattice(const AutoTuner& tuner, const std::vector<TunedParams>& points,
                                    int jobs = 0);

// Parses the common bench flags (--jobs N, default hardware concurrency) and
// installs the result as the process-wide sweep worker count. Returns the
// effective jobs value. `extra` names the binary's own flags. A malformed
// token (a single dash such as "-jobs", or a bare "--"), a --name outside
// --jobs and the extra names, or a --jobs value that is not a whole positive
// number prints an error to stderr and exits with status 2 instead of
// running the defaults.
int InitBenchJobs(int argc, const char* const* argv,
                  std::initializer_list<std::string_view> extra = {});

// InitBenchJobs for the binaries that write observability artifacts (fig04,
// fig10-12, fig13, fig14): also accepts the shared --trace / --metrics /
// --timeseries / --sample-every / --obs flags (src/common/flags.h) consumed
// by MaybeWriteObsArtifacts.
void InitObsBenchJobs(int argc, const char* const* argv);

// When InitObsBenchJobs saw an obs flag: reruns `job` (forced to
// ByteScheduler mode, serially — the trace sink is single-threaded) with an
// ObsArtifacts owner attached and writes the requested files. Exits 1 when
// one cannot be written. No-op otherwise. PrintScalingFigure calls this with
// its first (setup, GPU count) cell.
void MaybeWriteObsArtifacts(const JobConfig& job);

}  // namespace bench
}  // namespace bsched

#endif  // BENCH_HARNESS_H_
