// ObsArtifacts: the one owner of a run's observability artifacts. Built from
// the shared --trace / --metrics / --timeseries / --sample-every / --obs
// flags, it holds the sinks they ask for, attaches them to exactly one job
// and writes each requested file after the run:
//
//   ObsArtifacts artifacts(ParseObsFlags(flags));
//   artifacts.Attach(&job);
//   RunTrainingJob(job);
//   if (!artifacts.Write()) return 1;
#ifndef SRC_RUNTIME_OBS_ARTIFACTS_H_
#define SRC_RUNTIME_OBS_ARTIFACTS_H_

#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/common/trace.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/training_job.h"

namespace bsched {

class ObsArtifacts {
 public:
  explicit ObsArtifacts(const ObsFlags& flags);

  // Points `job`'s trace/metrics/timeseries at the requested sinks and the
  // rest at null. A time series samples the registry's handles, so it
  // attaches the registry too. A second call CHECK-fails.
  void Attach(JobConfig* job);

  // Writes each requested file and prints one stdout line per file. On a
  // file that cannot be written, prints "cannot write <path>" to stderr and
  // returns false; the caller then exits 1.
  bool Write() const;

 private:
  ObsFlags flags_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
  std::optional<TimeSeriesRecorder> timeseries_;
  bool attached_ = false;
  std::string job_name_;  // "<model> on <setup>" of the attached job
};

}  // namespace bsched

#endif  // SRC_RUNTIME_OBS_ARTIFACTS_H_
