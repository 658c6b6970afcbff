#include "src/runtime/obs_artifacts.h"

#include <cstdio>
#include <fstream>

#include "src/common/check.h"

namespace bsched {
namespace {

// Writes one artifact through `write` and prints "<label> : <path><detail>";
// an empty (unrequested) path writes nothing. False, after naming the path
// on stderr, when the file cannot be written.
template <typename WriteFn>
bool WriteArtifact(const char* label, const std::string& path, const std::string& detail,
                   WriteFn write) {
  if (path.empty()) {
    return true;
  }
  std::ofstream out(path);
  if (out) {
    write(out);
    out.close();
  }
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("%-10s : %s%s\n", label, path.c_str(), detail.c_str());
  return true;
}

}  // namespace

ObsArtifacts::ObsArtifacts(const ObsFlags& flags) : flags_(flags) {
  if (!flags_.timeseries_path.empty()) {
    timeseries_.emplace(&metrics_, SimTime::Micros(flags_.sample_every_us));
  }
}

void ObsArtifacts::Attach(JobConfig* job) {
  BSCHED_CHECK(!attached_ && "the observability sinks attach to exactly one job");
  attached_ = true;
  job_name_ = job->model.name + " on " + job->setup.name;
  job->trace = flags_.trace_path.empty() ? nullptr : &trace_;
  job->metrics = flags_.metrics_path.empty() && !timeseries_ ? nullptr : &metrics_;
  job->timeseries = timeseries_ ? &*timeseries_ : nullptr;
}

bool ObsArtifacts::Write() const {
  const uint64_t ticks = timeseries_ ? timeseries_->total_ticks() : 0;
  return WriteArtifact("trace", flags_.trace_path,
                       " (" + std::to_string(trace_.num_events()) + " events, " + job_name_ + ")",
                       [&](std::ostream& os) { trace_.WriteChromeTrace(os); }) &&
         WriteArtifact("metrics", flags_.metrics_path, "",
                       [&](std::ostream& os) { metrics_.Snapshot().WriteJson(os); }) &&
         WriteArtifact("timeseries", flags_.timeseries_path,
                       " (" + std::to_string(ticks) + " ticks @ " +
                           std::to_string(flags_.sample_every_us) + "us)",
                       [&](std::ostream& os) { timeseries_->WriteCsv(os); });
}

}  // namespace bsched
