#include "src/exec/sweep_runner.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace bsched {
namespace {

std::atomic<int> g_default_jobs{0};

int HardwareJobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

}  // namespace

void SetDefaultJobs(int jobs) { g_default_jobs.store(jobs, std::memory_order_relaxed); }

int DefaultJobs() {
  const int configured = g_default_jobs.load(std::memory_order_relaxed);
  return configured > 0 ? configured : HardwareJobs();
}

bool SetDefaultJobsFromFlags(const Flags& flags, const char* program) {
  if (!flags.Has("jobs")) {
    return true;
  }
  const std::string value = flags.GetString("jobs", "");
  const bool digits_only =
      !value.empty() && value.find_first_not_of("0123456789") == std::string::npos;
  // strtoll saturates on overflow, so a huge count fails the range check.
  const long long jobs = digits_only ? std::strtoll(value.c_str(), nullptr, 10) : 0;
  if (jobs <= 0 || jobs > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "%s: --jobs needs a whole positive number of threads, got '%s'\n",
                 program, value.c_str());
    return false;
  }
  SetDefaultJobs(static_cast<int>(jobs));
  return true;
}

}  // namespace bsched
