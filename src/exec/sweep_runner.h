// Parallel execution of independent simulations. Every experiment grid in
// this repo (auto-tuner trial batches, the Figure 10-14 setup x scale x mode
// sweeps, the chaos seed x plan grid) runs complete Simulator instances that
// share no state, so they can evaluate concurrently as long as results are
// consumed in input order — which keeps every sweep bit-identical to its
// serial execution regardless of the worker count.
#ifndef SRC_EXEC_SWEEP_RUNNER_H_
#define SRC_EXEC_SWEEP_RUNNER_H_

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/exec/thread_pool.h"

namespace bsched {

class SweepRunner {
 public:
  // `jobs` worker threads; 0 picks the process-wide default (see
  // SetDefaultJobs), which itself defaults to the hardware concurrency.
  // jobs == 1 runs everything inline on the calling thread.
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  // Runs fn(i) for every i in [0, n) and returns the results in input order.
  // With jobs > 1 the closures execute concurrently on the pool; fn must not
  // touch shared mutable state. If any closure throws, the exception of the
  // lowest-index failure is rethrown after every launched closure finished
  // (with jobs == 1, items after the first failure never start).
  template <typename Fn>
  auto ParallelFor(size_t n, Fn&& fn) {
    using R = std::invoke_result_t<Fn&, size_t>;
    if constexpr (std::is_void_v<R>) {
      RunAll(n, [&fn](size_t i) { fn(i); });
    } else {
      std::vector<std::optional<R>> slots(n);
      RunAll(n, [&fn, &slots](size_t i) { slots[i].emplace(fn(i)); });
      std::vector<R> results;
      results.reserve(n);
      for (std::optional<R>& slot : slots) {
        results.push_back(std::move(*slot));
      }
      return results;
    }
  }

  // Pool execution stats (per-worker task counts, idle time, task
  // durations). Empty when everything ran inline (jobs == 1 or no parallel
  // RunAll happened yet).
  PoolStats Stats() const {
    if (pool_ == nullptr) {
      return PoolStats{};
    }
    pool_->WaitIdle();
    return pool_->Stats();
  }

  // Process-wide default worker count used when a SweepRunner (or one of the
  // sweep entry points taking a `jobs` parameter) is given jobs == 0.
  // Installed by the --jobs flag of the bench/example binaries.
  // 0 restores the built-in default (hardware concurrency).
  static void SetDefaultJobs(int jobs);
  static int DefaultJobs();

 private:
  // Dispatches fn(i) over the pool (or inline when jobs_ == 1) and blocks
  // until all n items finished; rethrows the lowest-index exception.
  void RunAll(size_t n, const std::function<void(size_t)>& fn);

  int jobs_;
  std::unique_ptr<ThreadPool> pool_;  // created on first parallel RunAll
};

}  // namespace bsched

#endif  // SRC_EXEC_SWEEP_RUNNER_H_
