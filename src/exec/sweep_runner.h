// Parallel execution of independent simulations. Every experiment grid in
// this repo (the Figure 10-13 and 15 sweeps, table1's lattice, the chaos
// seed x plan grid) runs complete Simulator instances that share no state,
// so they can evaluate concurrently as long as results are consumed in input
// order — which keeps every sweep bit-identical to its serial execution
// regardless of the worker count.
#ifndef SRC_EXEC_SWEEP_RUNNER_H_
#define SRC_EXEC_SWEEP_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flags.h"

namespace bsched {

// Process-wide worker count used when ParallelFor is given jobs == 0.
// Installed by the --jobs flag of the bench/example binaries. 0 restores the
// built-in default (hardware concurrency).
void SetDefaultJobs(int jobs);
int DefaultJobs();

// Reads --jobs from `flags` and installs it with SetDefaultJobs (absent keeps
// the default). Any value that is not a whole positive integer prints the
// flag and the value to stderr, prefixed with `program`, and returns false;
// the binaries then exit with status 2.
bool SetDefaultJobsFromFlags(const Flags& flags, const char* program);

// Runs fn(i) for every i in [0, n) on `jobs` threads (0 = DefaultJobs()) and
// returns the results in input order. With jobs == 1 or n <= 1 everything
// runs inline and items after the first throw never start. Otherwise
// min(jobs, n) threads each claim the next index from one counter; fn must
// not touch shared mutable state. After every thread joined, the exception
// of the lowest-index failure is rethrown.
template <typename Fn>
auto ParallelFor(size_t n, Fn&& fn, int jobs = 0) {
  using R = std::invoke_result_t<Fn&, size_t>;
  constexpr bool kVoid = std::is_void_v<R>;
  using Slot = std::conditional_t<kVoid, bool, std::optional<R>>;
  std::vector<Slot> slots(kVoid ? 0 : n);
  const auto run = [&fn, &slots](size_t i) {
    if constexpr (kVoid) {
      fn(i);
    } else {
      slots[i].emplace(fn(i));
    }
  };

  const size_t threads = std::min(n, static_cast<size_t>(jobs > 0 ? jobs : DefaultJobs()));
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) {
      run(i);
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const auto work = [&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          run(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    for (size_t t = 0; t < threads; ++t) {
      try {
        workers.emplace_back(work);
      } catch (...) {
        if (workers.empty()) {
          throw;
        }
        break;  // the threads already started claim every index
      }
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    for (const std::exception_ptr& error : errors) {
      if (error != nullptr) {
        std::rethrow_exception(error);
      }
    }
  }

  if constexpr (kVoid) {
    return;
  } else {
    std::vector<R> results;
    results.reserve(n);
    for (std::optional<R>& slot : slots) {
      results.push_back(std::move(*slot));
    }
    return results;
  }
}

}  // namespace bsched

#endif  // SRC_EXEC_SWEEP_RUNNER_H_
