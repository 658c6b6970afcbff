// Fixed-size worker pool backing the parallel sweep layer. Tasks are opaque
// closures executed FIFO; completion ordering is the caller's concern (see
// SweepRunner, which collects results by input index).
#ifndef SRC_EXEC_THREAD_POOL_H_
#define SRC_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/stats.h"

namespace bsched {

// Per-worker execution stats (wall-clock, host-side — unrelated to SimTime).
struct PoolWorkerStats {
  uint64_t tasks = 0;
  double idle_sec = 0.0;        // time spent waiting for work
  RunningStats task_sec;        // per-task execution time distribution
};

struct PoolStats {
  std::vector<PoolWorkerStats> workers;

  uint64_t total_tasks() const;
  double total_idle_sec() const;
  // All workers' task-time distributions folded into one accumulator.
  RunningStats merged_task_sec() const;
};

class ThreadPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(int threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  // Blocks until queued tasks drain, then joins the workers.
  ~ThreadPool();

  // Enqueues a task; it runs on some worker thread. Must not be called after
  // destruction has begun.
  void Submit(std::function<void()> task);

  int size() const { return static_cast<int>(workers_.size()); }

  // Snapshot of per-worker task counts, idle time, and task durations.
  // Callable at any time; in-progress tasks are not yet counted.
  PoolStats Stats() const;

  // Blocks until the queue is empty and every started task is counted in
  // Stats(). A task's own completion signal can run before its worker
  // records it, so callers that need exact counts wait here first.
  void WaitIdle();

 private:
  void WorkerLoop(int index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  int running_ = 0;  // tasks taken off the queue and not yet counted
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  // Written by each worker under mu_ (wait exit / task completion).
  std::vector<PoolWorkerStats> stats_;
  std::vector<std::thread> workers_;
};

}  // namespace bsched

#endif  // SRC_EXEC_THREAD_POOL_H_
