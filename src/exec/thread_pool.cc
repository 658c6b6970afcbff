#include "src/exec/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace bsched {
namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

uint64_t PoolStats::total_tasks() const {
  uint64_t total = 0;
  for (const PoolWorkerStats& w : workers) {
    total += w.tasks;
  }
  return total;
}

double PoolStats::total_idle_sec() const {
  double total = 0.0;
  for (const PoolWorkerStats& w : workers) {
    total += w.idle_sec;
  }
  return total;
}

RunningStats PoolStats::merged_task_sec() const {
  RunningStats merged;
  for (const PoolWorkerStats& w : workers) {
    merged.Merge(w.task_sec);
  }
  return merged;
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  stats_.resize(n);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return running_ == 0 && tasks_.empty(); });
}

PoolStats ThreadPool::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats snapshot;
  snapshot.workers = stats_;
  return snapshot;
}

void ThreadPool::WorkerLoop(int index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto wait_start = std::chrono::steady_clock::now();
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      stats_[index].idle_sec += SecondsBetween(wait_start, std::chrono::steady_clock::now());
      if (tasks_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++running_;
    }
    const auto task_start = std::chrono::steady_clock::now();
    task();
    const double elapsed = SecondsBetween(task_start, std::chrono::steady_clock::now());
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_[index].tasks;
      stats_[index].task_sec.Add(elapsed);
      if (--running_ == 0 && tasks_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace bsched
