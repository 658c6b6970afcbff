// Heap-allocation gate for the simulator's hot path. This binary replaces the
// global operator new/delete with counting versions (which is why it is its
// own executable) and measures heap allocations per fired event in a job's
// steady state: the difference between the same job run for 7 and for 3
// measured iterations, so construction, warm-up and teardown cancel out.
// The bounds are the counts of the pooled implementation plus a little
// headroom; a change that brings back per-event allocations (a callback
// capture grown past std::function's 16-byte inline buffer, a map in a
// backend, a deque in place of a link's message ring) trips them. The
// co-scheduled run also gates peak live heap bytes: its second job's tensor
// ids start at 1 << 20, so storage indexed by raw tensor id shows up as
// megabytes. So do five points of the tuning lattice's small-partition
// row, where state that grows with partition count (queued partitions,
// queued link messages, PS hops) dominates: its two corners, and the
// Transformer's 148 MiB credit, where pull bursts peak. And so does Figure
// 4's heaviest cell, where pulls, which take no credit, fill the shard
// egress and worker downlink queues. A queued link message that grows back
// from its 16 bytes (say, by carrying its callbacks again), a PS hop or
// Core record that grows past its 64-byte cache line, or a push backlog
// that holds per-partition state again (a Core record, hop or link entry
// per waiting partition instead of one per run) trips these peak
// bounds. The counting operators also replace the std::align_val_t
// overloads: the alignas(64) pool chunks are allocated through them.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/model/zoo.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"
#include "src/tuning/auto_tuner.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

// `align` is 0 for the plain overloads and the requested alignment for the
// std::align_val_t ones, which over-aligned types (the alignas(64) pool
// records) allocate through.
void* CountedAlloc(size_t size, size_t align = 0) {
  void* p = nullptr;
  if (align == 0) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, std::max(align, sizeof(void*)), size == 0 ? 1 : size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live = g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
    }
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) {
    return;
  }
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void* operator new(size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { CountedFree(p); }

namespace bsched {
namespace {

// Steady-state allocations per fired event, measured on this code: 0.0158
// (PS), 1.196 (ring: a sub-millisecond job whose few events are outnumbered
// by the per-iteration engine ops it builds), 0.0501 (co-scheduled). Before
// the PS/Core/link records were pooled the same runs measured 2.28, 2.43
// and 2.32.
constexpr double kPsBound = 0.02;
constexpr double kRingBound = 1.25;
constexpr double kCoscheduleBound = 0.06;

// Peak live heap bytes, bounded ~10% above this code's measurement. Before
// the Core queued runs of partitions, built a partition's record only at the
// head of the queue and stopped storing one size per partition, the same
// runs peaked at: co-scheduled 1.57 MiB; VGG16 64 KiB/64 KiB 8.60 MiB,
// 64 KiB/512 MiB 17.47 MiB; Transformer 64 KiB/64 KiB 12.46 MiB,
// 64 KiB/512 MiB 28.33 MiB. Before a queued link message shrank from three
// std::functions (112 bytes) to a 24-byte token record, the large-credit
// corners peaked at 13.65 MiB (VGG16) and 25.51 MiB (Transformer), and
// Figure 4's heaviest cell at 20.78 MiB. Before the event heap's entries
// shrank from 32 to 16 bytes, the runs below peaked at 1.01, 2.78, 10.91,
// 2.99, 18.43 and 15.64 MiB; no peak fell by more than 5%, so the bounds
// stayed. Before a queued link message shrank from 24 to 16 bytes they
// peaked at 1.00, 2.77, 10.67, 2.98, 17.85 and 14.93 MiB; again no peak fell
// by more than 5%. Before a PS hop shrank from 136 to 64 bytes and a Core
// record from 104 to 64 bytes (one cache line each), they peaked at 0.99,
// 2.77, 10.42, 2.98, 17.18 and 14.43 MiB, under bounds of 1.19, 3.04, 12.0,
// 3.27, 20.3 and 17.2 MiB. Before the Core released a partition's record at
// admission and a task's push partitions waited on the uplink as one entry
// without a hop, and before the PS round state was sized only with faults,
// they peaked at 0.57 (the PS job), 0.74, 2.32, 6.52, 2.32, 11.36 and 10.10
// MiB, under bounds of 0.97, 2.70, 7.6, 2.94, 13.5 and 12.6 MiB; the
// Transformer 64 KiB / 148 MiB point, then ungated, at 8.24 MiB.
constexpr int64_t MiBytes(double mib) { return static_cast<int64_t>(mib * (1 << 20)); }
constexpr int64_t kCoschedulePeakBytes = MiBytes(0.97);                // 0.71 MiB
constexpr int64_t kVgg16SmallCreditPeakBytes = MiBytes(0.85);          // 0.77 MiB
constexpr int64_t kVgg16LargeCreditPeakBytes = MiBytes(0.86);          // 0.77 MiB
constexpr int64_t kTransformerSmallCreditPeakBytes = MiBytes(0.87);    // 0.79 MiB
constexpr int64_t kTransformerPullBurstPeakBytes = MiBytes(5.1);       // 4.60 MiB
constexpr int64_t kTransformerLargeCreditPeakBytes = MiBytes(4.5);     // 4.09 MiB
constexpr int64_t kFig04HeaviestCellPeakBytes = MiBytes(8.6);          // 7.81 MiB

struct Sample {
  uint64_t allocs = 0;
  uint64_t events = 0;
  int64_t peak_bytes = 0;  // peak live heap bytes above the starting point
};

// Runs `run` (which returns the simulated events it fired) with counting on.
template <typename F>
Sample Count(F run) {
  g_allocs = 0;
  g_live_bytes = 0;
  g_peak_bytes = 0;
  g_counting = true;
  const uint64_t events = run();
  g_counting = false;
  return Sample{g_allocs.load(), events, g_peak_bytes.load()};
}

// Allocations per fired event between a 3- and a 7-iteration run.
template <typename F>
double SteadyAllocsPerEvent(F run_iters, const char* name) {
  const Sample short_run = Count([&] { return run_iters(3); });
  const Sample long_run = Count([&] { return run_iters(7); });
  const double per_event = static_cast<double>(long_run.allocs - short_run.allocs) /
                           static_cast<double>(long_run.events - short_run.events);
  std::printf("%s: %llu allocs / %llu events (3 iters), %llu / %llu (7 iters): "
              "%.4f allocs per steady-state event, peak %.2f MiB live\n",
              name, static_cast<unsigned long long>(short_run.allocs),
              static_cast<unsigned long long>(short_run.events),
              static_cast<unsigned long long>(long_run.allocs),
              static_cast<unsigned long long>(long_run.events), per_event,
              static_cast<double>(short_run.peak_bytes) / (1 << 20));
  return per_event;
}

JobConfig Job(const ModelProfile& model, const Setup& setup, Bandwidth bandwidth, int iters) {
  JobConfig job;
  job.model = model;
  job.setup = setup;
  job.num_machines = 4;
  job.gpus_per_machine = 8;
  job.bandwidth = bandwidth;
  job.mode = SchedMode::kByteScheduler;
  const TunedParams tuned =
      DefaultTunedParams(model, setup.arch, setup.transport, bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  job.warmup_iters = 1;
  job.measure_iters = iters;
  return job;
}

// One point of the tuning lattice, built as AutoTuner::EvaluateConfigured
// builds it: 1 warm-up and 3 measured iterations, credit floored at one
// partition.
JobConfig LatticeJob(const ModelProfile& model, Bytes partition, Bytes credit) {
  JobConfig job = Job(model, Setup::MxnetPsRdma(), Bandwidth::Gbps(100), 3);
  job.partition_bytes = partition;
  job.credit_bytes = std::max(credit, partition);
  return job;
}

// Prints a job's peak live bytes next to its in-flight high-water marks.
void PrintPeak(const char* name, const Sample& sample, const JobResult& result) {
  const JobResult::Peaks& p = result.peaks;
  std::printf("%s: peak %.2f MiB live (%llu Core records, %llu PS hops, %llu link entries, "
              "%llu events)\n",
              name, static_cast<double>(sample.peak_bytes) / (1 << 20),
              static_cast<unsigned long long>(p.core_records),
              static_cast<unsigned long long>(p.ps_hops),
              static_cast<unsigned long long>(p.link_entries),
              static_cast<unsigned long long>(p.sim_events));
}

// The lattice's credit at unit coordinate j / 7, as Figure 14's 8x8 lattice
// places it.
Bytes LatticeCredit(int j) {
  return AutoTuner(JobConfig(), AutoTunerOptions()).CreditFromUnit(j / 7.0);
}

int64_t LatticePeakBytes(const ModelProfile& model, Bytes credit, const char* name) {
  JobResult result;
  const Sample sample = Count([&] {
    result = RunTrainingJob(LatticeJob(model, KiB(64), credit));
    return result.sim_events;
  });
  PrintPeak(name, sample, result);
  return sample.peak_bytes;
}

// Figure 4's heaviest cell, built as fig04_partition_credit's SpeedWith
// builds it: VGG16, MXNet PS TCP, 4x8 GPUs at 1 Gbps, FIFO policy, 80 KiB
// partitions, 640 KiB credit, 2 warm-up and 3 measured iterations.
JobConfig Fig04HeaviestCellJob() {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsTcp();
  job.num_machines = 4;
  job.gpus_per_machine = 8;
  job.bandwidth = Bandwidth::Gbps(1);
  job.mode = SchedMode::kByteScheduler;
  SchedulerConfig cfg;
  cfg.policy = SchedulerConfig::Policy::kFifo;
  cfg.partition_bytes = KiB(80);
  cfg.credit_bytes = KiB(640);
  job.sched_override = cfg;
  job.warmup_iters = 2;
  job.measure_iters = 3;
  return job;
}

// The reference PS job: VGG16, MXNet PS TCP, 4x8 GPUs, 10 Gbps, ByteScheduler.
TEST(AllocTest, PsJobSteadyStateAllocsPerEvent) {
  const double per_event = SteadyAllocsPerEvent(
      [](int iters) {
        return RunTrainingJob(Job(Vgg16(), Setup::MxnetPsTcp(), Bandwidth::Gbps(10), iters))
            .sim_events;
      },
      "ps job");
  EXPECT_LE(per_event, kPsBound);
}

TEST(AllocTest, RingJobSteadyStateAllocsPerEvent) {
  const double per_event = SteadyAllocsPerEvent(
      [](int iters) {
        return RunTrainingJob(
                   Job(Vgg16(), Setup::MxnetNcclRdma(), Bandwidth::Gbps(100), iters))
            .sim_events;
      },
      "ring job");
  EXPECT_LE(per_event, kRingBound);
}

TEST(AllocTest, CoscheduledJobsStayDenseAndAllocationLight) {
  auto run = [](int iters) {
    const std::vector<JobConfig> jobs = {
        Job(Vgg16(), Setup::MxnetPsRdma(), Bandwidth::Gbps(100), iters),
        Job(Transformer(), Setup::MxnetPsRdma(), Bandwidth::Gbps(100), iters)};
    // Both results report the shared simulator's event count.
    return RunCoscheduledPsJobs(jobs, CoschedulePolicy::kCoordinated).front().sim_events;
  };
  EXPECT_LE(SteadyAllocsPerEvent(run, "coscheduled jobs"), kCoscheduleBound);
  const Sample sample = Count([&] { return run(3); });
  EXPECT_LE(sample.peak_bytes, kCoschedulePeakBytes);
}

// The lattice's small-partition corner (64 KiB partitions) at its smallest
// and largest credit.
TEST(AllocTest, LatticeCornerVgg16SmallCreditPeak) {
  EXPECT_LE(LatticePeakBytes(Vgg16(), KiB(64), "vgg16 64K/64K"), kVgg16SmallCreditPeakBytes);
}

TEST(AllocTest, LatticeCornerVgg16LargeCreditPeak) {
  EXPECT_LE(LatticePeakBytes(Vgg16(), MiB(512), "vgg16 64K/512M"), kVgg16LargeCreditPeakBytes);
}

TEST(AllocTest, LatticeCornerTransformerSmallCreditPeak) {
  EXPECT_LE(LatticePeakBytes(Transformer(), KiB(64), "transformer 64K/64K"),
            kTransformerSmallCreditPeakBytes);
}

// The pull-burst peak of the small-partition row: most partitions
// aggregate within a short window, so their pulls wait in the shard egress
// queues at once.
TEST(AllocTest, LatticeTransformerPullBurstPeak) {
  EXPECT_LE(LatticePeakBytes(Transformer(), LatticeCredit(6), "transformer 64K/148M"),
            kTransformerPullBurstPeakBytes);
}

TEST(AllocTest, LatticeCornerTransformerLargeCreditPeak) {
  EXPECT_LE(LatticePeakBytes(Transformer(), MiB(512), "transformer 64K/512M"),
            kTransformerLargeCreditPeakBytes);
}

TEST(AllocTest, Fig04HeaviestCellPeak) {
  JobResult result;
  const Sample sample = Count([&] {
    result = RunTrainingJob(Fig04HeaviestCellJob());
    return result.sim_events;
  });
  PrintPeak("fig04 80K/640K 1Gbps", sample, result);
  EXPECT_LE(sample.peak_bytes, kFig04HeaviestCellPeakBytes);
}

}  // namespace
}  // namespace bsched
