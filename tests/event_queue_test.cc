// Oracle tests for the Simulator's event queue (a 4-ary min-heap of
// (when, seq|slot) entries): every test drives a Simulator and the sorted
// reference model of tests/sim_reference.h with the same operations and
// compares fired order, clock, live and queued counts, lazy skips and
// compactions — under randomized interleavings of near, far and very far
// timers, same-timestamp ties, mass cancellation, a heap ten levels deep, and
// Run(deadline) with cancellations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"
#include "tests/sim_reference.h"

namespace bsched {
namespace {

TEST(EventQueueDifferentialTest, RandomizedInterleavedPushPop) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed * 1000003 + 17);
    SimLockstep s;
    int next_id = 0;
    for (int op = 0; op < 20000; ++op) {
      if (rng.NextDouble() < 0.6 || s.sim().Empty()) {
        // Near (ns..us), far (ms), and very far (minutes+) timers.
        int64_t delay;
        const double r = rng.NextDouble();
        if (r < 0.70) {
          delay = rng.UniformInt(0, 4000);
        } else if (r < 0.90) {
          delay = rng.UniformInt(0, 50'000'000);
        } else {
          delay = rng.UniformInt(int64_t{1} << 40, int64_t{1} << 42);
        }
        s.Schedule(delay, next_id++);
      } else {
        s.Step();
      }
      if (op % 1000 == 0) {
        s.ExpectSameState();
      }
    }
    s.Run();
    s.ExpectSame();
  }
}

TEST(EventQueueDifferentialTest, SameTimestampTiesPopInSeqOrder) {
  SimLockstep s;
  for (int i = 0; i < 500; ++i) {
    // Five distinct timestamps, heavily tied; some events chain a follow-up
    // that lands on a later tie group.
    s.Schedule((i % 5) * 100, i, i % 7 == 0 ? 100 : -1);
  }
  s.Run();
  s.ExpectSame();
  // Within each timestamp, events fire in scheduling order.
  const auto& fired = s.ref().fired();
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].second, fired[i].second);
  }
  std::vector<int> at_zero;
  for (const auto& [id, when] : fired) {
    if (when == 0) {
      at_zero.push_back(id);
    }
  }
  EXPECT_TRUE(std::is_sorted(at_zero.begin(), at_zero.end()));
  EXPECT_EQ(at_zero.size(), 100u);
}

TEST(EventQueueDifferentialTest, CompactDropsExactlyDeadEntries) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed + 99);
    SimLockstep s;
    for (int i = 0; i < 2000; ++i) {
      s.Schedule(rng.UniformInt(0, int64_t{1} << 36), i);
    }
    std::vector<size_t> order(s.handles());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)))]);
    }
    uint64_t compactions = 0;
    for (size_t i = 0; i < order.size() * 9 / 10; ++i) {
      s.Cancel(order[i]);
      s.ExpectSameState();
      if (s.sim().compactions() > compactions) {
        // A compaction pass leaves exactly the live entries.
        compactions = s.sim().compactions();
        EXPECT_EQ(s.sim().QueuedEvents(), s.sim().PendingEvents());
      }
    }
    EXPECT_GE(compactions, 1u);
    EXPECT_EQ(s.Run(), 200u);
    s.ExpectSame();
  }
}

// A heap deeper than nine full 4-ary levels (more than 87,381 entries):
// pops while its last family holds each of 1..4 children, then cancellations
// that trigger a compaction and continue past it, so stale entries are both
// compacted away and lazily skipped, with pops and deadline runs in between.
TEST(EventQueueDifferentialTest, DeepHeapCancellationsCrossCompaction) {
  constexpr size_t kNineFullLevels = (1 + 4 + 16 + 64 + 256 + 1024 + 4096 + 16384 + 65536);
  Rng rng(4242);
  SimLockstep s;
  for (int i = 0; i < 100'003; ++i) {
    // Coarse times give many same-timestamp ties; some events chain.
    s.Schedule(rng.UniformInt(0, 1'000'000) * 64, i, i % 11 == 0 ? 64 : -1);
  }
  ASSERT_GT(s.sim().QueuedEvents(), kNineFullLevels);
  std::set<size_t> last_family_sizes;
  for (int i = 0; last_family_sizes.size() < 4; ++i) {
    ASSERT_LT(i, 64);
    last_family_sizes.insert((s.sim().QueuedEvents() - 1) % 4);
    s.Step();
    s.ExpectSameState();
  }
  std::vector<size_t> order(s.handles());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  size_t cancels_after_compaction = 0;
  for (size_t i = 0; i < order.size() * 7 / 10; ++i) {
    s.Cancel(order[i]);
    if (s.sim().compactions() > 0) {
      ++cancels_after_compaction;
    }
    if (i % 997 == 0) {
      s.Step();
      s.ExpectSameState();
    }
  }
  s.ExpectSameState();
  EXPECT_EQ(s.sim().compactions(), 1u);
  EXPECT_GT(cancels_after_compaction, 10'000u);
  s.Run(s.sim().Now().nanos() + 16'000'000);
  s.ExpectSameState();
  s.Run();
  s.ExpectSame();
  EXPECT_GT(s.sim().skipped_cancelled(), 10'000u);
}

// Timestamps straddling power-of-two boundaries from 2^16 ns to past 2^41 ns
// fire in time order.
TEST(EventQueueTest, FarApartTimestampsFireInOrder) {
  Simulator sim;
  std::vector<int64_t> whens = {(int64_t{1} << 16) + 10};
  for (int64_t t = 0; t < (int64_t{1} << 16); t += 997) {
    whens.push_back(t);
  }
  whens.push_back((int64_t{1} << 33) + 5);
  whens.push_back((int64_t{1} << 41) + 123);
  std::vector<int64_t> fired;
  for (int64_t w : whens) {
    sim.ScheduleAt(SimTime::Nanos(w), [&sim, &fired] { fired.push_back(sim.Now().nanos()); });
  }
  sim.Run();
  std::sort(whens.begin(), whens.end());
  EXPECT_EQ(fired, whens);
}

// Randomized schedule / cancel / step / run-to-deadline workloads with
// chained follow-ups: the Simulator's 4-ary heap and the reference's fully
// sorted map produce the same whole trajectory and accounting.
TEST(SimulatorDifferentialTest, HeapMatchesSortedReference) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    SimLockstep s;
    int next_id = 0;
    for (int op = 0; op < 4000; ++op) {
      const double r = rng.NextDouble();
      if (r < 0.45) {
        int64_t delay;
        const double d = rng.NextDouble();
        if (d < 0.3) {
          delay = 100;  // deliberate same-timestamp ties
        } else if (d < 0.8) {
          delay = rng.UniformInt(0, 100'000);
        } else if (d < 0.95) {
          delay = rng.UniformInt(0, 40'000'000);
        } else {
          delay = rng.UniformInt(int64_t{1} << 40, int64_t{1} << 42);
        }
        s.Schedule(delay, next_id++, rng.NextDouble() < 0.25 ? 50 : -1);
      } else if (r < 0.75 && s.handles() > 0) {
        s.Cancel(static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(s.handles()) - 1)));
      } else if (r < 0.9) {
        s.Step();
      } else {
        s.Run(s.sim().Now().nanos() + rng.UniformInt(0, 200'000));
      }
      s.ExpectSameState();
    }
    s.Run();
    s.ExpectSame();
    EXPECT_TRUE(s.sim().Empty());
  }
}

TEST(SimulatorDifferentialTest, CancellationSemanticsMatch) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.Schedule(SimTime::Micros(10), [&] { ++fired; });
  sim.Schedule(SimTime::Micros(20), [&] { ++fired; });
  h.Cancel();
  h.Cancel();  // idempotent
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_EQ(sim.QueuedEvents(), 2u);  // cancelled entry still queued (lazy)
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.skipped_cancelled(), 1u);
}

}  // namespace
}  // namespace bsched
