#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "tests/sim_reference.h"

namespace bsched {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now().nanos(), 0);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Micros(30), [&] { order.push_back(3); });
  sim.Schedule(SimTime::Micros(10), [&] { order.push_back(1); });
  sim.Schedule(SimTime::Micros(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Micros(30));
}

TEST(SimulatorTest, EqualTimesFifoTieBreak) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(SimTime::Micros(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<int64_t> fire_times;
  sim.Schedule(SimTime::Micros(1), [&] {
    fire_times.push_back(sim.Now().nanos());
    sim.Schedule(SimTime::Micros(2), [&] { fire_times.push_back(sim.Now().nanos()); });
  });
  sim.Run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[0], 1000);
  EXPECT_EQ(fire_times[1], 3000);
}

TEST(SimulatorTest, RunRespectsDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(SimTime::Micros(1), [&] { ++fired; });
  sim.Schedule(SimTime::Micros(10), [&] { ++fired; });
  sim.Run(SimTime::Micros(5));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Empty());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactDeadlineFires) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(SimTime::Micros(5), [&] { ++fired; });
  sim.Run(SimTime::Micros(5));
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.Schedule(SimTime::Micros(1), [&] { ++fired; });
  h.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, CancelAfterFireIsHarmless) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.Schedule(SimTime::Micros(1), [&] { ++fired; });
  sim.Run();
  h.Cancel();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(SimTime::Micros(1), [&] { ++fired; });
  sim.Schedule(SimTime::Micros(2), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime seen;
  sim.ScheduleAt(SimTime::Millis(7), [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, SimTime::Millis(7));
}

TEST(SimulatorTest, ProcessedEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(SimTime::Micros(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.processed_events(), 5u);
}

TEST(SimulatorTest, DefaultHandleIsInvalidAndCancelIsNoop) {
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.Cancel();  // must not crash
}

TEST(SimulatorTest, CancelledEventNeitherFiresNorCounts) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.Schedule(SimTime::Micros(5), [&] { ++fired; });
  sim.Schedule(SimTime::Micros(10), [&] { ++fired; });
  EXPECT_TRUE(handle.valid());
  handle.Cancel();
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.processed_events(), 1u);
  EXPECT_EQ(sim.Now(), SimTime::Micros(10));
}

TEST(SimulatorTest, CancelSoleEventLeavesSimEmpty) {
  Simulator sim;
  EventHandle handle = sim.Schedule(SimTime::Micros(5), [] { FAIL() << "cancelled event fired"; });
  handle.Cancel();
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_TRUE(sim.Empty());
  // Time never advances to a cancelled event.
  EXPECT_EQ(sim.Now(), SimTime());
}

TEST(SimulatorTest, DoubleCancelIsIdempotent) {
  Simulator sim;
  EventHandle handle = sim.Schedule(SimTime::Micros(5), [] {});
  handle.Cancel();
  handle.Cancel();
  EXPECT_EQ(sim.Run(), 0u);
}

TEST(SimulatorTest, HandleCopiesShareCancellation) {
  Simulator sim;
  int fired = 0;
  EventHandle original = sim.Schedule(SimTime::Micros(5), [&] { ++fired; });
  EventHandle copy = original;
  copy.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, RunDeadlineIsInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Micros(5), [&] { order.push_back(5); });
  sim.Schedule(SimTime::Micros(10), [&] { order.push_back(10); });
  sim.Schedule(SimTime(SimTime::Micros(10).nanos() + 1), [&] { order.push_back(11); });
  EXPECT_EQ(sim.Run(SimTime::Micros(10)), 2u);  // events at exactly the deadline fire
  EXPECT_EQ(order, (std::vector<int>{5, 10}));
  EXPECT_EQ(sim.Now(), SimTime::Micros(10));
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{5, 10, 11}));
}

TEST(SimulatorTest, CancelledHeadDoesNotLeakEventsPastDeadline) {
  Simulator sim;
  int fired = 0;
  // A cancelled event before the deadline must not cause the next live event
  // (beyond the deadline) to fire when Run() skips it.
  EventHandle handle = sim.Schedule(SimTime::Micros(5), [&] { ++fired; });
  sim.Schedule(SimTime::Micros(20), [&] { ++fired; });
  handle.Cancel();
  EXPECT_EQ(sim.Run(SimTime::Micros(10)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, ScheduleFromCancelledSiblingCallback) {
  Simulator sim;
  std::vector<int> order;
  EventHandle doomed;
  sim.Schedule(SimTime::Micros(5), [&] {
    order.push_back(1);
    doomed.Cancel();  // cancel a same-time event that is already queued
  });
  doomed = sim.Schedule(SimTime::Micros(5), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.processed_events(), 1u);
}

TEST(SimulatorTest, PendingEventsCountsOnlyLiveEvents) {
  Simulator sim;
  EventHandle a = sim.Schedule(SimTime::Micros(1), [] {});
  sim.Schedule(SimTime::Micros(2), [] {});
  sim.Schedule(SimTime::Micros(3), [] {});
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_EQ(sim.QueuedEvents(), 3u);
  a.Cancel();
  // The cancelled event no longer counts as pending, but its queue entry is
  // reclaimed lazily (below the compaction threshold it just sits there).
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_EQ(sim.QueuedEvents(), 3u);
  EXPECT_FALSE(sim.Empty());
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.QueuedEvents(), 0u);
}

TEST(SimulatorTest, CancelSoleEventMakesSimEmptyImmediately) {
  Simulator sim;
  EventHandle h = sim.Schedule(SimTime::Micros(5), [] {});
  EXPECT_FALSE(sim.Empty());
  h.Cancel();
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, EventSlotsAreReusedUnderChurn) {
  Simulator sim;
  int fired = 0;
  // Steady-state churn: one event in flight at a time, rescheduling itself.
  // The pool must keep reusing the same slot instead of growing.
  std::function<void()> tick = [&] {
    if (++fired < 1000) {
      sim.Schedule(SimTime::Micros(1), [&] { tick(); });
    }
  };
  sim.Schedule(SimTime::Micros(1), [&] { tick(); });
  sim.Run();
  EXPECT_EQ(fired, 1000);
  EXPECT_LE(sim.AllocatedSlots(), 2u);
}

TEST(SimulatorTest, StaleHandleDoesNotCancelSlotReuser) {
  Simulator sim;
  int first = 0;
  int second = 0;
  EventHandle old_handle = sim.Schedule(SimTime::Micros(1), [&] { ++first; });
  sim.Run();
  EXPECT_EQ(first, 1);
  // The new event reuses the fired event's pooled slot under a new key; the
  // stale handle's key no longer matches, so Cancel must be a no-op.
  EventHandle fresh = sim.Schedule(SimTime::Micros(1), [&] { ++second; });
  EXPECT_EQ(sim.AllocatedSlots(), 1u);
  old_handle.Cancel();
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(second, 1);
  // And a stale cancel of the now-also-fired fresh event stays harmless.
  fresh.Cancel();
  EXPECT_EQ(sim.processed_events(), 2u);
}

TEST(SimulatorTest, StaleHandleAfterCancellationDoesNotCancelSlotReuser) {
  Simulator sim;
  int fired = 0;
  EventHandle doomed = sim.Schedule(SimTime::Micros(1), [] { FAIL(); });
  doomed.Cancel();
  EventHandle copy = doomed;  // copies share the stale key
  sim.Schedule(SimTime::Micros(2), [&] { ++fired; });  // reuses the slot
  copy.Cancel();
  doomed.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, MassCancellationCompactsQueue) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 256; ++i) {
    handles.push_back(sim.Schedule(SimTime::Micros(1 + i), [&] { ++fired; }));
  }
  // Cancel everything but every 8th event: cancelled entries come to dominate
  // the queue, which must trigger compaction rather than rot until Run().
  for (size_t i = 0; i < handles.size(); ++i) {
    if (i % 8 != 0) {
      handles[i].Cancel();
    }
  }
  EXPECT_EQ(sim.PendingEvents(), 32u);
  EXPECT_GE(sim.compactions(), 1u);
  EXPECT_LT(sim.QueuedEvents(), 64u);  // stale entries were reclaimed
  EXPECT_EQ(sim.Run(), 32u);
  EXPECT_EQ(fired, 32);
}

TEST(SimulatorTest, CompactionPreservesOrderAndDeadlines) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(sim.Schedule(SimTime::Micros(200 - i), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (i >= 10) {
      handles[i].Cancel();
    }
  }
  EXPECT_EQ(sim.Run(SimTime::Micros(195)), 5u);  // events at 191..195 us fire, in time order
  EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5}));
  EXPECT_EQ(sim.Run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(SimulatorTest, LargeCallbackFallsBackToHeapCorrectly) {
  Simulator sim;
  // Capture more state than EventFn's inline buffer holds.
  std::array<int64_t, 16> payload;
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<int64_t>(i * 3);
  }
  static_assert(sizeof(payload) > EventFn::kInlineBytes);
  int64_t sum = 0;
  sim.Schedule(SimTime::Micros(1), [payload, &sum] {
    for (int64_t v : payload) {
      sum += v;
    }
  });
  sim.Run();
  EXPECT_EQ(sum, 3 * (15 * 16 / 2));
}

// Schedules make(token)'s callable three times — it fires, it is cancelled,
// it is still pending when its Simulator dies — directly and wrapped in an
// EventFn. Each run must invoke it at most once and destroy every copy of it
// exactly once; `holds` says whether the callable owns a reference to
// `token` (then use_count must return to 1 each time).
template <typename Make>
void ExpectFiresOnceAndDestroysOnce(Make make, bool holds) {
  auto token = std::make_shared<int>(0);
  const long pending_uses = holds ? 2 : 1;
  for (bool wrap : {false, true}) {
    SCOPED_TRACE(wrap ? "EventFn argument" : "callable argument");
    auto schedule = [&](Simulator& sim) {
      return wrap ? sim.Schedule(SimTime::Micros(1), EventFn(make(token)))
                  : sim.Schedule(SimTime::Micros(1), make(token));
    };
    *token = 0;
    {
      Simulator sim;
      schedule(sim);
      EXPECT_EQ(token.use_count(), pending_uses);
      sim.Run();
      EXPECT_EQ(*token, 1);
      EXPECT_EQ(token.use_count(), 1);
    }
    {
      Simulator sim;
      EventHandle h = schedule(sim);
      EXPECT_EQ(token.use_count(), pending_uses);
      h.Cancel();
      EXPECT_EQ(token.use_count(), 1);
      sim.Run();
      EXPECT_EQ(*token, 1);
    }
    {
      Simulator sim;
      schedule(sim);
      EXPECT_EQ(token.use_count(), pending_uses);
    }
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
  }
}

TEST(EventFnTest, TrivialInlineCallableFiresOnceAndNeedsNoDestructor) {
  auto make = [](const std::shared_ptr<int>& token) { return [n = token.get()] { ++*n; }; };
  static_assert(EventFn::StorageOf<decltype(make(nullptr))>() == EventFn::Storage::kTrivial);
  ExpectFiresOnceAndDestroysOnce(make, /*holds=*/false);
}

TEST(EventFnTest, NonTrivialInlineCallableIsDestroyedExactlyOnce) {
  auto make = [](const std::shared_ptr<int>& token) { return [token] { ++*token; }; };
  static_assert(EventFn::StorageOf<decltype(make(nullptr))>() == EventFn::Storage::kInline);
  ExpectFiresOnceAndDestroysOnce(make, /*holds=*/true);
}

TEST(EventFnTest, HeapCallableIsDestroyedExactlyOnce) {
  auto make = [](const std::shared_ptr<int>& token) {
    return [token, pad = std::array<int64_t, 6>{}] { *token += 1 + static_cast<int>(pad[0]); };
  };
  static_assert(EventFn::StorageOf<decltype(make(nullptr))>() == EventFn::Storage::kHeap);
  ExpectFiresOnceAndDestroysOnce(make, /*holds=*/true);
}

// Moving an EventFn hands its payload over on every storage path: the moved
// from object is empty and destroying both releases the capture once.
TEST(EventFnTest, MovesTransferOwnership) {
  auto token = std::make_shared<int>(0);
  {
    EventFn a = [token] { ++*token; };
    EventFn b = [token, pad = std::array<int64_t, 6>{}] { *token += 1 + static_cast<int>(pad[0]); };
    EventFn c = [n = token.get()] { ++*n; };
    EXPECT_EQ(token.use_count(), 3);
    EventFn moved_a = std::move(a);
    EventFn moved_b = std::move(b);
    EventFn moved_c;
    moved_c = std::move(c);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(c);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(token.use_count(), 3);
    moved_a();
    moved_b();
    moved_c();
    EXPECT_EQ(*token, 3);
    moved_b = std::move(moved_a);  // destroys b's payload, takes a's
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(ResourceTest, IdleResourceStartsImmediately) {
  Simulator sim;
  Resource r(&sim);
  SimTime done_at;
  r.Submit(SimTime::Micros(10), [&] { done_at = sim.Now(); });
  EXPECT_TRUE(r.busy());
  sim.Run();
  EXPECT_EQ(done_at, SimTime::Micros(10));
  EXPECT_FALSE(r.busy());
}

TEST(ResourceTest, JobsSerializeFifo) {
  Simulator sim;
  Resource r(&sim);
  std::vector<int64_t> done_times;
  for (int i = 0; i < 3; ++i) {
    r.Submit(SimTime::Micros(10), [&] { done_times.push_back(sim.Now().nanos()); });
  }
  EXPECT_EQ(r.queue_length(), 2u);
  sim.Run();
  EXPECT_EQ(done_times, (std::vector<int64_t>{10'000, 20'000, 30'000}));
  EXPECT_EQ(r.jobs_completed(), 3u);
  EXPECT_EQ(r.busy_time(), SimTime::Micros(30));
}

TEST(ResourceTest, SubmitFromCompletionCallback) {
  Simulator sim;
  Resource r(&sim);
  SimTime second_done;
  r.Submit(SimTime::Micros(5), [&] {
    r.Submit(SimTime::Micros(7), [&] { second_done = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(second_done, SimTime::Micros(12));
}

TEST(ResourceTest, ZeroDurationJob) {
  Simulator sim;
  Resource r(&sim);
  bool done = false;
  r.Submit(SimTime::Nanos(0), [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.Now().nanos(), 0);
}

TEST(ResourceTest, EmptyCallbackAllowed) {
  Simulator sim;
  Resource r(&sim);
  r.Submit(SimTime::Micros(1), nullptr);
  r.Submit(SimTime::Micros(1), nullptr);
  sim.Run();
  EXPECT_EQ(r.jobs_completed(), 2u);
}

TEST(ResourceTest, DrainTimeAccountsForQueue) {
  Simulator sim;
  Resource r(&sim);
  r.Submit(SimTime::Micros(10), nullptr);
  r.Submit(SimTime::Micros(5), nullptr);
  EXPECT_EQ(r.DrainTime(), SimTime::Micros(15));
  sim.Run();
  EXPECT_EQ(r.DrainTime(), sim.Now());
}

TEST(ResourceTest, InterleavedWithOtherResources) {
  Simulator sim;
  Resource a(&sim);
  Resource b(&sim);
  std::vector<std::string> order;
  a.Submit(SimTime::Micros(10), [&] { order.push_back("a"); });
  b.Submit(SimTime::Micros(5), [&] { order.push_back("b"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

// Edge case for the Run(deadline) x compaction interplay: a mid-run mass
// cancellation triggers compaction while the deadline lands inside the
// surviving stretch. Every cancelled entry must be accounted exactly once —
// either lazily skipped at pop time or reclaimed by a compaction pass, never
// both — and the counters must match the sorted reference model.
TEST(SimulatorTest, DeadlineInsideCompactionPassDoesNotDoubleCountSkips) {
  Simulator sim;
  RefSim ref;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 1; i <= 300; ++i) {
    handles.push_back(sim.Schedule(SimTime::Micros(i), [&fired] { ++fired; }));
    ref.Schedule(SimTime::Micros(i).nanos(), i);
  }
  // At 50us, cancel events scheduled for 101..300us: compaction triggers
  // inside the running simulation, below the 150us deadline.
  sim.Schedule(SimTime::Micros(50) + SimTime::Nanos(1), [&handles] {
    for (int i = 100; i < 300; ++i) {
      handles[i].Cancel();
    }
  });
  ref.Schedule((SimTime::Micros(50) + SimTime::Nanos(1)).nanos(), 0);
  ref.Run((SimTime::Micros(50) + SimTime::Nanos(1)).nanos());
  for (size_t i = 100; i < 300; ++i) {
    ref.Cancel(i);
  }
  const uint64_t fired_by_deadline = sim.Run(SimTime::Micros(150));
  EXPECT_EQ(fired_by_deadline, 101u);  // 1..100us events + the canceller
  EXPECT_EQ(sim.PendingEvents(), 0u);  // everything past 100us was cancelled
  EXPECT_EQ(fired_by_deadline + sim.Run(), 101u);
  EXPECT_GE(sim.compactions(), 1u);
  // 200 cancellations, each reclaimed once: lazily at pop or by compaction.
  EXPECT_LE(sim.skipped_cancelled(), 200u);
  EXPECT_EQ(sim.QueuedEvents(), 0u);
  ref.Run(INT64_MAX);
  EXPECT_EQ(sim.skipped_cancelled(), ref.skipped());
  EXPECT_EQ(sim.compactions(), ref.compactions());
  EXPECT_EQ(sim.processed_events(), ref.processed());
}

}  // namespace
}  // namespace bsched
