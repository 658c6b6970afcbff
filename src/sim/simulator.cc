#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/check.h"

namespace bsched {
namespace {

// Compaction triggers when stale (cancelled) entries outnumber live ones and
// the queue is large enough for the rebuild to pay for itself.
constexpr size_t kCompactMinEntries = 64;

}  // namespace

void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(slot_, generation_);
  }
}

EventHandle Simulator::Schedule(SimTime delay, EventFn fn) {
  BSCHED_CHECK(delay.nanos() >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

namespace {

// Self-rescheduling periodic tick. Sized to fit EventFn's inline buffer
// (8 + 8 + 32 = 48 bytes) so the chain never heap-allocates per tick; the
// callable (and the captured predicate) dies with its event slot when the
// predicate returns false.
struct PeriodicEvent {
  Simulator* sim;
  SimTime interval;
  std::function<bool()> fn;

  void operator()() {
    if (fn()) {
      Simulator* s = sim;
      const SimTime i = interval;
      s->Schedule(i, PeriodicEvent{s, i, std::move(fn)});
    }
  }
};
static_assert(sizeof(PeriodicEvent) <= EventFn::kInlineBytes);

}  // namespace

void Simulator::SchedulePeriodic(SimTime interval, std::function<bool()> fn) {
  BSCHED_CHECK(interval.nanos() > 0);
  BSCHED_CHECK(fn != nullptr);
  Schedule(interval, PeriodicEvent{this, interval, std::move(fn)});
}

EventHandle Simulator::ScheduleAt(SimTime when, EventFn fn) {
  BSCHED_CHECK(when >= now_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(EventEntry{when, next_seq_++, s.generation, slot});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter());
  ++live_;
  return EventHandle(this, slot, s.generation);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;
  s.fn.Reset();
  free_slots_.push_back(slot);
}

void Simulator::Fire(const EventEntry& e) {
  // Move the callback out and release the slot first: the callback may
  // schedule new events, which can reuse this slot or grow the slot table.
  EventFn fn = std::move(slots_[e.slot].fn);
  ReleaseSlot(e.slot);
  --live_;
  now_ = e.when;
  ++processed_;
  fn();
}

void Simulator::CancelEvent(uint32_t slot, uint64_t generation) {
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return;  // already fired, already cancelled, or slot since reused
  }
  ReleaseSlot(slot);
  --live_;
  MaybeCompact();
}

void Simulator::MaybeCompact() {
  if (heap_.size() < kCompactMinEntries || heap_.size() < 2 * live_) {
    return;
  }
  std::erase_if(heap_, [this](const EventEntry& e) { return !EntryLive(e); });
  std::make_heap(heap_.begin(), heap_.end(), EventAfter());
  ++compactions_;
}

void Simulator::PopHead() {
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter());
  heap_.pop_back();
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    const EventEntry e = heap_.front();
    PopHead();
    if (!EntryLive(e)) {
      ++skipped_cancelled_;
      continue;
    }
    Fire(e);
    return true;
  }
  return false;
}

uint64_t Simulator::Run(SimTime deadline) {
  uint64_t count = 0;
  while (!heap_.empty()) {
    const EventEntry e = heap_.front();
    // Discard cancelled entries here rather than firing past them: a
    // cancelled head must not let an event beyond `deadline` fire. Each
    // discarded entry is popped (and counted) exactly once, even when the
    // deadline lands in the middle of a compaction-heavy stretch —
    // compaction only ever removes entries that were never popped.
    if (!EntryLive(e)) {
      PopHead();
      ++skipped_cancelled_;
      continue;
    }
    if (e.when > deadline) {
      break;
    }
    PopHead();
    Fire(e);
    ++count;
  }
  return count;
}

}  // namespace bsched
