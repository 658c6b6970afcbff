#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/check.h"

namespace bsched {
namespace {

// Compaction triggers when stale (cancelled) entries outnumber live ones and
// the queue is large enough for the rebuild to pay for itself.
constexpr size_t kCompactMinEntries = 64;

// The event heap is 4-ary: node i's children are 4i+1 .. 4i+4. Both sifts
// move a hole instead of swapping, writing `e` once where it settles.
constexpr size_t kArity = 4;

void SiftUp(EventEntry* heap, size_t hole, EventEntry e) {
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!FiresBefore(e, heap[parent])) {
      break;
    }
    heap[hole] = heap[parent];
    hole = parent;
  }
  heap[hole] = e;
}

void SiftDown(EventEntry* heap, size_t size, size_t hole, EventEntry e) {
  while (true) {
    const size_t first = hole * kArity + 1;
    if (first >= size) {
      break;
    }
    const size_t end = std::min(first + kArity, size);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (FiresBefore(heap[c], heap[best])) {
        best = c;
      }
    }
    if (!FiresBefore(heap[best], e)) {
      break;
    }
    heap[hole] = heap[best];
    hole = best;
  }
  heap[hole] = e;
}

}  // namespace

void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(key_);
  }
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

EventHandle Simulator::Enqueue(SimTime when, uint32_t slot, Slot& s) {
  BSCHED_CHECK(next_seq_ < kMaxSeq && "more than 2^40 events scheduled");
  const uint64_t key = next_seq_++ << kSlotBits | slot;
  s.key = key;
  heap_.emplace_back();
  SiftUp(heap_.data(), heap_.size() - 1, EventEntry{when, key});
  ++live_;
  return EventHandle(this, key);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.key = kFreeKey;
  s.fn.Reset();
  slots_.Release(slot);
}

void Simulator::Fire(const EventEntry& e) {
  // Move the callback out and release the slot first: the callback may
  // schedule new events, which can reuse this slot or grow the slot table.
  // (The moved-from EventFn is empty, so the slot has nothing to destroy.)
  const uint32_t slot = static_cast<uint32_t>(e.key & kSlotMask);
  Slot& s = slots_[slot];
  EventFn fn = std::move(s.fn);
  s.key = kFreeKey;
  slots_.Release(slot);
  --live_;
  now_ = e.when;
  ++processed_;
  fn();
}

void Simulator::CancelEvent(uint64_t key) {
  const uint64_t slot = key & kSlotMask;
  if (slot >= slots_.size() || slots_[slot].key != key) {
    return;  // already fired, already cancelled, or slot since reused
  }
  ReleaseSlot(static_cast<uint32_t>(slot));
  --live_;
  MaybeCompact();
}

void Simulator::MaybeCompact() {
  if (heap_.size() < kCompactMinEntries || heap_.size() < 2 * live_) {
    return;
  }
  std::erase_if(heap_, [this](const EventEntry& e) { return !EntryLive(e); });
  // A sorted array is a valid heap.
  std::sort(heap_.begin(), heap_.end(), FiresBefore);
  ++compactions_;
}

void Simulator::PopHead() {
  const EventEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(heap_.data(), heap_.size(), 0, last);
  }
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
