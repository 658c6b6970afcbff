// Single-threaded discrete-event simulator. All substrates (network links,
// GPU compute streams, PS shards, the ring) advance by scheduling callbacks
// on one Simulator instance, which makes every experiment deterministic.
// Distinct Simulator instances share nothing, so independent simulations can
// run on separate threads (see src/exec/sweep_runner.h); one job always runs
// on exactly one Simulator.
//
// Hot-path design: events live in a pooled slot table (reused across the
// run, so steady-state scheduling allocates nothing), callbacks are stored
// in a small-buffer-optimized EventFn (no per-event std::function heap
// allocation), and cancellation is a slot-generation check instead of a
// per-event shared_ptr control block. Pending events are ordered by a binary
// min-heap of 32-byte EventEntry records (src/sim/event_queue.h) owned by the
// Simulator; cancelled entries still queued are lazily skipped, and the heap
// is compacted when they pile up.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/sim/event_queue.h"

namespace bsched {

// Move-only callable with small-buffer optimization: callables up to
// kInlineBytes construct in place; larger ones fall back to one heap
// allocation (the scheduler's own callbacks all fit inline).
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): empty callback

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
    using D = std::decay_t<F>;
    if constexpr (FitsInline<D>()) {
      new (storage_) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs dst's payload from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* Inline(void* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D* Heap(void* storage) {
    return *reinterpret_cast<D**>(storage);
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*Inline<D>(s))(); },
      [](void* dst, void* src) {
        new (dst) D(std::move(*Inline<D>(src)));
        Inline<D>(src)->~D();
      },
      [](void* s) { Inline<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (*Heap<D>(s))(); },
      [](void* dst, void* src) { *reinterpret_cast<D**>(dst) = Heap<D>(src); },
      [](void* s) { delete Heap<D>(s); },
  };

  void MoveFrom(EventFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulator;

// Handle returned by Schedule(); allows cancelling a pending event. Copyable;
// all copies refer to the same event. A handle is a (slot, generation) pair:
// once the event fires or is cancelled the slot's generation advances, so
// stale handles (including ones whose slot was reused by a later event) are
// harmless no-ops. Handles must not outlive their Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Idempotent.
  void Cancel();

  bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, uint32_t slot, uint64_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay. Events at equal times fire in
  // scheduling order (stable FIFO tie-break).
  EventHandle Schedule(SimTime delay, EventFn fn);

  // Schedules `fn` at an absolute time, which must be >= Now().
  EventHandle ScheduleAt(SimTime when, EventFn fn);

  // Fires `fn` at Now() + interval and then every `interval` after, until it
  // returns false (the final false tick is still a processed event). The
  // chain is an ordinary self-rescheduling event: it keeps the simulator
  // non-empty while armed, so the predicate must eventually return false for
  // Run() to drain. interval must be > 0.
  void SchedulePeriodic(SimTime interval, std::function<bool()> fn);

  // Runs events until the queue is empty or `deadline` is passed. Events at
  // exactly `deadline` still fire. Returns the number of events processed.
  uint64_t Run(SimTime deadline = SimTime::Max());

  // Fires the single earliest pending event. Returns false if queue is empty.
  bool Step();

  // True when no live (non-cancelled, not-yet-fired) events remain.
  bool Empty() const { return live_ == 0; }
  // Live events: scheduled, not cancelled, not yet fired.
  size_t PendingEvents() const { return live_; }
  // Raw queue entries, including cancelled events not yet reclaimed; equals
  // PendingEvents() after compaction. Debugging / test hook.
  size_t QueuedEvents() const { return heap_.size(); }
  // Slots ever allocated; stays flat under steady-state churn (pool reuse).
  size_t AllocatedSlots() const { return slots_.size(); }
  uint64_t processed_events() const { return processed_; }
  uint64_t compactions() const { return compactions_; }
  // Cancelled entries lazily skipped at pop time (not counting compaction).
  uint64_t skipped_cancelled() const { return skipped_cancelled_; }

 private:
  friend class EventHandle;

  struct Slot {
    uint64_t generation = 0;
    EventFn fn;
  };

  bool EntryLive(const EventEntry& e) const {
    return slots_[e.slot].generation == e.generation;
  }
  // Fires `e`, which must be live: releases its slot, advances time, runs fn.
  void Fire(const EventEntry& e);
  // Advances the slot's generation (invalidating queued entries and handles)
  // and returns it to the free list.
  void ReleaseSlot(uint32_t slot);
  void CancelEvent(uint32_t slot, uint64_t generation);
  // Rebuilds the heap without stale entries once they dominate it.
  void MaybeCompact();
  void PopHead();

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t compactions_ = 0;
  uint64_t skipped_cancelled_ = 0;
  size_t live_ = 0;
  std::vector<EventEntry> heap_;  // binary min-heap via std::*_heap
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace bsched

#endif  // SRC_SIM_SIMULATOR_H_
