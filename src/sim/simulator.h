// Single-threaded discrete-event simulator. All substrates (network links,
// GPU compute streams, PS shards, the ring) advance by scheduling callbacks
// on one Simulator instance, which makes every experiment deterministic.
// Distinct Simulator instances share nothing, so independent simulations can
// run on separate threads (see src/exec/sweep_runner.h); one job always runs
// on exactly one Simulator.
//
// Hot-path design: events live in a pooled slot table (reused across the
// run, so steady-state scheduling allocates nothing). Schedule() builds each
// callback directly in its slot's small-buffer-optimized EventFn (no
// per-event std::function heap allocation, and a trivially copyable callback
// moves by memcpy). Each slot records the key of its pending queue entry, so
// cancellation and liveness are one key comparison instead of a per-event
// shared_ptr control block. Pending events are ordered by a 4-ary min-heap
// of 16-byte (when, seq|slot) EventEntry records (src/sim/event_queue.h)
// owned by the Simulator; cancelled entries still queued are lazily skipped,
// and the heap is compacted when they pile up.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/sim/event_queue.h"

namespace bsched {

// Move-only callable with small-buffer optimization. A callable up to
// kInlineBytes constructs in place; a trivially copyable one (a lambda
// capturing `this` and a few indices, like every Core, PS and Link event)
// moves as a fixed-size memcpy and needs no destructor call. A larger
// callable falls back to one heap allocation.
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;

  // Where a callable of decayed type D is stored.
  enum class Storage { kTrivial, kInline, kHeap };
  template <typename D>
  static constexpr Storage StorageOf() {
    if constexpr (sizeof(D) > kInlineBytes || alignof(D) > alignof(std::max_align_t) ||
                  !std::is_nothrow_move_constructible_v<D>) {
      return Storage::kHeap;
    } else if constexpr (std::is_trivially_copyable_v<D>) {
      return Storage::kTrivial;
    } else {
      return Storage::kInline;
    }
  }

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): empty callback

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
    Construct(std::forward<F>(f));
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

  // Replaces an empty EventFn's callback with `f`, built in place (an
  // EventFn argument is moved in).
  template <typename F>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      *this = std::move(f);
    } else {
      BSCHED_DCHECK(ops_ == nullptr);
      Construct(std::forward<F>(f));
    }
  }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs dst's payload from src's and destroys src's; null when
    // the bytes can simply be copied (trivial payloads, heap pointers).
    void (*relocate)(void* dst, void* src);
    // Destroys the payload; null when it is trivially destructible.
    void (*destroy)(void* storage);
  };

  template <typename D>
  static D* Inline(void* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D* Heap(void* storage) {
    return *reinterpret_cast<D**>(storage);
  }

  template <typename D>
  static constexpr Ops kTrivialOps = {
      [](void* s) { (*Inline<D>(s))(); },
      nullptr,
      nullptr,
  };

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
      nullptr,
      [](void* s) { delete Heap<D>(s); },
  };

  template <typename F>
  void Construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (StorageOf<D>() == Storage::kHeap) {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    } else {
      new (storage_) D(std::forward<F>(f));
      ops_ = StorageOf<D>() == Storage::kTrivial ? &kTrivialOps<D> : &kInlineOps<D>;
    }
  }

  void MoveFrom(EventFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr) {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      } else {
        ops_->relocate(storage_, other.storage_);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulator;

// Handle returned by Schedule(); allows cancelling a pending event. Copyable;
// all copies refer to the same event. A handle holds the event's queue key
// (seq << 24 | slot): once the event fires or is cancelled its slot
// forgets that key, and every later event gets a fresh seq, so stale handles
// (including ones whose slot was reused by a later event) are harmless
// no-ops. Handles must not outlive their Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Idempotent.
  void Cancel();

  bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, uint64_t key) : sim_(sim), key_(key) {}

  Simulator* sim_ = nullptr;
  uint64_t key_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` (any void() callable, or an EventFn) to run at
  // Now() + delay; the callable is built directly in the event's slot.
  // Events at equal times fire in scheduling order (stable FIFO tie-break).
  template <typename F>
  EventHandle Schedule(SimTime delay, F&& fn) {
    BSCHED_CHECK(delay.nanos() >= 0);
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at an absolute time, which must be >= Now().
  template <typename F>
  EventHandle ScheduleAt(SimTime when, F&& fn) {
    BSCHED_CHECK(when >= now_);
    const uint32_t slot = AcquireSlot();
    slots_[slot].fn.Emplace(std::forward<F>(fn));
    return Enqueue(when, slot);
  }

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

  // An entry's key is seq << kSlotBits | slot; seq is unique, so (when, key)
  // order is (when, seq) order.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kSlotBits);
  // Never a real key (seq < kMaxSeq): marks a free slot.
  static constexpr uint64_t kFreeKey = UINT64_MAX;

  struct Slot {
    uint64_t key = kFreeKey;  // key of the pending entry, kFreeKey when free
    EventFn fn;
  };

  bool EntryLive(const EventEntry& e) const {
    return slots_[e.key & kSlotMask].key == e.key;
  }
  // Pops a free slot (or grows the table); its EventFn is empty.
  uint32_t AcquireSlot();
  // Keys the slot's event with the next seq and pushes its entry.
  EventHandle Enqueue(SimTime when, uint32_t slot);
  // Fires `e`, which must be live: releases its slot, advances time, runs fn.
  void Fire(const EventEntry& e);
  // Forgets the slot's key (invalidating queued entries and handles),
  // destroys its callback and returns it to the free list.
  void ReleaseSlot(uint32_t slot);
  void CancelEvent(uint64_t key);
  // Rebuilds the heap without stale entries once they dominate it.
  void MaybeCompact();
  void PopHead();

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t compactions_ = 0;
  uint64_t skipped_cancelled_ = 0;
  size_t live_ = 0;
  std::vector<EventEntry> heap_;  // 4-ary min-heap by (when, key)
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace bsched

#endif  // SRC_SIM_SIMULATOR_H_
