// Queue entries of the discrete-event simulator. The Simulator keeps its
// pending events in a 4-ary min-heap of these (hole-based sifts over a flat
// vector, src/sim/simulator.cc) and owns everything else about an event —
// callback slot, liveness, lazy-skip accounting, compaction — so the heap
// only ever permutes 16-byte (when, key) records, never callbacks. The key
// packs the event's schedule order above its slot index; seq is unique, so
// ordering by (when, key) is exactly the (when, seq) FIFO order. Entries pop
// in that order, cancelled entries included; tests/event_queue_test checks
// Simulator trajectories against a sorted reference.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>

#include "src/common/units.h"

namespace bsched {

struct EventEntry {
  SimTime when;
  uint64_t key;  // seq << 24 | slot (Simulator::kSlotBits)
};

// Heap order: true when `a` fires before `b` (earlier time, or same time but
// scheduled earlier — FIFO tie-break).
inline bool FiresBefore(const EventEntry& a, const EventEntry& b) {
  if (a.when != b.when) {
    return a.when < b.when;
  }
  return a.key < b.key;
}

}  // namespace bsched

#endif  // SRC_SIM_EVENT_QUEUE_H_
