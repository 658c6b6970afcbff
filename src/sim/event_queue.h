// Queue entries of the discrete-event simulator. The Simulator keeps its
// pending events in a binary min-heap of these (std::*_heap over a flat
// vector) and owns everything else about an event — callback slot, liveness,
// lazy-skip accounting, compaction — so the heap only ever permutes 32-byte
// (when, seq, generation, slot) records, never callbacks. Entries pop in
// strict (when, seq) order, cancelled entries included; tests/event_queue_test
// checks Simulator trajectories against a sorted reference.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>

#include "src/common/units.h"

namespace bsched {

struct EventEntry {
  SimTime when;
  uint64_t seq;
  uint64_t generation;
  uint32_t slot;
};

// Min-heap comparator: true when `a` fires after `b` (later time, or same
// time but scheduled later — FIFO tie-break).
struct EventAfter {
  bool operator()(const EventEntry& a, const EventEntry& b) const {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }
};

}  // namespace bsched

#endif  // SRC_SIM_EVENT_QUEUE_H_
