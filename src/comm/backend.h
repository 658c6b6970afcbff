// Communication-backend interface. The Core is communication-method-agnostic:
// SubCommTask.start() hands a partition to a backend (PS push/pull or ring
// all-reduce), and the backend invokes the completion callback when the
// underlying operation finishes for that worker. Backends serialize admitted
// work in FIFO order — the Core controls only admission order and in-flight
// bytes, exactly as in the paper.
//
// The Core admits each partition as a *flight*: the partition plus a 16-byte
// completion, handed over in one StartFlight call. A backend that can carry
// flights compactly overrides StartFlight (the PS uplink queues a task's
// consecutive push flights as one entry); the default runs Start.
#ifndef SRC_COMM_BACKEND_H_
#define SRC_COMM_BACKEND_H_

#include <cstdint>
#include <functional>

#include "src/core/comm_task.h"

namespace bsched {

// Receives the completions of the flights it admitted.
class FlightOwner {
 public:
  // The flight whose completion carries (`id`, `tag`) finished.
  virtual void OnFlightDone(uint32_t id, uint32_t tag) = 0;

 protected:
  ~FlightOwner() = default;
};

// One admitted partition and its completion.
struct Flight {
  // The completion callback: 16 bytes, so std::function and EventFn store it
  // inline. `id` and `tag` are the owner's names for the partition.
  struct Done {
    FlightOwner* owner = nullptr;
    uint32_t id = 0;
    uint32_t tag = 0;
    void operator()() const { owner->OnFlightDone(id, tag); }
  };

  SubCommTask subtask;
  Done done;
};

class CommBackend {
 public:
  virtual ~CommBackend() = default;

  // Admits one partition into the underlying stack. `on_finish` must be
  // invoked exactly once, when the operation completes from the perspective
  // of `subtask.worker` (push: ack received; pull: data delivered;
  // all-reduce: ring pass complete).
  virtual void Start(const SubCommTask& subtask, std::function<void()> on_finish) = 0;

  // Admits a flight: Start with flight.done as the completion, unless the
  // backend carries flights itself.
  virtual void StartFlight(const Flight& flight) { Start(flight.subtask, flight.done); }
};

}  // namespace bsched

#endif  // SRC_COMM_BACKEND_H_
