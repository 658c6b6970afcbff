// Communication-backend interface. The Core is communication-method-agnostic:
// SubCommTask.start() hands a partition to a backend (PS push/pull or ring
// all-reduce), and the backend invokes the completion callback when the
// underlying operation finishes for that worker. Backends serialize admitted
// work in FIFO order — the Core controls only admission order and in-flight
// bytes, exactly as in the paper.
//
// A partition enters a backend as a *flight*: the partition plus a 16-byte
// completion, in one StartFlight call; the Core admits every partition so.
// The PS and ring backends take only flights: their Start is the one adapter,
// StartAsFlight. StartFlight's default runs Start, for Start-only backends.
#ifndef SRC_COMM_BACKEND_H_
#define SRC_COMM_BACKEND_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/common/check.h"
#include "src/common/pool.h"
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
  // inline. `id` and `tag` are the owner's names for the partition: for the
  // Core, the task id and the partition (a retry adds its attempt in the
  // high bits), so a task's consecutive partitions complete under
  // consecutive tags.
  struct Done {
    FlightOwner* owner = nullptr;
    uint32_t id = 0;
    uint32_t tag = 0;
    void operator()() const { owner->OnFlightDone(id, tag); }
  };

  SubCommTask subtask;
  Done done;
};

class CommBackend : private FlightOwner {
 public:
  virtual ~CommBackend() = default;

  // Admits one partition with a std::function completion, for callers
  // outside the Core. `on_finish` must be invoked exactly once, when the
  // operation completes from the perspective of `subtask.worker` (push: ack
  // received; pull: data delivered; all-reduce: ring pass complete).
  virtual void Start(const SubCommTask& subtask, std::function<void()> on_finish) = 0;

  // Admits a flight: Start with flight.done as the completion, unless the
  // backend carries flights itself.
  virtual void StartFlight(const Flight& flight) { Start(flight.subtask, flight.done); }

 protected:
  // Start for a backend that carries flights: parks `on_finish` and starts a
  // flight whose completion runs it.
  void StartAsFlight(const SubCommTask& subtask, std::function<void()> on_finish) {
    BSCHED_CHECK(on_finish != nullptr);
    const uint32_t id = parked_.Acquire();
    parked_[id] = std::move(on_finish);
    StartFlight(Flight{subtask, Flight::Done{this, id, 0}});
  }

 private:
  void OnFlightDone(uint32_t id, uint32_t /*tag*/) final {
    // Release the slot before running the completion: it may Start again.
    std::function<void()> on_finish = std::move(parked_[id]);
    parked_[id] = nullptr;
    parked_.Release(id);
    on_finish();
  }

  Pool<std::function<void()>> parked_;  // StartAsFlight's callbacks, by flight id
};

}  // namespace bsched

#endif  // SRC_COMM_BACKEND_H_
