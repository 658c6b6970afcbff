// Declarative execution engine: runs a DAG of asynchronous operations over
// the simulator, starting each op as soon as its dependencies complete. This
// models engines like MXNet's and TensorFlow's, which decide execution order
// from dependency graphs (§3.3). ByteScheduler never reorders engine ops —
// it only adds Dependency Proxy ops and claims edges, exactly as the paper
// requires for genericity.
#ifndef SRC_ENGINE_DAG_ENGINE_H_
#define SRC_ENGINE_DAG_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/simulator.h"

namespace bsched {

using OpId = int32_t;
inline constexpr OpId kInvalidOp = -1;

class DagEngine {
 public:
  // Completion callback handed to every op; the op must invoke it exactly
  // once when its work is finished (possibly much later, e.g. a Proxy).
  using Done = std::function<void()>;
  // Op body. A null OpFn is an instant no-op (used for barriers and joins).
  using OpFn = std::function<void(Done done)>;

  explicit DagEngine(Simulator* sim);
  DagEngine(const DagEngine&) = delete;
  DagEngine& operator=(const DagEngine&) = delete;

  // Adds an operation; ops may be added only before Start(). Ops are
  // anonymous: the OpId is their only handle.
  OpId AddOp(OpFn fn);

  // Declares that `before` must complete before `after` starts.
  void AddDep(OpId before, OpId after);

  // Launches all ops whose dependencies are already satisfied. After Start()
  // the graph is frozen.
  void Start();

  bool started() const { return started_; }
  bool AllDone() const { return ops_completed_ == ops_.size(); }
  size_t ops_completed() const { return ops_completed_; }
  bool OpDone(OpId id) const;

 private:
  struct OpNode {
    OpFn fn;
    std::vector<OpId> dependents;
    int indegree = 0;
    bool launched = false;
    bool done = false;
  };

  void Launch(OpId id);
  void OnOpDone(OpId id);

  Simulator* sim_;
  std::vector<OpNode> ops_;
  bool started_ = false;
  size_t ops_completed_ = 0;
};

}  // namespace bsched

#endif  // SRC_ENGINE_DAG_ENGINE_H_
