// Imperative execution engine: models PyTorch-style frameworks. Operations
// posted to the (single) compute stream run strictly in post order; hooks can
// be registered per layer (register_forward_pre_hook / register_hook in
// PyTorch) and are spliced into the stream around the layer's ops — this is
// how the PyTorch plugin inserts Dependency Proxies without engine changes
// (§3.3, §5). Background ops model communication launched on side threads
// (e.g. Horovod), ordered only by explicit dependencies. Ops, hook ops
// included, are anonymous DagEngine ops: each Post* returns the OpId.
#ifndef SRC_ENGINE_IMPERATIVE_ENGINE_H_
#define SRC_ENGINE_IMPERATIVE_ENGINE_H_

#include <map>

#include "src/engine/dag_engine.h"

namespace bsched {

class ImperativeEngine {
 public:
  explicit ImperativeEngine(Simulator* sim) : dag_(sim) {}

  // Hooks must be registered before the corresponding ops are posted.
  // The forward pre-hook op runs in-stream immediately before layer ops
  // posted via PostForward; it blocks the stream until it completes.
  void RegisterForwardPreHook(int layer, DagEngine::OpFn hook);
  // The backward hook op runs in-stream immediately after ops posted via
  // PostBackward (gradient-ready hooks).
  void RegisterBackwardHook(int layer, DagEngine::OpFn hook);

  // Stream ops: strictly FIFO with everything else posted to the stream.
  OpId Post(DagEngine::OpFn fn);
  OpId PostForward(int layer, DagEngine::OpFn fn);
  OpId PostBackward(int layer, DagEngine::OpFn fn);

  // Off-stream op (communication library thread). Runs when its explicit
  // dependencies (if any) are done.
  OpId PostBackground(DagEngine::OpFn fn);

  // Explicit extra dependency edge (e.g. barrier waits on communication).
  void After(OpId before, OpId after);

  void Start() { dag_.Start(); }
  bool AllDone() const { return dag_.AllDone(); }
  DagEngine& dag() { return dag_; }

 private:
  OpId Chain(OpId op);

  DagEngine dag_;
  OpId last_stream_op_ = kInvalidOp;
  std::map<int, DagEngine::OpFn> forward_pre_hooks_;
  std::map<int, DagEngine::OpFn> backward_hooks_;
};

}  // namespace bsched

#endif  // SRC_ENGINE_IMPERATIVE_ENGINE_H_
