#include "src/engine/imperative_engine.h"

#include <utility>

#include "src/common/check.h"

namespace bsched {

void ImperativeEngine::RegisterForwardPreHook(int layer, DagEngine::OpFn hook) {
  BSCHED_CHECK(forward_pre_hooks_.find(layer) == forward_pre_hooks_.end());
  forward_pre_hooks_[layer] = std::move(hook);
}

void ImperativeEngine::RegisterBackwardHook(int layer, DagEngine::OpFn hook) {
  BSCHED_CHECK(backward_hooks_.find(layer) == backward_hooks_.end());
  backward_hooks_[layer] = std::move(hook);
}

OpId ImperativeEngine::Chain(OpId op) {
  if (last_stream_op_ != kInvalidOp) {
    dag_.AddDep(last_stream_op_, op);
  }
  last_stream_op_ = op;
  return op;
}

OpId ImperativeEngine::Post(DagEngine::OpFn fn) { return Chain(dag_.AddOp(std::move(fn))); }

OpId ImperativeEngine::PostForward(int layer, DagEngine::OpFn fn) {
  auto hook = forward_pre_hooks_.find(layer);
  if (hook != forward_pre_hooks_.end()) {
    Chain(dag_.AddOp(hook->second));
  }
  return Chain(dag_.AddOp(std::move(fn)));
}

OpId ImperativeEngine::PostBackward(int layer, DagEngine::OpFn fn) {
  const OpId op = Chain(dag_.AddOp(std::move(fn)));
  auto hook = backward_hooks_.find(layer);
  if (hook != backward_hooks_.end()) {
    Chain(dag_.AddOp(hook->second));
  }
  return op;
}

OpId ImperativeEngine::PostBackground(DagEngine::OpFn fn) { return dag_.AddOp(std::move(fn)); }

void ImperativeEngine::After(OpId before, OpId after) { dag_.AddDep(before, after); }

}  // namespace bsched
