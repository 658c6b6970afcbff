#include "src/engine/dag_engine.h"

#include <utility>

#include "src/common/check.h"

namespace bsched {

DagEngine::DagEngine(Simulator* sim) : sim_(sim) { BSCHED_CHECK(sim_ != nullptr); }

OpId DagEngine::AddOp(OpFn fn) {
  BSCHED_CHECK(!started_);
  OpNode node;
  node.fn = std::move(fn);
  ops_.push_back(std::move(node));
  return static_cast<OpId>(ops_.size() - 1);
}

void DagEngine::AddDep(OpId before, OpId after) {
  BSCHED_CHECK(!started_);
  BSCHED_CHECK(before >= 0 && before < static_cast<OpId>(ops_.size()));
  BSCHED_CHECK(after >= 0 && after < static_cast<OpId>(ops_.size()));
  BSCHED_CHECK(before != after);
  ops_[before].dependents.push_back(after);
  ops_[after].indegree++;
}

void DagEngine::Start() {
  BSCHED_CHECK(!started_);
  started_ = true;
  for (OpId id = 0; id < static_cast<OpId>(ops_.size()); ++id) {
    if (ops_[id].indegree == 0) {
      Launch(id);
    }
  }
}

void DagEngine::Launch(OpId id) {
  OpNode& node = ops_[id];
  BSCHED_CHECK(!node.launched);
  node.launched = true;
  // Op start is its own simulator event: keeps call stacks flat even for long
  // chains of instant ops.
  sim_->Schedule(SimTime(), [this, id] {
    OpNode& n = ops_[id];
    if (!n.fn) {
      OnOpDone(id);
      return;
    }
    n.fn([this, id] { OnOpDone(id); });
  });
}

void DagEngine::OnOpDone(OpId id) {
  OpNode& node = ops_[id];
  BSCHED_CHECK(node.launched);
  BSCHED_CHECK(!node.done);
  node.done = true;
  ++ops_completed_;
  for (OpId dep : node.dependents) {
    OpNode& d = ops_[dep];
    BSCHED_DCHECK(d.indegree > 0);
    if (--d.indegree == 0) {
      Launch(dep);
    }
  }
}

bool DagEngine::OpDone(OpId id) const {
  BSCHED_CHECK(id >= 0 && id < static_cast<OpId>(ops_.size()));
  return ops_[id].done;
}

}  // namespace bsched
