#include "src/engine/proxy.h"

#include <algorithm>

namespace bsched {

DagEngine::OpFn DependencyProxy::WaitFor(int releases) {
  return [this, releases](DagEngine::Done done) { Wait(releases, std::move(done)); };
}

DagEngine::OpFn DependencyProxy::WaitForNext() {
  return [this](DagEngine::Done done) { Wait(next_wait_++, std::move(done)); };
}

void DependencyProxy::Wait(int releases, DagEngine::Done done) {
  if (released_ >= releases) {
    // The scheduler released the proxy before the engine reached it; the op
    // completes immediately (the blocked dependency is already satisfied).
    done();
  } else {
    waiting_.emplace_back(releases, std::move(done));
  }
}

void DependencyProxy::Release() {
  ++released_;
  // Releases arrive in order and every waiting op needs a distinct count, so
  // at most one op completes.
  auto it = std::find_if(waiting_.begin(), waiting_.end(),
                         [this](const auto& w) { return w.first <= released_; });
  if (it != waiting_.end()) {
    DagEngine::Done done = std::move(it->second);
    waiting_.erase(it);
    done();
  }
}

}  // namespace bsched
