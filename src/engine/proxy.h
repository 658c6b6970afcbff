// Dependency Proxy (§3.3): an engine operation created by ByteScheduler that
// claims dependencies from/to other operations without the engine knowing
// about communication scheduling. One proxy guards one layer of one worker:
// each finished communication of the layer releases it once, and the proxy
// op of iteration k holds its position in the graph (or the imperative
// stream) until k releases have happened. Declarative engines install one op
// per iteration (WaitFor); PyTorch's forward pre-hook is copied into every
// iteration's op, so it counts its own starts (WaitForNext).
#ifndef SRC_ENGINE_PROXY_H_
#define SRC_ENGINE_PROXY_H_

#include <utility>
#include <vector>

#include "src/engine/dag_engine.h"

namespace bsched {

class DependencyProxy {
 public:
  DependencyProxy() = default;
  DependencyProxy(const DependencyProxy&) = delete;
  DependencyProxy& operator=(const DependencyProxy&) = delete;

  // Op body that completes once `releases` Release() calls have happened
  // (before or after the engine starts it).
  DagEngine::OpFn WaitFor(int releases);

  // Op body whose n-th start (counting from 0) waits for n releases. The
  // count lives in the proxy, so every copy of the body shares it.
  DagEngine::OpFn WaitForNext();

  // One communication of the layer finished. Completes, inline, the op
  // waiting for this many releases, if it has started.
  void Release();

 private:
  void Wait(int releases, DagEngine::Done done);

  int released_ = 0;
  int next_wait_ = 0;
  // Started ops still waiting, with the release count each needs.
  std::vector<std::pair<int, DagEngine::Done>> waiting_;
};

}  // namespace bsched

#endif  // SRC_ENGINE_PROXY_H_
