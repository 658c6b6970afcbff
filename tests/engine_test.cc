#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/dag_engine.h"
#include "src/engine/imperative_engine.h"
#include "src/engine/proxy.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

// Op body that occupies virtual time, like a GPU kernel.
DagEngine::OpFn TimedOp(Simulator* sim, SimTime duration, std::vector<std::string>* log,
                        std::string name) {
  return [sim, duration, log, name = std::move(name)](DagEngine::Done done) {
    sim->Schedule(duration, [log, name, done = std::move(done)] {
      log->push_back(name);
      done();
    });
  };
}

TEST(DagEngineTest, ChainExecutesInOrder) {
  Simulator sim;
  DagEngine dag(&sim);
  std::vector<std::string> log;
  OpId a = dag.AddOp(TimedOp(&sim, SimTime::Micros(5), &log, "a"));
  OpId b = dag.AddOp(TimedOp(&sim, SimTime::Micros(1), &log, "b"));
  OpId c = dag.AddOp(TimedOp(&sim, SimTime::Micros(1), &log, "c"));
  dag.AddDep(a, b);
  dag.AddDep(b, c);
  dag.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(dag.AllDone());
  EXPECT_EQ(sim.Now(), SimTime::Micros(7));
}

TEST(DagEngineTest, IndependentOpsRunConcurrently) {
  Simulator sim;
  DagEngine dag(&sim);
  std::vector<std::string> log;
  dag.AddOp(TimedOp(&sim, SimTime::Micros(10), &log, "slow"));
  dag.AddOp(TimedOp(&sim, SimTime::Micros(1), &log, "fast"));
  dag.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"fast", "slow"}));
  EXPECT_EQ(sim.Now(), SimTime::Micros(10));  // not 11: concurrent
}

TEST(DagEngineTest, DiamondJoinWaitsForBothBranches) {
  Simulator sim;
  DagEngine dag(&sim);
  std::vector<std::string> log;
  OpId src = dag.AddOp(nullptr);
  OpId l = dag.AddOp(TimedOp(&sim, SimTime::Micros(3), &log, "l"));
  OpId r = dag.AddOp(TimedOp(&sim, SimTime::Micros(9), &log, "r"));
  OpId sink = dag.AddOp(TimedOp(&sim, SimTime::Micros(1), &log, "sink"));
  dag.AddDep(src, l);
  dag.AddDep(src, r);
  dag.AddDep(l, sink);
  dag.AddDep(r, sink);
  dag.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"l", "r", "sink"}));
  EXPECT_EQ(sim.Now(), SimTime::Micros(10));
}

TEST(DagEngineTest, NullOpIsInstantNoOp) {
  Simulator sim;
  DagEngine dag(&sim);
  OpId barrier = dag.AddOp(nullptr);
  bool after_ran = false;
  OpId after = dag.AddOp([&](DagEngine::Done done) {
    after_ran = true;
    done();
  });
  dag.AddDep(barrier, after);
  dag.Start();
  sim.Run();
  EXPECT_TRUE(after_ran);
  EXPECT_EQ(sim.Now().nanos(), 0);
}

TEST(DagEngineTest, OpDoneFlags) {
  Simulator sim;
  DagEngine dag(&sim);
  OpId a = dag.AddOp(nullptr);
  EXPECT_FALSE(dag.OpDone(a));
  dag.Start();
  sim.Run();
  EXPECT_TRUE(dag.OpDone(a));
  EXPECT_EQ(dag.ops_completed(), 1u);
}

TEST(DagEngineTest, LongChainDoesNotOverflowStack) {
  Simulator sim;
  DagEngine dag(&sim);
  OpId prev = kInvalidOp;
  for (int i = 0; i < 50'000; ++i) {
    OpId op = dag.AddOp(nullptr);
    if (prev != kInvalidOp) {
      dag.AddDep(prev, op);
    }
    prev = op;
  }
  dag.Start();
  sim.Run();
  EXPECT_TRUE(dag.AllDone());
}

// Successor op that records whether it ran.
OpId AddFlagOp(DagEngine* dag, bool* ran) {
  return dag->AddOp([ran](DagEngine::Done done) {
    *ran = true;
    done();
  });
}

TEST(ProxyTest, OpWaitsForKReleases) {
  Simulator sim;
  DagEngine dag(&sim);
  DependencyProxy proxy;
  OpId p = dag.AddOp(proxy.WaitFor(3));
  bool after = false;
  dag.AddDep(p, AddFlagOp(&dag, &after));
  dag.Start();
  sim.Run();
  proxy.Release();
  proxy.Release();
  sim.Run();
  EXPECT_FALSE(after);  // two of the three communications finished
  proxy.Release();
  sim.Run();
  EXPECT_TRUE(after);
}

TEST(ProxyTest, EngineStartThenRelease) {
  Simulator sim;
  DagEngine dag(&sim);
  DependencyProxy proxy;
  OpId p = dag.AddOp(proxy.WaitFor(1));
  bool after = false;
  dag.AddDep(p, AddFlagOp(&dag, &after));
  dag.Start();
  sim.Run();
  // Engine started the proxy (original dependencies met), but the successor
  // stays blocked until the scheduler releases it.
  EXPECT_FALSE(dag.OpDone(p));
  EXPECT_FALSE(after);
  proxy.Release();
  EXPECT_TRUE(dag.OpDone(p));  // the release completes the waiting op inline
  sim.Run();
  EXPECT_TRUE(after);
}

TEST(ProxyTest, ReleaseBeforeStartCompletesImmediately) {
  Simulator sim;
  DagEngine dag(&sim);
  DependencyProxy proxy;
  proxy.Release();  // scheduler released before the engine reached the proxy
  OpId p = dag.AddOp(proxy.WaitFor(1));
  bool after = false;
  dag.AddDep(p, AddFlagOp(&dag, &after));
  dag.Start();
  sim.Run();
  EXPECT_TRUE(after);
}

TEST(ImperativeEngineTest, StreamOpsRunInPostOrder) {
  Simulator sim;
  ImperativeEngine eng(&sim);
  std::vector<std::string> log;
  // Post a slow op first and a fast op second: FIFO stream order must hold
  // even though the second op is shorter.
  eng.Post(TimedOp(&sim, SimTime::Micros(10), &log, "slow"));
  eng.Post(TimedOp(&sim, SimTime::Micros(1), &log, "fast"));
  eng.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"slow", "fast"}));
  EXPECT_EQ(sim.Now(), SimTime::Micros(11));  // serialized
}

TEST(ImperativeEngineTest, BackgroundOpsRunOffStream) {
  Simulator sim;
  ImperativeEngine eng(&sim);
  std::vector<std::string> log;
  eng.Post(TimedOp(&sim, SimTime::Micros(10), &log, "compute"));
  eng.PostBackground(TimedOp(&sim, SimTime::Micros(2), &log, "comm"));
  eng.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"comm", "compute"}));
  EXPECT_EQ(sim.Now(), SimTime::Micros(10));  // concurrent
}

TEST(ImperativeEngineTest, ForwardPreHookBlocksStream) {
  Simulator sim;
  ImperativeEngine eng(&sim);
  std::vector<std::string> log;
  DependencyProxy proxy;
  eng.RegisterForwardPreHook(0, proxy.WaitFor(1));
  eng.PostForward(0, TimedOp(&sim, SimTime::Micros(1), &log, "f0"));
  eng.Start();
  sim.Run();
  EXPECT_TRUE(log.empty());  // blocked by the un-released hook
  proxy.Release();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"f0"}));
}

TEST(ImperativeEngineTest, ForwardPreHookCountsIterationsAcrossCopies) {
  Simulator sim;
  ImperativeEngine eng(&sim);
  std::vector<std::string> log;
  DependencyProxy proxy;
  // Each PostForward runs its own copy of the hook; iteration k's copy must
  // wait for k releases, so the count cannot live in the copy.
  eng.RegisterForwardPreHook(0, proxy.WaitForNext());
  for (const char* name : {"f0", "f1", "f2"}) {
    eng.PostForward(0, TimedOp(&sim, SimTime::Micros(1), &log, name));
  }
  eng.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"f0"}));
  proxy.Release();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"f0", "f1"}));
  proxy.Release();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"f0", "f1", "f2"}));
}

TEST(ImperativeEngineTest, BackwardHookRunsAfterLayer) {
  Simulator sim;
  ImperativeEngine eng(&sim);
  std::vector<std::string> log;
  eng.RegisterBackwardHook(3, [&](DagEngine::Done done) {
    log.push_back("hook3");
    done();
  });
  eng.PostBackward(3, TimedOp(&sim, SimTime::Micros(1), &log, "b3"));
  eng.PostBackward(2, TimedOp(&sim, SimTime::Micros(1), &log, "b2"));
  eng.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"b3", "hook3", "b2"}));
}

TEST(ImperativeEngineTest, AfterAddsExplicitDependency) {
  Simulator sim;
  ImperativeEngine eng(&sim);
  std::vector<std::string> log;
  OpId comm = eng.PostBackground(TimedOp(&sim, SimTime::Micros(20), &log, "comm"));
  OpId step = eng.Post(TimedOp(&sim, SimTime::Micros(1), &log, "step"));
  eng.After(comm, step);  // optimizer.step waits for communication
  eng.Start();
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"comm", "step"}));
  EXPECT_EQ(sim.Now(), SimTime::Micros(21));
}

}  // namespace
}  // namespace bsched
