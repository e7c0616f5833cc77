// Avoidance-module tests: signature instantiation prediction, suspension,
// yield-cycle override, FP detection wiring, and the immunity lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "dimmunix/runtime.hpp"
#include "sim/workload.hpp"
#include "util/clock.hpp"

namespace communix::dimmunix {
namespace {

using sim::AbbaWorkload;
using testutil::F;

class AvoidanceTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
};

TEST_F(AvoidanceTest, FirstRunDeadlocksSecondRunImmune) {
  // The headline Dimmunix lifecycle (§II-A): encounter once, immune after.
  DimmunixRuntime rt(clock_);
  AbbaWorkload workload(/*iterations=*/30);
  const auto result = workload.Run(rt);
  EXPECT_TRUE(result.deadlocked) << "unprotected first run should deadlock";
  const History hist = rt.SnapshotHistory();
  ASSERT_GE(hist.size(), 1u);

  // "Restart" the application: fresh runtime, learned history installed.
  DimmunixRuntime rt2(clock_);
  for (const auto& rec : hist.records()) {
    rt2.AddSignature(rec.sig, SignatureOrigin::kLocal);
  }
  const auto result2 = AbbaWorkload(/*iterations=*/30).Run(rt2);
  EXPECT_FALSE(result2.deadlocked) << "signature should confer immunity";
  EXPECT_EQ(rt2.GetStats().deadlocks_detected, 0u);
  EXPECT_GT(rt2.GetStats().avoidance_suspensions, 0u)
      << "avoidance must have intervened";
  EXPECT_EQ(result2.completed_pairs, 2 * 30);
}

TEST_F(AvoidanceTest, RemoteSignatureConfersImmunityWithoutEncounter) {
  // The Communix value proposition: a signature learned elsewhere
  // protects a node that never deadlocked.
  DimmunixRuntime learner(clock_);
  const auto learned = AbbaWorkload(20).Run(learner);
  ASSERT_TRUE(learned.deadlocked);
  const History hist = learner.SnapshotHistory();
  ASSERT_GE(hist.size(), 1u);

  DimmunixRuntime fresh_node(clock_);
  fresh_node.AddSignature(hist.record(0).sig, SignatureOrigin::kRemote);
  const auto protected_run = AbbaWorkload(20).Run(fresh_node);
  EXPECT_FALSE(protected_run.deadlocked);
  EXPECT_EQ(fresh_node.GetStats().deadlocks_detected, 0u);
}

TEST_F(AvoidanceTest, AvoidanceDisabledStillDeadlocks) {
  DimmunixRuntime learner(clock_);
  const auto learned = AbbaWorkload(20).Run(learner);
  ASSERT_TRUE(learned.deadlocked);
  const History hist = learner.SnapshotHistory();

  DimmunixRuntime::Options opts;
  opts.avoidance_enabled = false;
  DimmunixRuntime rt(clock_, opts);
  for (const auto& rec : hist.records()) {
    rt.AddSignature(rec.sig, SignatureOrigin::kLocal);
  }
  const auto result = AbbaWorkload(20).Run(rt);
  EXPECT_TRUE(result.deadlocked)
      << "without avoidance the signature is inert";
}

TEST_F(AvoidanceTest, UnrelatedSignatureDoesNotSuspend) {
  DimmunixRuntime rt(clock_);
  // A signature whose stacks never occur in the Abba workload.
  rt.AddSignature(
      testutil::Sig2(testutil::ChainStack("zz.P", 6, F("zz.P", "s", 1)),
                     testutil::ChainStack("zz.P", 6, F("zz.P", "i", 2)),
                     testutil::ChainStack("zz.Q", 6, F("zz.Q", "s", 3)),
                     testutil::ChainStack("zz.Q", 6, F("zz.Q", "i", 4))),
      SignatureOrigin::kRemote);
  // A single encounter: the unrelated signature must not gate anything,
  // so the real bug manifests. (After that first deadlock the *learned*
  // signature would rightly start suspending threads, so the
  // no-suspension assertion is only valid for one iteration.)
  const auto result = AbbaWorkload(1).Run(rt);
  EXPECT_GT(rt.GetStats().acquisitions, 0u);
  EXPECT_EQ(rt.GetStats().avoidance_suspensions, 0u);
  EXPECT_TRUE(result.deadlocked);
}

TEST_F(AvoidanceTest, DisabledSignatureDoesNotAvoid) {
  DimmunixRuntime learner(clock_);
  ASSERT_TRUE(AbbaWorkload(20).Run(learner).deadlocked);
  const History hist = learner.SnapshotHistory();

  DimmunixRuntime rt(clock_);
  rt.AddSignature(hist.record(0).sig, SignatureOrigin::kLocal);
  rt.WithHistory([&](History& h) {
    ASSERT_TRUE(h.Disable(hist.record(0).sig.ContentId()));
  });
  const auto result = AbbaWorkload(20).Run(rt);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(rt.GetStats().avoidance_suspensions, 0u);
}

TEST_F(AvoidanceTest, GeneralizedSignatureStillAvoids) {
  // Trim a learned signature (as generalization would) and confirm the
  // shallower abstraction still prevents the deadlock.
  DimmunixRuntime learner(clock_);
  ASSERT_TRUE(AbbaWorkload(20).Run(learner).deadlocked);
  const Signature original = learner.SnapshotHistory().record(0).sig;

  std::vector<SignatureEntry> entries = original.entries();
  for (auto& e : entries) e.outer.TrimToDepth(1);
  const Signature generalized{std::move(entries)};

  DimmunixRuntime rt(clock_);
  rt.AddSignature(generalized, SignatureOrigin::kLocal);
  const auto result = AbbaWorkload(20).Run(rt);
  EXPECT_FALSE(result.deadlocked);
}

TEST_F(AvoidanceTest, FalsePositiveCallbackFiresUnderPressure) {
  DimmunixRuntime::Options opts;
  opts.fp.instantiation_threshold = 10;  // small for test speed
  opts.fp.burst_threshold = 2;
  DimmunixRuntime rt(clock_, opts);
  std::atomic<int> warnings{0};
  rt.SetFalsePositiveCallback([&](const Signature&) { warnings.fetch_add(1); });

  DimmunixRuntime learner(clock_);
  ASSERT_TRUE(AbbaWorkload(20).Run(learner).deadlocked);
  rt.AddSignature(learner.SnapshotHistory().record(0).sig,
                  SignatureOrigin::kRemote);

  // Many protected encounters => many instantiations in a burst (virtual
  // clock stands still, so all fall in one 1-second window).
  AbbaWorkload(60).Run(rt);
  EXPECT_GE(rt.GetStats().avoidance_suspensions, 10u);
  EXPECT_GE(warnings.load(), 1);
}

TEST_F(AvoidanceTest, FalsePositiveCallbackNamesTheFlaggedSignature) {
  // The flagged signature sits in the middle of 120 unrelated records;
  // the warning must carry it, not a neighbour.
  DimmunixRuntime::Options opts;
  opts.fp.instantiation_threshold = 10;
  opts.fp.burst_threshold = 2;
  DimmunixRuntime rt(clock_, opts);
  std::mutex mu;
  std::vector<Signature> warned;
  rt.SetFalsePositiveCallback([&](const Signature& s) {
    std::lock_guard lock(mu);
    warned.push_back(s);
  });

  DimmunixRuntime learner(clock_);
  ASSERT_TRUE(AbbaWorkload(20).Run(learner).deadlocked);
  const Signature abba = learner.SnapshotHistory().record(0).sig;
  for (std::uint32_t i = 0; i < 120; ++i) {
    if (i == 60) rt.AddSignature(abba, SignatureOrigin::kRemote);
    const std::string cls = "zz.U" + std::to_string(i);
    rt.AddSignature(
        testutil::Sig2(testutil::ChainStack(cls, 6, F(cls, "s", 1)),
                       testutil::ChainStack(cls, 6, F(cls, "i", 2)),
                       testutil::ChainStack(cls, 6, F(cls, "t", 3)),
                       testutil::ChainStack(cls, 6, F(cls, "j", 4))),
        SignatureOrigin::kRemote);
  }
  ASSERT_EQ(rt.SnapshotHistory().size(), 121u);

  AbbaWorkload(60).Run(rt);
  std::lock_guard lock(mu);
  ASSERT_FALSE(warned.empty());
  for (const Signature& s : warned) {
    EXPECT_EQ(s, abba);
    EXPECT_EQ(s.ContentId(), abba.ContentId());
  }
}

TEST_F(AvoidanceTest, AutoDisableLiftsSerialization) {
  DimmunixRuntime::Options opts;
  opts.fp.instantiation_threshold = 5;
  opts.fp.burst_threshold = 2;
  opts.auto_disable_false_positives = true;
  DimmunixRuntime rt(clock_, opts);

  DimmunixRuntime learner(clock_);
  ASSERT_TRUE(AbbaWorkload(20).Run(learner).deadlocked);
  const Signature sig = learner.SnapshotHistory().record(0).sig;
  rt.AddSignature(sig, SignatureOrigin::kRemote);

  AbbaWorkload(40).Run(rt);
  bool disabled = false;
  rt.WithHistory([&](History& h) { disabled = h.record(0).disabled; });
  EXPECT_TRUE(disabled);
}

TEST_F(AvoidanceTest, YieldCycleOverridePreventsAvoidanceStall) {
  // Craft a situation where suspending would deadlock the avoider with an
  // occupant that waits on a lock the avoider holds. The runtime must
  // detect the yield cycle and let the acquisition proceed.
  DimmunixRuntime rt(clock_);

  // Learn the signature for (lockStmtA, lockStmtB).
  DimmunixRuntime learner(clock_);
  ASSERT_TRUE(AbbaWorkload(10).Run(learner).deadlocked);
  const Signature sig = learner.SnapshotHistory().record(0).sig;
  rt.AddSignature(sig, SignatureOrigin::kLocal);

  Monitor a("A"), b("B"), extra("X");
  std::atomic<bool> t1_holds_extra{false};
  std::atomic<bool> t2_waits_extra{false};
  std::atomic<bool> done{false};

  // t1: holds `extra`, then tries A (matching the signature). t2 occupies
  // the other position (holds B with matching stack) but is itself
  // blocked on `extra`. Suspending t1 would stall everyone; the override
  // must let t1 through. t2 waits for t1_holds_extra so it genuinely
  // blocks (otherwise it could race past `extra` and detach).
  std::thread t2([&] {
    auto& ctx = rt.AttachThread("t2");
    ScopedFrame fr(ctx, "app.Worker2", "run", 10);
    ScopedFrame fr2(ctx, "app.Worker2", "step", 20);
    ctx.SetLine(30);
    ASSERT_TRUE(rt.Acquire(ctx, b).ok());
    while (!t1_holds_extra.load()) std::this_thread::yield();
    ctx.SetLine(35);
    t2_waits_extra.store(true);
    const Status s = rt.Acquire(ctx, extra);  // blocks until t1 releases
    if (s.ok()) rt.Release(ctx, extra);
    rt.Release(ctx, b);
    rt.DetachThread(ctx);
  });

  std::thread t1([&] {
    auto& ctx = rt.AttachThread("t1");
    ScopedFrame fr(ctx, "app.Worker1", "run", 10);
    ScopedFrame fr2(ctx, "app.Worker1", "step", 20);
    ctx.SetLine(5);
    ASSERT_TRUE(rt.Acquire(ctx, extra).ok());
    t1_holds_extra.store(true);
    while (!t2_waits_extra.load()) std::this_thread::yield();
    // Give t2 time to actually block on `extra` after raising its flag.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.SetLine(30);
    const Status s = rt.Acquire(ctx, a);  // would complete the sig pattern
    EXPECT_TRUE(s.ok());
    if (s.ok()) rt.Release(ctx, a);
    rt.Release(ctx, extra);
    done.store(true);
    rt.DetachThread(ctx);
  });

  t1.join();
  t2.join();
  EXPECT_TRUE(done.load());
  EXPECT_GE(rt.GetStats().yield_cycle_overrides, 1u);
}

}  // namespace
}  // namespace communix::dimmunix
