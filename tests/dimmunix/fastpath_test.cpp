// Fast-path architecture tests:
//  * the structural guarantee — uncontended Acquire/Release cycles whose
//    top frame has no candidates, or whose candidates' peer positions
//    are empty, never enter the global-lock slow path; an occupied peer
//    bucket routes a candidate hit to the slow path's scan;
//  * the equivalence property — RuntimeMode::kFastPath and kGlobalLock
//    produce identical avoidance/detection outcomes on randomized
//    workloads (single-threaded traces, scripted suspension scenarios,
//    and the ABBA immunity lifecycle);
//  * multithreaded stresses of concurrent fast-path acquire/release vs.
//    index republish + snapshot polling, and of fast and slow adaptive
//    gates racing on one signature (run under ThreadSanitizer by
//    tools/ci.sh --tsan);
//  * the DetachThread reap regression (threads_ must not grow without
//    bound under attach/detach churn).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "dimmunix/runtime.hpp"
#include "schedule_harness.hpp"
#include "sim/workload.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace communix::dimmunix {
namespace {

using sim::AbbaWorkload;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

DimmunixRuntime::Options ModeOptions(RuntimeMode mode) {
  DimmunixRuntime::Options opts;
  opts.mode = mode;
  return opts;
}

/// An irrelevant signature whose stacks never occur in these workloads.
Signature UnrelatedSig(std::uint32_t salt) {
  return Sig2(ChainStack("zz.P", 6, F("zz.P", "s", 1 + salt)),
              ChainStack("zz.P", 6, F("zz.P", "i", 100 + salt)),
              ChainStack("zz.Q", 6, F("zz.Q", "s", 2 + salt)),
              ChainStack("zz.Q", 6, F("zz.Q", "i", 200 + salt)));
}

// ---------------------------------------------------------------------------
// Structural guarantee: candidate-free + uncontended => slow path untouched.
// ---------------------------------------------------------------------------

TEST(FastPathTest, UncontendedCandidateFreeCycleNeverEntersSlowPath) {
  VirtualClock clock;
  DimmunixRuntime rt(clock, ModeOptions(RuntimeMode::kFastPath));
  // A populated (but unrelated) history: the index is non-empty, so the
  // fast path really is making a candidate lookup, not skipping on empty.
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_GE(rt.AddSignature(UnrelatedSig(i), SignatureOrigin::kRemote), 0);
  }

  auto& ctx = rt.AttachThread("t");
  Monitor m;
  ScopedFrame f(ctx, "app.C", "run", 1);
  constexpr std::uint64_t kCycles = 200;
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    ASSERT_TRUE(rt.Acquire(ctx, m).ok());
    // One reentrant hop per cycle: also must stay off the slow path.
    ASSERT_TRUE(rt.Acquire(ctx, m).ok());
    rt.Release(ctx, m);
    rt.Release(ctx, m);
  }
  rt.DetachThread(ctx);

  const auto stats = rt.GetStats();
  EXPECT_EQ(stats.slow_path_entries, 0u)
      << "the structural win must hold even where wall-clock speedups "
         "don't (single-core container)";
  EXPECT_EQ(stats.fast_path_acquisitions, kCycles);
  EXPECT_EQ(stats.fast_path_releases, kCycles);
  EXPECT_EQ(stats.acquisitions, 2 * kCycles);
  EXPECT_EQ(stats.contended_acquisitions, 0u);
}

TEST(FastPathTest, GlobalLockModeRoutesEverythingThroughSlowPath) {
  VirtualClock clock;
  DimmunixRuntime rt(clock, ModeOptions(RuntimeMode::kGlobalLock));
  auto& ctx = rt.AttachThread("t");
  Monitor m;
  ScopedFrame f(ctx, "app.C", "run", 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rt.Acquire(ctx, m).ok());
    rt.Release(ctx, m);
  }
  rt.DetachThread(ctx);
  const auto stats = rt.GetStats();
  EXPECT_EQ(stats.slow_path_entries, 10u);
  EXPECT_EQ(stats.fast_path_acquisitions, 0u);
  EXPECT_EQ(stats.fast_path_releases, 0u);
}

/// Signature whose first outer top frame IS the acquiring site below
/// (hit.A sync:30); its peer position's top frame is hit.B sync:40.
Signature CandidateHitSig() {
  return Sig2(ChainStack("hit.A", 3, F("hit.A", "sync", 30)),
              ChainStack("hit.A", 3, F("hit.A", "in", 31)),
              ChainStack("hit.B", 3, F("hit.B", "sync", 40)),
              ChainStack("hit.B", 3, F("hit.B", "in", 41)));
}

TEST(FastPathTest, CandidateHitWithEmptyPeersStaysOnFastPath) {
  VirtualClock clock;
  DimmunixRuntime rt(clock, ModeOptions(RuntimeMode::kFastPath));
  rt.AddSignature(CandidateHitSig(), SignatureOrigin::kRemote);
  auto& ctx = rt.AttachThread("t");
  Monitor m;
  ScopedFrame f0(ctx, "hit.A", "m0", 1);
  ScopedFrame f1(ctx, "hit.A", "m1", 2);
  ScopedFrame top(ctx, "hit.A", "sync", 30);
  ASSERT_TRUE(rt.Acquire(ctx, m).ok());  // no peer occupied: skip the scan
  rt.Release(ctx, m);
  rt.DetachThread(ctx);
  const auto stats = rt.GetStats();
  EXPECT_EQ(stats.slow_path_entries, 0u);
  EXPECT_EQ(stats.scans_skipped, 1u);
  EXPECT_EQ(stats.instantiation_scans, 0u);
  EXPECT_EQ(stats.fast_path_acquisitions, 1u);
}

TEST(FastPathTest, CandidateHitWithOccupiedPeerRoutesToSlowPath) {
  VirtualClock clock;
  DimmunixRuntime rt(clock, ModeOptions(RuntimeMode::kFastPath));
  rt.AddSignature(CandidateHitSig(), SignatureOrigin::kRemote);

  // The occupant holds a monitor at the peer's top frame, under a stack
  // whose lower frames differ: it fills the peer bucket without
  // matching the peer position, so the scan runs and finds nothing.
  auto& occupant = rt.AttachThread("occupant");
  Monitor held;
  ScopedFrame o0(occupant, "hit.Other", "run", 7);
  ScopedFrame otop(occupant, "hit.B", "sync", 40);
  ASSERT_TRUE(rt.Acquire(occupant, held).ok());
  const auto before = rt.GetStats();

  auto& ctx = rt.AttachThread("t");
  Monitor m;
  ScopedFrame f0(ctx, "hit.A", "m0", 1);
  ScopedFrame f1(ctx, "hit.A", "m1", 2);
  ScopedFrame top(ctx, "hit.A", "sync", 30);
  ASSERT_TRUE(rt.Acquire(ctx, m).ok());  // peer bucket occupied: scan
  const auto after = rt.GetStats();
  rt.Release(ctx, m);
  rt.Release(occupant, held);
  rt.DetachThread(ctx);
  rt.DetachThread(occupant);

  EXPECT_EQ(after.slow_path_entries - before.slow_path_entries, 1u);
  EXPECT_EQ(after.instantiation_scans - before.instantiation_scans, 1u);
  EXPECT_EQ(after.scans_skipped - before.scans_skipped, 0u);
  EXPECT_EQ(after.fast_path_acquisitions - before.fast_path_acquisitions,
            0u);
  EXPECT_EQ(after.avoidance_suspensions, 0u);
}

// ---------------------------------------------------------------------------
// Equivalence property: randomized single-threaded traces.
// ---------------------------------------------------------------------------

struct TraceOutcome {
  std::vector<ErrorCode> statuses;
  DimmunixRuntime::Stats stats;
};

/// Runs a deterministic pseudo-random acquire/release/frame trace (seeded
/// by `seed`) against a runtime built from `opts`; the trace mixes
/// candidate-free and candidate-hitting top frames, reentrancy, and
/// mid-trace index republishes (AddSignature / Disable / ReEnable).
TraceOutcome RunRandomTrace(const DimmunixRuntime::Options& opts,
                            std::uint64_t seed) {
  VirtualClock clock;
  DimmunixRuntime rt(clock, opts);
  Rng rng(seed);

  // Random history over a small pool so trace tops sometimes collide.
  std::vector<std::uint64_t> contents;
  const std::uint32_t sigs = 1 + rng.NextBounded(3);
  for (std::uint32_t k = 0; k < sigs; ++k) {
    const std::uint32_t dep = 1 + rng.NextBounded(3);
    const Signature sig =
        Sig2(ChainStack("tr.A", dep, F("tr.A", "sync", 50 + k)),
             ChainStack("tr.A", dep, F("tr.A", "in", 70 + k)),
             ChainStack("tr.B", dep, F("tr.B", "sync", 60 + k)),
             ChainStack("tr.B", dep, F("tr.B", "in", 80 + k)));
    contents.push_back(sig.ContentId());
    rt.AddSignature(sig, SignatureOrigin::kRemote);
  }
  if (rng.NextBool(0.5)) {
    const std::uint64_t victim = contents[rng.NextBounded(
        static_cast<std::uint32_t>(contents.size()))];
    rt.WithHistory([&](History& h) { h.Disable(victim); });
  }

  auto& ctx = rt.AttachThread("trace");
  std::vector<std::unique_ptr<Monitor>> monitors;
  for (int i = 0; i < 6; ++i) monitors.push_back(std::make_unique<Monitor>());
  std::vector<int> held(monitors.size(), 0);

  TraceOutcome out;
  for (int op = 0; op < 400; ++op) {
    const std::uint32_t kind = rng.NextBounded(100);
    if (kind < 30) {
      if (ctx.stack_depth() < 10) {
        const char* cls = rng.NextBool(0.5) ? "tr.A" : "tr.B";
        // "sync" methods at pooled lines collide with signature tops.
        if (rng.NextBool(0.4)) {
          ctx.PushFrame(F(cls, "sync", 50 + rng.NextBounded(12)));
        } else {
          ctx.PushFrame(F(cls, "m" + std::to_string(rng.NextBounded(4)),
                          1 + rng.NextBounded(8)));
        }
      }
    } else if (kind < 40) {
      if (ctx.stack_depth() > 1) ctx.PopFrame();
    } else if (kind < 50) {
      ctx.SetLine(rng.NextBool(0.5) ? 50 + rng.NextBounded(12)
                                    : 1 + rng.NextBounded(8));
    } else if (kind < 55) {
      // Mid-trace republish: learning/flag churn while the trace runs.
      if (rng.NextBool(0.5)) {
        rt.AddSignature(UnrelatedSig(1000 + rng.NextBounded(64)),
                        SignatureOrigin::kRemote);
      } else {
        const std::uint64_t victim = contents[rng.NextBounded(
            static_cast<std::uint32_t>(contents.size()))];
        const bool disable = rng.NextBool(0.5);
        rt.WithHistory([&](History& h) {
          if (disable) {
            h.Disable(victim);
          } else {
            h.ReEnable(victim);
          }
        });
      }
    } else if (kind < 80) {
      if (ctx.stack_depth() == 0) continue;
      const std::size_t i = rng.NextBounded(
          static_cast<std::uint32_t>(monitors.size()));
      const Status s = rt.Acquire(ctx, *monitors[i]);
      out.statuses.push_back(s.code());
      if (s.ok()) ++held[i];
    } else {
      std::vector<std::size_t> owned;
      for (std::size_t i = 0; i < held.size(); ++i) {
        if (held[i] > 0) owned.push_back(i);
      }
      if (owned.empty()) continue;
      const std::size_t i =
          owned[rng.NextBounded(static_cast<std::uint32_t>(owned.size()))];
      rt.Release(ctx, *monitors[i]);
      --held[i];
    }
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    while (held[i]-- > 0) rt.Release(ctx, *monitors[i]);
  }
  rt.DetachThread(ctx);
  out.stats = rt.GetStats();
  return out;
}

TEST(FastPathEquivalenceTest, RandomTracesProduceIdenticalOutcomes) {
  DimmunixRuntime::Options global = ModeOptions(RuntimeMode::kGlobalLock);
  DimmunixRuntime::Options fast_plain = ModeOptions(RuntimeMode::kFastPath);
  fast_plain.adaptive_avoidance = false;
  const DimmunixRuntime::Options fast_adaptive =
      ModeOptions(RuntimeMode::kFastPath);  // adaptive gate on by default
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const TraceOutcome ref = RunRandomTrace(global, seed);
    for (const auto& [label, opts] :
         {std::pair<const char*, const DimmunixRuntime::Options&>(
              "fast", fast_plain),
          std::pair<const char*, const DimmunixRuntime::Options&>(
              "adaptive", fast_adaptive)}) {
      const TraceOutcome got = RunRandomTrace(opts, seed);
      ASSERT_EQ(got.statuses, ref.statuses) << label << " seed " << seed;
      EXPECT_EQ(got.stats.acquisitions, ref.stats.acquisitions)
          << label << " seed " << seed;
      EXPECT_EQ(got.stats.avoidance_suspensions,
                ref.stats.avoidance_suspensions)
          << label << " seed " << seed;
      EXPECT_EQ(got.stats.deadlocks_detected, ref.stats.deadlocks_detected)
          << label << " seed " << seed;
      EXPECT_EQ(got.stats.signatures_learned, ref.stats.signatures_learned)
          << label << " seed " << seed;
      EXPECT_EQ(got.stats.adaptive_gate_mismatches, 0u)
          << label << " seed " << seed;
    }
    // The trace is single-threaded: nothing can occupy the other
    // signature positions, so no mode may ever suspend or detect.
    EXPECT_EQ(ref.stats.avoidance_suspensions, 0u);
    EXPECT_EQ(ref.stats.deadlocks_detected, 0u);
  }
}

// ---------------------------------------------------------------------------
// Equivalence property: scripted two-thread suspension scenarios, driven
// by the deterministic schedule harness (schedule_harness.hpp). The
// harness serializes the interleaving, so unlike the PR-2 handshake
// version these scenarios compare full step traces, not just counters.
// The exhaustive truth table lives in schedule_harness_test.cpp (the
// script builder is shared); this suite adds randomized deeper variants.
// ---------------------------------------------------------------------------

TEST(FastPathEquivalenceTest, ScriptedSuspensionScenariosAgree) {
  namespace sched = communix::dimmunix::schedule;
  Rng rng(0xFA57);
  std::vector<sched::OneSidedSuspension> scenarios;
  for (int i = 0; i < 10; ++i) {
    scenarios.push_back(sched::OneSidedSuspension{
        static_cast<std::uint32_t>(2 + rng.NextBounded(3)), rng.NextBool(0.5),
        rng.NextBool(0.5), rng.NextBool(0.5)});
  }

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const sched::OneSidedSuspension& p = scenarios[i];
    const sched::Script script = sched::OneSidedSuspensionScript(p);
    DimmunixRuntime::Options global = ModeOptions(RuntimeMode::kGlobalLock);
    global.adaptive_avoidance = false;
    const sched::RunResult ref = sched::RunSchedule(
        global, script, sched::OccupantThenAcquirerOrder(p.depth));
    const sched::RunResult fast =
        sched::RunSchedule(ModeOptions(RuntimeMode::kFastPath), script,
                           sched::OccupantThenAcquirerOrder(p.depth));
    EXPECT_EQ(ref.steps, fast.steps)
        << "scenario " << i << "\n  ref: " << ref.Trace()
        << "\n  fast: " << fast.Trace();
    const std::uint64_t expected = p.ExpectSuspension() ? 1u : 0u;
    EXPECT_EQ(fast.stats.avoidance_suspensions, expected) << "scenario " << i;
    EXPECT_EQ(ref.stats.avoidance_suspensions, expected) << "scenario " << i;
    EXPECT_EQ(fast.stats.deadlocks_detected, 0u) << "scenario " << i;
    EXPECT_EQ(ref.stats.deadlocks_detected, 0u) << "scenario " << i;
    EXPECT_EQ(fast.stats.acquisitions, ref.stats.acquisitions)
        << "scenario " << i;
  }
}

// ---------------------------------------------------------------------------
// Equivalence property: detection + immunity lifecycle.
// ---------------------------------------------------------------------------

TEST(FastPathEquivalenceTest, AbbaLifecycleAgreesAcrossModes) {
  std::vector<History> learned;
  for (const RuntimeMode mode :
       {RuntimeMode::kFastPath, RuntimeMode::kGlobalLock}) {
    VirtualClock clock;
    DimmunixRuntime rt(clock, ModeOptions(mode));
    const auto result = AbbaWorkload(/*iterations=*/20).Run(rt);
    EXPECT_TRUE(result.deadlocked);
    EXPECT_GE(rt.GetStats().deadlocks_detected, 1u);
    learned.push_back(rt.SnapshotHistory());
  }
  ASSERT_EQ(learned[0].size(), learned[1].size());
  for (std::size_t i = 0; i < learned[0].size(); ++i) {
    EXPECT_TRUE(learned[1].ContainsContent(
        learned[0].record(i).sig.ContentId()))
        << "modes learned different signatures";
  }

  // Immunity: the signature learned under one mode protects the other.
  for (const RuntimeMode mode :
       {RuntimeMode::kFastPath, RuntimeMode::kGlobalLock}) {
    VirtualClock clock;
    DimmunixRuntime rt(clock, ModeOptions(mode));
    for (const auto& rec : learned[0].records()) {
      rt.AddSignature(rec.sig, SignatureOrigin::kLocal);
    }
    const auto result = AbbaWorkload(/*iterations=*/20).Run(rt);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(rt.GetStats().deadlocks_detected, 0u);
    EXPECT_GT(rt.GetStats().avoidance_suspensions, 0u);
    EXPECT_EQ(result.completed_pairs, 2 * 20);
  }
}

// ---------------------------------------------------------------------------
// Concurrency stress: fast-path traffic vs. index republish (TSAN target).
// ---------------------------------------------------------------------------

TEST(FastPathStressTest, ConcurrentFastPathVsIndexRepublish) {
  VirtualClock clock;
  DimmunixRuntime rt(clock, ModeOptions(RuntimeMode::kFastPath));
  constexpr int kWorkers = 4;
  constexpr int kIters = 250;
  constexpr int kMutations = 120;

  // Disjoint per-worker monitors (uncontended fast path) plus two shared
  // monitors taken in consistent order (contended slow path).
  std::vector<std::unique_ptr<Monitor>> own;
  for (int i = 0; i < kWorkers; ++i) own.push_back(std::make_unique<Monitor>());
  Monitor shared_lo("lo"), shared_hi("hi");

  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xBEEF + static_cast<std::uint64_t>(t));
      for (int cycle = 0; cycle < 3; ++cycle) {  // attach/detach churn
        auto& ctx = rt.AttachThread("w" + std::to_string(t));
        ScopedFrame fr(ctx, "st.W", "run", static_cast<std::uint32_t>(t + 1));
        for (int i = 0; i < kIters; ++i) {
          ctx.SetLine(1 + rng.NextBounded(6));
          ASSERT_TRUE(rt.Acquire(ctx, *own[t]).ok());
          if (rng.NextBool(0.25)) {  // reentrant hop
            ASSERT_TRUE(rt.Acquire(ctx, *own[t]).ok());
            rt.Release(ctx, *own[t]);
          }
          if (rng.NextBool(0.2)) {  // shared pair, consistent order
            ctx.SetLine(10);
            ASSERT_TRUE(rt.Acquire(ctx, shared_lo).ok());
            ctx.SetLine(20);
            ASSERT_TRUE(rt.Acquire(ctx, shared_hi).ok());
            rt.Release(ctx, shared_hi);
            rt.Release(ctx, shared_lo);
          }
          rt.Release(ctx, *own[t]);
        }
        rt.DetachThread(ctx);
      }
    });
  }
  threads.emplace_back([&] {  // index republisher
    Rng rng(0x1D);
    std::vector<std::uint64_t> contents;
    for (int i = 0; i < kMutations; ++i) {
      const Signature sig = UnrelatedSig(2000 + static_cast<std::uint32_t>(i));
      contents.push_back(sig.ContentId());
      rt.AddSignature(sig, SignatureOrigin::kRemote);
      if (rng.NextBool(0.3)) {
        const std::uint64_t victim = contents[rng.NextBounded(
            static_cast<std::uint32_t>(contents.size()))];
        const bool disable = rng.NextBool(0.5);
        rt.WithHistory([&](History& h) {
          if (disable) {
            h.Disable(victim);
          } else {
            h.ReEnable(victim);
          }
        });
      }
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {  // version-gated snapshot poller
    std::uint64_t last_seen = ~std::uint64_t{0};
    std::size_t copies = 0;
    for (int i = 0; i < 200; ++i) {
      if (rt.SnapshotHistoryIfChanged(&last_seen)) ++copies;
      (void)rt.GetStats();
      std::this_thread::yield();
    }
    EXPECT_GT(copies, 0u);
  });

  for (auto& th : threads) th.join();

  const auto stats = rt.GetStats();
  EXPECT_EQ(stats.deadlocks_detected, 0u);
  EXPECT_GT(stats.fast_path_acquisitions, 0u);
  EXPECT_GT(stats.index_republishes, 0u);
  // Every attach/detach churn cycle left a reapable tombstone.
  EXPECT_LE(rt.ThreadRecordCount(), static_cast<std::size_t>(kWorkers) + 2);
}

// ---------------------------------------------------------------------------
// Concurrency stress: fast and slow adaptive gates racing on one ABBA
// signature (TSAN target). Threads take private and shared monitors at
// both of the signature's sites, sometimes nested (private, then
// shared), so gates read zero and non-zero peers, retract, suspend and
// hit yield cycles concurrently. Every zero read is verified at sample
// 1; at sample 3 most of them commit on the fast path instead. Any gate
// that admitted past the scan shows as a mismatch, and any
// mutual-exclusion failure as a lost entry-counter update.
// ---------------------------------------------------------------------------

TEST(FastPathStressTest, AdaptiveGateRacesAgreeWithVerificationScans) {
  // Site i's stack is "gr.<i> m0:1 / gr.<i> sync:<line>".
  const char* const kClass[] = {"gr.X", "gr.Y"};
  const std::uint32_t kLine[] = {10, 20};
  const Signature sig = Sig2(ChainStack("gr.X", 2, F("gr.X", "sync", 10)),
                             ChainStack("gr.X", 2, F("gr.X", "in", 11)),
                             ChainStack("gr.Y", 2, F("gr.Y", "sync", 20)),
                             ChainStack("gr.Y", 2, F("gr.Y", "in", 21)));
  constexpr int kWorkers = 4;
  constexpr int kIters = 3000;
  constexpr std::size_t kShared = 2;
  for (const std::uint32_t sample : {1u, 3u}) {
    VirtualClock clock;
    DimmunixRuntime::Options opts = ModeOptions(RuntimeMode::kFastPath);
    opts.adaptive_verify_sample = sample;
    DimmunixRuntime rt(clock, opts);
    rt.AddSignature(sig, SignatureOrigin::kRemote);

    // Monitor i's entry counter is bumped with a plain load + store
    // inside its critical section: a second owner loses an update.
    constexpr std::size_t kMonitors = kWorkers + kShared;
    std::vector<std::unique_ptr<Monitor>> monitors;
    for (std::size_t i = 0; i < kMonitors; ++i) {
      monitors.push_back(std::make_unique<Monitor>());
    }
    std::vector<std::atomic<std::uint64_t>> entries(kMonitors);
    std::vector<std::vector<std::uint64_t>> expected(
        kWorkers, std::vector<std::uint64_t>(kMonitors, 0));
    auto enter = [&](ThreadContext& ctx, std::size_t i, std::size_t t) {
      if (!rt.Acquire(ctx, *monitors[i]).ok()) return false;
      entries[i].store(entries[i].load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
      ++expected[t][i];
      std::this_thread::yield();  // widen the window peers race into
      return true;
    };

    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        const auto tt = static_cast<std::size_t>(t);
        Rng rng(0x6A7E + static_cast<std::uint64_t>(t) * 17 + sample);
        auto& ctx = rt.AttachThread("gr" + std::to_string(t));
        ready.fetch_add(1);
        while (ready.load() < kWorkers) std::this_thread::yield();
        for (int i = 0; i < kIters; ++i) {
          const std::size_t at = rng.NextBounded(2);
          const std::size_t mon =
              rng.NextBool(0.5) ? tt : kWorkers + rng.NextBounded(kShared);
          ScopedFrame base(ctx, kClass[at], "m0", 1);
          ScopedFrame site(ctx, kClass[at], "sync", kLine[at]);
          ASSERT_TRUE(enter(ctx, mon, tt));
          if (mon == tt && rng.NextBool(0.3)) {
            // Nested: private, then shared at the other site.
            ScopedFrame inner_base(ctx, kClass[1 - at], "m0", 1);
            ScopedFrame inner(ctx, kClass[1 - at], "sync", kLine[1 - at]);
            const std::size_t sh = kWorkers + rng.NextBounded(kShared);
            ASSERT_TRUE(enter(ctx, sh, tt));
            rt.Release(ctx, *monitors[sh]);
          }
          rt.Release(ctx, *monitors[mon]);
        }
        rt.DetachThread(ctx);
      });
    }
    for (auto& th : threads) th.join();

    for (std::size_t i = 0; i < kMonitors; ++i) {
      std::uint64_t want = 0;
      for (int t = 0; t < kWorkers; ++t) want += expected[t][i];
      EXPECT_EQ(entries[i].load(), want) << "monitor " << i << " sample "
                                         << sample;
    }
    const auto stats = rt.GetStats();
    EXPECT_EQ(stats.adaptive_gate_mismatches, 0u) << "sample " << sample;
    EXPECT_EQ(stats.deadlocks_detected, 0u) << "sample " << sample;
    EXPECT_GT(stats.sampled_verification_scans, 0u) << "sample " << sample;
    if (sample == 1) {
      EXPECT_EQ(stats.scans_skipped, 0u) << "every zero read is verified";
    } else {
      EXPECT_GT(stats.scans_skipped, 0u) << "no gate ever skipped";
    }
  }
}

// ---------------------------------------------------------------------------
// DetachThread reap regression.
// ---------------------------------------------------------------------------

TEST(FastPathTest, DetachedContextsAreReaped) {
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  Monitor m;
  // Guards scoped before detach: each context is reapable immediately,
  // so the record count stays flat (the pre-fix behavior grew threads_
  // by one per attach).
  for (int i = 0; i < 500; ++i) {
    auto& ctx = rt.AttachThread("churn" + std::to_string(i));
    {
      ScopedFrame f(ctx, "r.C", "run", 1);
      ASSERT_TRUE(rt.Acquire(ctx, m).ok());
      rt.Release(ctx, m);
    }
    rt.DetachThread(ctx);
  }
  EXPECT_EQ(rt.ThreadRecordCount(), 0u);
  EXPECT_GE(rt.GetStats().threads_reaped, 500u);

  // The common RAII pattern — guards destruct AFTER DetachThread — must
  // also stay bounded: the context lingers only until its frames drain
  // and the next runtime pass reaps it.
  for (int i = 0; i < 200; ++i) {
    auto& ctx = rt.AttachThread("trail" + std::to_string(i));
    ScopedFrame f(ctx, "r.C", "run", 1);
    rt.DetachThread(ctx);
    // `f` pops after detach at scope exit; the next attach reaps.
  }
  EXPECT_LE(rt.ThreadRecordCount(), 1u);

  // Concurrent churn stays bounded too.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        auto& ctx = rt.AttachThread("cc" + std::to_string(t));
        ScopedFrame f(ctx, "r.C", "run", 1);
        rt.DetachThread(ctx);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(rt.ThreadRecordCount(), 4u);

  // A final clean attach/detach sweeps the stragglers.
  auto& last = rt.AttachThread("sweep");
  rt.DetachThread(last);
  EXPECT_EQ(rt.ThreadRecordCount(), 0u);
}

}  // namespace
}  // namespace communix::dimmunix
