// Decision-identity property tests over the schedule-exploration
// harness: for the same script and the same interleaving, the
// global-lock reference, the fast-path architecture, and the fast path
// with the adaptive scan gate must produce identical step traces
// (admit / yield / deadlock decisions), identical learned histories,
// and identical avoidance/detection counts — the adaptive gate may only
// elide provably-empty instantiation scans, never change a decision.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "schedule_harness.hpp"

namespace communix::dimmunix {
namespace {

namespace sched = communix::dimmunix::schedule;
using sched::Op;
using sched::RunResult;
using sched::Script;
using sched::StepRecord;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

DimmunixRuntime::Options GlobalRef() {
  DimmunixRuntime::Options opts;
  opts.mode = RuntimeMode::kGlobalLock;
  opts.adaptive_avoidance = false;
  return opts;
}

DimmunixRuntime::Options Fast(bool adaptive) {
  DimmunixRuntime::Options opts;
  opts.mode = RuntimeMode::kFastPath;
  opts.adaptive_avoidance = adaptive;
  return opts;
}

void ExpectDecisionIdentical(const RunResult& ref, const RunResult& got,
                             const std::string& label) {
  EXPECT_FALSE(ref.stalled) << label;
  EXPECT_FALSE(got.stalled) << label;
  EXPECT_EQ(ref.steps, got.steps)
      << label << "\n  ref: " << ref.Trace() << "\n  got: " << got.Trace();
  EXPECT_EQ(ref.final_history, got.final_history) << label;
  EXPECT_EQ(ref.stats.avoidance_suspensions, got.stats.avoidance_suspensions)
      << label;
  EXPECT_EQ(ref.stats.yield_cycle_overrides, got.stats.yield_cycle_overrides)
      << label;
  EXPECT_EQ(ref.stats.deadlocks_detected, got.stats.deadlocks_detected)
      << label;
  EXPECT_EQ(ref.stats.signatures_learned, got.stats.signatures_learned)
      << label;
  EXPECT_EQ(ref.stats.acquisitions, got.stats.acquisitions) << label;
  EXPECT_EQ(got.stats.adaptive_gate_mismatches, 0u) << label;
}

// ---------------------------------------------------------------------------
// Randomized schedule exploration (the acceptance-criterion property).
// ---------------------------------------------------------------------------

TEST(ScheduleEquivalenceTest, RandomGroupedSchedulesAgreeAcrossConfigs) {
  std::uint64_t total_skips = 0;
  std::uint64_t total_suspensions = 0;
  std::uint64_t total_deadlocks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Script script = sched::GenerateGroupedScript(seed);
    for (std::uint64_t sched_seed : {seed * 31 + 1, seed * 31 + 2}) {
      const RunResult ref = sched::RunSchedule(
          GlobalRef(), script, sched::SeededChooser(sched_seed));
      const RunResult fast = sched::RunSchedule(
          Fast(false), script, sched::SeededChooser(sched_seed));
      const RunResult adaptive = sched::RunSchedule(
          Fast(true), script, sched::SeededChooser(sched_seed));
      const std::string label = "script seed " + std::to_string(seed) +
                                ", schedule seed " +
                                std::to_string(sched_seed);
      ExpectDecisionIdentical(ref, fast, label + " (fast)");
      ExpectDecisionIdentical(ref, adaptive, label + " (adaptive)");
      // (Scan *counts* are not compared here: parked avoiders re-scan on
      // every state-version bump, and the fast path legitimately bumps
      // less often than the global-lock reference. The gate-skip test
      // below checks exact scan arithmetic in a wake-free script.)
      total_skips += adaptive.stats.scans_skipped;
      total_suspensions += ref.stats.avoidance_suspensions;
      total_deadlocks += ref.stats.deadlocks_detected;
    }
  }
  // The exploration must actually exercise the interesting machinery.
  EXPECT_GT(total_skips, 0u) << "no schedule ever hit the adaptive gate";
  EXPECT_GT(total_suspensions, 0u) << "no schedule ever suspended";
  EXPECT_GT(total_deadlocks, 0u) << "no schedule ever deadlocked";
}

// ---------------------------------------------------------------------------
// Scripted one-sided suspension truth table (script + order shared with
// fastpath_test via the harness's OneSidedSuspensionScript helper).
// ---------------------------------------------------------------------------

TEST(ScheduleHarnessTest, ScriptedSuspensionTruthTable) {
  std::vector<sched::OneSidedSuspension> table;
  for (const bool acq : {false, true}) {
    for (const bool occ : {false, true}) {
      for (const bool enabled : {false, true}) {
        table.push_back(sched::OneSidedSuspension{1, acq, occ, enabled});
        table.push_back(sched::OneSidedSuspension{3, acq, occ, enabled});
      }
    }
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    const sched::OneSidedSuspension& p = table[i];
    const Script script = sched::OneSidedSuspensionScript(p);
    const RunResult ref = sched::RunSchedule(
        GlobalRef(), script, sched::OccupantThenAcquirerOrder(p.depth));
    const RunResult fast = sched::RunSchedule(
        Fast(false), script, sched::OccupantThenAcquirerOrder(p.depth));
    const RunResult adaptive = sched::RunSchedule(
        Fast(true), script, sched::OccupantThenAcquirerOrder(p.depth));
    const std::string label = "truth table row " + std::to_string(i);
    ExpectDecisionIdentical(ref, fast, label + " (fast)");
    ExpectDecisionIdentical(ref, adaptive, label + " (adaptive)");

    // The acquirer's acquire is thread 1's op number `depth`.
    const std::uint64_t expected = p.ExpectSuspension() ? 1u : 0u;
    EXPECT_EQ(ref.stats.avoidance_suspensions, expected) << label;
    bool saw_block = false;
    for (const StepRecord& r : ref.steps) {
      if (r.thread == 1 && r.op_index == p.depth) {
        saw_block |= r.outcome == StepRecord::Outcome::kBlocked;
      }
    }
    EXPECT_EQ(saw_block, p.ExpectSuspension()) << label;
  }
}

// ---------------------------------------------------------------------------
// Scripted ABBA detection.
// ---------------------------------------------------------------------------

TEST(ScheduleHarnessTest, ScriptedAbbaDetectionIsDeterministic) {
  Script s;
  s.num_monitors = 2;
  s.threads.emplace_back();
  s.threads[0] = {Op::Push(F("ab.P", "outer", 1)), Op::Acquire(0),
                  Op::Push(F("ab.P", "inner", 2)), Op::Acquire(1),
                  Op::Release(1),                  Op::Pop(),
                  Op::Release(0),                  Op::Pop()};
  s.threads.emplace_back();
  s.threads[1] = {Op::Push(F("ab.Q", "outer", 1)), Op::Acquire(1),
                  Op::Push(F("ab.Q", "inner", 2)), Op::Acquire(0),
                  Op::Release(0),                  Op::Pop(),
                  Op::Release(1),                  Op::Pop()};

  // t0 takes A, t1 takes B, t0 blocks on B, t1 closes the cycle on A.
  auto order = [] {
    return sched::ScriptedChooser({0, 0, 1, 1, 0, 0, 1, 1});
  };
  const RunResult ref = sched::RunSchedule(GlobalRef(), s, order());
  const RunResult fast = sched::RunSchedule(Fast(false), s, order());
  const RunResult adaptive = sched::RunSchedule(Fast(true), s, order());
  ExpectDecisionIdentical(ref, fast, "abba (fast)");
  ExpectDecisionIdentical(ref, adaptive, "abba (adaptive)");

  EXPECT_EQ(ref.stats.deadlocks_detected, 1u);
  EXPECT_EQ(ref.stats.signatures_learned, 1u);
  ASSERT_EQ(ref.final_history.size(), 1u);
  bool t0_blocked = false, t1_deadlocked = false, t0_unblocked = false;
  for (const StepRecord& r : ref.steps) {
    if (r.thread == 0 && r.op_index == 3) {
      t0_blocked |= r.outcome == StepRecord::Outcome::kBlocked;
      t0_unblocked |= r.outcome == StepRecord::Outcome::kUnblocked;
    }
    if (r.thread == 1 && r.op_index == 3) {
      t1_deadlocked |= r.outcome == StepRecord::Outcome::kDeadlock;
    }
  }
  EXPECT_TRUE(t0_blocked) << ref.Trace();
  EXPECT_TRUE(t1_deadlocked) << ref.Trace();
  EXPECT_TRUE(t0_unblocked) << ref.Trace();
}

// ---------------------------------------------------------------------------
// Adaptive gate on a candidate-hit site with no possible occupants.
// ---------------------------------------------------------------------------

TEST(ScheduleHarnessTest, AdaptiveGateSkipsProvablyEmptyScans) {
  Script s;
  s.num_monitors = 1;
  // The thread's lock statement completes side 1 of the signature; side
  // 2's site ("gh.Ghost") is never visited, so every scan must be empty.
  s.initial_history.push_back(
      Sig2(ChainStack("gs.S", 2, F("gs.S", "sync", 100)),
           ChainStack("gs.S", 2, F("gs.S", "in", 110)),
           ChainStack("gh.Ghost", 2, F("gh.Ghost", "sync", 120)),
           ChainStack("gh.Ghost", 2, F("gh.Ghost", "in", 130))));
  s.threads.emplace_back();
  auto& ops = s.threads[0];
  ops.push_back(Op::Push(F("gs.S", "m0", 1)));
  ops.push_back(Op::Push(F("gs.S", "sync", 100)));
  constexpr int kIters = 6;
  for (int i = 0; i < kIters; ++i) {
    ops.push_back(Op::Acquire(0));
    ops.push_back(Op::Release(0));
  }
  ops.push_back(Op::Pop());
  ops.push_back(Op::Pop());
  // Churn thread: republishes mid-schedule (index rebuilds + wakeups).
  s.threads.emplace_back();
  for (int i = 0; i < 3; ++i) {
    const auto salt = static_cast<std::uint32_t>(9000 + 10 * i);
    s.threads[1].push_back(Op::AddSig(
        Sig2(ChainStack("zz.C", 6, F("zz.C", "s", salt)),
             ChainStack("zz.C", 6, F("zz.C", "i", salt + 1)),
             ChainStack("zz.D", 6, F("zz.D", "s", salt + 2)),
             ChainStack("zz.D", 6, F("zz.D", "i", salt + 3)))));
  }

  const auto chooser = [] { return sched::SeededChooser(7); };
  const RunResult ref = sched::RunSchedule(GlobalRef(), s, chooser());
  const RunResult adaptive = sched::RunSchedule(Fast(true), s, chooser());
  ExpectDecisionIdentical(ref, adaptive, "gate-skip");

  EXPECT_EQ(adaptive.stats.scans_skipped, static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(adaptive.stats.instantiation_scans, 0u);
  EXPECT_EQ(ref.stats.instantiation_scans,
            static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(ref.stats.scans_skipped, 0u);
  EXPECT_GT(adaptive.stats.index_republishes, 0u);
}

// ---------------------------------------------------------------------------
// Fast-path wakeup visibility (ROADMAP item pinned by this scenario).
//
// Fast acquisitions don't bump the state version, so a parked avoider
// re-checks its yield-cycle override only on the next slow-path event.
// That is safe — any step that can change the avoider's decision
// (a block, a yield, a matching holding, a release) goes slow path and
// bumps — but it means the avoider sleeps straight through a fast
// critical section that the global-lock reference would have woken it
// for, and its (override) admission therefore lands at the section's
// next slow-path event: a one-section admission delay in *re-check*
// time, with byte-identical decisions.
//
// Script: the avoider holds a candidate-free monitor MA and parks at a
// gated site yielding to the occupant. The occupant then (a) fast-
// acquires a candidate-free monitor M2 — the fast critical section; the
// probe pins that the avoider is still quiescently parked at an
// unchanged state version — and (b) blocks on MA, which bumps, closes
// the yield cycle occupant->MA->avoider, and admits the avoider via the
// override, exactly one slow-path event after the section began.
// ---------------------------------------------------------------------------

TEST(ScheduleHarnessTest, FastCriticalSectionDelaysOverridableAvoiderOneSection) {
  Script s;
  s.num_monitors = 4;  // 0 = gated, 1 = occupant's match, 2 = MA, 3 = M2
  s.initial_history.push_back(
      Sig2(ChainStack("wv.X", 1, F("wv.X", "sync", 100)),
           ChainStack("wv.X", 1, F("wv.X", "in", 110)),
           ChainStack("wv.Y", 1, F("wv.Y", "sync", 120)),
           ChainStack("wv.Y", 1, F("wv.Y", "in", 130))));

  s.threads.emplace_back();  // thread 0: occupant
  auto& occ = s.threads[0];
  occ.push_back(Op::Push(F("wv.Y", "sync", 120)));  // 0
  occ.push_back(Op::Acquire(1));                    // 1: the matching holding
  occ.push_back(Op::Push(F("wv.Free", "crit", 10)));  // 2
  occ.push_back(Op::Acquire(3));  // 3: fast critical section opens
  occ.push_back(Op::Acquire(2));  // 4: blocks on MA -> override admits avoider
  occ.push_back(Op::Release(2));  // 5
  occ.push_back(Op::Release(3));  // 6
  occ.push_back(Op::Pop());       // 7
  occ.push_back(Op::Release(1));  // 8
  occ.push_back(Op::Pop());       // 9

  s.threads.emplace_back();  // thread 1: avoider
  auto& avo = s.threads[1];
  avo.push_back(Op::Push(F("wv.Held", "h", 5)));  // 0
  avo.push_back(Op::Acquire(2));                  // 1: MA (candidate-free)
  avo.push_back(Op::Push(F("wv.X", "sync", 100)));  // 2
  avo.push_back(Op::Acquire(0));                  // 3: gated -> parks
  avo.push_back(Op::Release(0));                  // 4
  avo.push_back(Op::Release(2));                  // 5: unblocks the occupant
  avo.push_back(Op::Pop());                       // 6
  avo.push_back(Op::Pop());                       // 7

  const auto order = [] {
    return sched::ScriptedChooser(
        {0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0});
  };

  // Probe: state version + the avoider's park state after (a) the push
  // that precedes the fast section and (b) the fast acquire itself.
  struct Sample {
    std::uint64_t version = 0;
    bool avoider_parked = false;
  };
  struct Samples {
    Sample before_fast_acquire;  // after occupant op 2 (push)
    Sample after_fast_acquire;   // after occupant op 3 (acquire M2)
  };
  const auto probe_into = [](Samples& out) {
    return [&out](const StepRecord& step, DimmunixRuntime& rt,
                  const std::vector<ThreadContext*>& ctxs) {
      if (step.thread != 0) return;
      Sample sample{rt.StateVersionForTest(),
                    rt.IsQuiescentlyParkedForTest(*ctxs[1])};
      if (step.op_index == 2) out.before_fast_acquire = sample;
      if (step.op_index == 3) out.after_fast_acquire = sample;
    };
  };

  Samples fast_samples;
  Samples ref_samples;
  const RunResult fast = sched::RunSchedule(Fast(true), s, order(),
                                            probe_into(fast_samples));
  const RunResult ref = sched::RunSchedule(GlobalRef(), s, order(),
                                           probe_into(ref_samples));
  ExpectDecisionIdentical(ref, fast, "wakeup-visibility");

  // Both modes: the avoider parked before the fast section and is
  // admitted by the yield-cycle override, in the same step.
  EXPECT_EQ(ref.stats.yield_cycle_overrides, 1u);
  EXPECT_EQ(fast.stats.yield_cycle_overrides, 1u);
  EXPECT_TRUE(fast_samples.before_fast_acquire.avoider_parked);
  EXPECT_TRUE(ref_samples.before_fast_acquire.avoider_parked);
  bool avoider_unblocked_at_block_step = false;
  for (std::size_t i = 0; i + 1 < ref.steps.size(); ++i) {
    if (ref.steps[i].thread == 0 && ref.steps[i].op_index == 4 &&
        ref.steps[i].outcome == StepRecord::Outcome::kBlocked) {
      avoider_unblocked_at_block_step =
          ref.steps[i + 1].thread == 1 && ref.steps[i + 1].op_index == 3 &&
          ref.steps[i + 1].outcome == StepRecord::Outcome::kUnblocked;
    }
  }
  EXPECT_TRUE(avoider_unblocked_at_block_step) << ref.Trace();

  // THE PIN — fast mode: the occupant's fast acquire left the state
  // version untouched and the avoider asleep (it will not re-check its
  // override until the next slow-path event).
  EXPECT_EQ(fast_samples.after_fast_acquire.version,
            fast_samples.before_fast_acquire.version);
  EXPECT_TRUE(fast_samples.after_fast_acquire.avoider_parked);
  EXPECT_GT(fast.stats.fast_path_acquisitions, 0u);

  // Global-lock reference: the same acquire bumped the version and woke
  // the avoider for a (fruitless) re-check.
  EXPECT_GT(ref_samples.after_fast_acquire.version,
            ref_samples.before_fast_acquire.version);
  EXPECT_TRUE(ref_samples.after_fast_acquire.avoider_parked);
  EXPECT_EQ(ref.stats.wait_rounds, fast.stats.wait_rounds + 1)
      << "the elided wakeup is exactly the fast critical section's";
}

// ---------------------------------------------------------------------------
// Two-sided suspension: both sides of a signature suspended at once.
//
// The pre-handoff determinism contract excluded this shape — the two
// wakeups raced on the condition variable and the runtime resolved them
// via OS scheduling. The wake turnstile makes the drain order a fixed
// function of thread ids, so the same script + chooser must now produce
// identical traces in every runtime mode, every time.
// ---------------------------------------------------------------------------

TEST(ScheduleHarnessTest, TwoSidedSuspensionRacesAreDeterministic) {
  const Script script = sched::TwoSidedSuspensionScript(1);
  // Both occupants acquire (signature still disabled), the enabler
  // re-arms it, both acquirers arrive and suspend, then the occupants
  // release and the turnstile drains the suspended pair.
  const auto order = [] {
    return sched::ScriptedChooser({0, 0, 1, 1, 4, 2, 2, 3, 3, 0, 1});
  };
  const RunResult ref = sched::RunSchedule(GlobalRef(), script, order());
  const RunResult fast = sched::RunSchedule(Fast(false), script, order());
  const RunResult adaptive = sched::RunSchedule(Fast(true), script, order());
  ExpectDecisionIdentical(ref, fast, "two-sided (fast)");
  ExpectDecisionIdentical(ref, adaptive, "two-sided (adaptive)");

  // Both acquirers actually suspended concurrently and both completed.
  EXPECT_EQ(ref.stats.avoidance_suspensions, 2u) << ref.Trace();
  for (const std::size_t acquirer : {2u, 3u}) {
    bool blocked = false, unblocked = false;
    for (const StepRecord& r : ref.steps) {
      if (r.thread == acquirer && r.op_index == 1) {
        blocked |= r.outcome == StepRecord::Outcome::kBlocked;
        unblocked |= r.outcome == StepRecord::Outcome::kUnblocked;
      }
    }
    EXPECT_TRUE(blocked) << "t" << acquirer << ": " << ref.Trace();
    EXPECT_TRUE(unblocked) << "t" << acquirer << ": " << ref.Trace();
  }

  // Exact repeatability of the previously-racy shape: same config, same
  // chooser, same trace — run it a few times.
  for (int rep = 0; rep < 3; ++rep) {
    const RunResult again = sched::RunSchedule(Fast(true), script, order());
    ExpectDecisionIdentical(adaptive, again,
                            "two-sided repeat " + std::to_string(rep));
  }

  // And across seeded schedules, not just the scripted one.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const RunResult r1 = sched::RunSchedule(GlobalRef(), script,
                                            sched::SeededChooser(seed));
    const RunResult r2 = sched::RunSchedule(Fast(true), script,
                                            sched::SeededChooser(seed));
    ExpectDecisionIdentical(r1, r2, "two-sided seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Multi-waiter handoff: queue drains FIFO by default, and the wakeup
// policy picks the winner when installed. (Concurrent blocked acquires
// of one monitor were illegal in the harness before direct handoff.)
// ---------------------------------------------------------------------------

namespace {

/// Holder + two waiters contending on one monitor. Ops per thread:
/// 0 = push, 1 = acquire, 2 = release, 3 = pop.
Script MultiWaiterScript() {
  Script s;
  s.num_monitors = 1;
  for (int t = 0; t < 3; ++t) {
    auto& ops = s.threads.emplace_back();
    ops.push_back(Op::Push(F("mw.T" + std::to_string(t), "sync", 10)));
    ops.push_back(Op::Acquire(0));
    ops.push_back(Op::Release(0));
    ops.push_back(Op::Pop());
  }
  return s;
}

/// Holder acquires, then both waiters block (t1 enqueues before t2);
/// the fallback drains the releases.
sched::Chooser MultiWaiterOrder() {
  return sched::ScriptedChooser({0, 0, 1, 1, 2, 2});
}

/// Step index at which `thread`'s acquire completed after blocking, or
/// SIZE_MAX if it never did.
std::size_t UnblockStep(const RunResult& r, std::size_t thread) {
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    if (r.steps[i].thread == thread && r.steps[i].op_index == 1 &&
        r.steps[i].outcome == StepRecord::Outcome::kUnblocked) {
      return i;
    }
  }
  return SIZE_MAX;
}

}  // namespace

TEST(ScheduleHarnessTest, MultiWaiterHandoffDrainsInFifoOrder) {
  const Script script = MultiWaiterScript();
  const RunResult ref =
      sched::RunSchedule(GlobalRef(), script, MultiWaiterOrder());
  const RunResult fast =
      sched::RunSchedule(Fast(true), script, MultiWaiterOrder());
  ExpectDecisionIdentical(ref, fast, "multi-waiter fifo");

  // t1 blocked before t2, so the holder's release hands off to t1 first.
  const std::size_t t1_at = UnblockStep(fast, 1);
  const std::size_t t2_at = UnblockStep(fast, 2);
  ASSERT_NE(t1_at, SIZE_MAX) << fast.Trace();
  ASSERT_NE(t2_at, SIZE_MAX) << fast.Trace();
  EXPECT_LT(t1_at, t2_at) << fast.Trace();

  // Two direct transfers: holder -> t1, t1 -> t2; t2's release finds an
  // empty queue and frees the word.
  EXPECT_EQ(fast.stats.handoffs, 2u);
  EXPECT_EQ(ref.stats.handoffs, 2u);
}

TEST(ScheduleHarnessTest, WakeupOrderingHookControlsWhichWaiterWins) {
  const Script script = MultiWaiterScript();
  // Policy: always pick the *last* candidate — the most recently arrived
  // waiter wins every handoff, inverting the FIFO default.
  const sched::WakeupPolicy last_wins =
      [](const std::vector<std::size_t>& ids) { return ids.size() - 1; };

  const RunResult fast = sched::RunSchedule(Fast(true), script,
                                            MultiWaiterOrder(), nullptr,
                                            last_wins);
  const std::size_t t1_at = UnblockStep(fast, 1);
  const std::size_t t2_at = UnblockStep(fast, 2);
  ASSERT_NE(t1_at, SIZE_MAX) << fast.Trace();
  ASSERT_NE(t2_at, SIZE_MAX) << fast.Trace();
  EXPECT_LT(t2_at, t1_at) << "policy should invert the FIFO drain order: "
                          << fast.Trace();
  EXPECT_EQ(fast.stats.handoffs, 2u);

  // The scripted wakeup order is part of the decision trace: the
  // reference mode under the same policy produces the identical trace.
  const RunResult ref = sched::RunSchedule(GlobalRef(), script,
                                           MultiWaiterOrder(), nullptr,
                                           last_wins);
  ExpectDecisionIdentical(ref, fast, "hooked multi-waiter");

  // And it is reproducible.
  const RunResult again = sched::RunSchedule(Fast(true), script,
                                             MultiWaiterOrder(), nullptr,
                                             last_wins);
  ExpectDecisionIdentical(fast, again, "hooked multi-waiter repeat");
}

}  // namespace
}  // namespace communix::dimmunix
