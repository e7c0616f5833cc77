// Gate-race scripts: the adaptive gate's own steps, interleaved.
//
// The schedule harness (schedule_harness.hpp) serializes whole
// operations, so it never runs two gates at once. These scripts go one
// level down. Two threads acquire at the two sites of one ABBA
// signature (thread 0 at X on monitor 0, thread 1 at Y on monitor 1),
// and the runtime's gate-step hook pauses each of them before every
// gate step: the fast path's enter, publish, peer read, CAS and retract,
// and the slow path's enter, peer read and CAS (paused there, a thread
// holds the runtime mutex). A pick sequence decides which paused thread
// takes its next step, and every pick sequence of a fixed length is
// run, so every interleaving of the two gates' steps is explored.
//
// Whatever the interleaving, the global-lock reference admits whichever
// acquisition it serializes first and suspends the other until the
// first releases. So each run must end with exactly one thread admitted
// and the other suspended, and a kGlobalLock run of that serialization
// (through the schedule harness) must make the same decisions. Two
// gates that both read zero would admit both; a scan that counted a
// retracted attempt would suspend a thread the reference admits.
//
// Two shapes: fast gate against fast gate, and fast gate against slow
// gate. In the second, a helper thread holds monitor 1 (at a site no
// signature names) until both racers have settled, so thread 1's CAS
// always loses and it falls to the slow-path gate, which enters its
// bucket, reads the peers and skips or scans under the runtime mutex
// while thread 0's fast gate steps around it. If thread 1 passes its
// gate it blocks on monitor 1, and a thread blocked at Y occupies the
// signature just as a holder does; the helper then releases, so the
// serialization in which thread 1 came first ends with thread 1
// holding.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "dimmunix/runtime.hpp"
#include "schedule_harness.hpp"
#include "util/clock.hpp"

namespace communix::dimmunix {
namespace {

namespace sched = communix::dimmunix::schedule;
using GateStep = DimmunixRuntime::GateStep;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

constexpr auto kDeadline = std::chrono::seconds(30);

Signature AbbaSignature() {
  return Sig2(ChainStack("gr.X", 2, F("gr.X", "sync", 10)),
              ChainStack("gr.X", 2, F("gr.X", "in", 11)),
              ChainStack("gr.Y", 2, F("gr.Y", "sync", 20)),
              ChainStack("gr.Y", 2, F("gr.Y", "in", 21)));
}

/// Pushes site `side`'s stack (0 = X, 1 = Y), which matches the
/// signature's position `side`.
void PushSite(ThreadContext& ctx, int side) {
  const char* cls = side == 0 ? "gr.X" : "gr.Y";
  ctx.PushFrame(F(cls, "m0", 1));
  ctx.PushFrame(F(cls, "sync", side == 0 ? 10u : 20u));
}

const char* StepName(GateStep step) {
  switch (step) {
    case GateStep::kEnter: return "enter";
    case GateStep::kPublish: return "publish";
    case GateStep::kPeerRead: return "peer-read";
    case GateStep::kCas: return "cas";
    case GateStep::kRetract: return "retract";
    case GateStep::kSlowPath: return "slow";
    case GateStep::kScanWait: return "scan-wait";
  }
  return "?";
}

DimmunixRuntime::Options GateOptions() {
  DimmunixRuntime::Options opts;
  opts.mode = RuntimeMode::kFastPath;
  // Routing must depend on the interleaving alone, not on sampling.
  opts.adaptive_verify_sample = 0;
  return opts;
}

struct RaceOutcome {
  std::size_t winner = 0;  // the thread admitted first
  DimmunixRuntime::Stats stats;
  std::uint64_t retractions = 0;
  std::string trace;  // the steps taken, for failure messages
};

/// Runs the two racing acquisitions under one pick sequence. A pick
/// names the thread whose paused step runs next; a pick of a thread
/// that is not paused runs the other one instead.
RaceOutcome RunRace(bool slow_gate, const std::vector<std::size_t>& picks) {
  VirtualClock clock;
  DimmunixRuntime rt(clock, GateOptions());
  rt.AddSignature(AbbaSignature(), SignatureOrigin::kRemote);
  Monitor monitors[2];

  struct Racer {
    ThreadContext* ctx = nullptr;
    bool paused = false;
    GateStep at = GateStep::kEnter;  // the step it is paused before
    bool go = false;
    bool slow = false;          // past kSlowPath: pauses hold mu_
    bool scan_waiting = false;  // its scan has waited on a pending slot
    bool acquired = false;
    bool release = false;
    /// Paused on the fast path with its pending slot published and
    /// unresolved.
    bool Unresolved() const {
      return paused && !slow &&
             (at == GateStep::kPeerRead || at == GateStep::kCas ||
              at == GateStep::kRetract);
    }
    /// Paused on the slow path, holding the runtime mutex (mu_).
    bool HoldsRuntimeMutex() const { return paused && slow; }
  };
  std::mutex mu;
  std::condition_variable cv;
  Racer racers[2];
  RaceOutcome out;
  bool free_run = false;  // after the race: steps no longer pause

  rt.SetGateStepHookForTest([&](const ThreadContext& ctx, GateStep step) {
    std::unique_lock lock(mu);
    Racer* r = nullptr;
    for (Racer& c : racers) {
      if (c.ctx == &ctx) r = &c;
    }
    if (r == nullptr) return;  // the helper
    const std::size_t id = static_cast<std::size_t>(r - racers);
    switch (step) {
      case GateStep::kSlowPath:
        r->slow = true;
        out.trace += "t" + std::to_string(id) + ":slow ";
        break;
      case GateStep::kScanWait:
        r->scan_waiting = true;
        break;
      default:
        if (free_run) break;
        if (step == GateStep::kRetract) ++out.retractions;
        out.trace += "t" + std::to_string(id) + ":" + (r->slow ? "slow-" : "") +
                     StepName(step) + " ";
        r->paused = true;
        r->at = step;
        cv.notify_all();
        cv.wait(lock, [&] { return r->go; });
        r->go = false;
        r->paused = false;
        break;
    }
    cv.notify_all();
  });

  ThreadContext* helper = nullptr;
  if (slow_gate) {
    helper = &rt.AttachThread("helper");
    helper->PushFrame(F("gr.Helper", "run", 1));
    EXPECT_TRUE(rt.Acquire(*helper, monitors[1]).ok());
  }

  std::vector<std::thread> threads;
  for (int side = 0; side < 2; ++side) {
    ThreadContext& ctx = rt.AttachThread("racer" + std::to_string(side));
    {
      std::lock_guard lock(mu);
      racers[side].ctx = &ctx;
    }
    threads.emplace_back([&, side, c = &ctx] {
      PushSite(*c, side);
      const bool ok = rt.Acquire(*c, monitors[side]).ok();
      EXPECT_TRUE(ok);
      std::unique_lock lock(mu);
      racers[side].acquired = true;
      cv.notify_all();
      cv.wait(lock, [&] { return racers[side].release; });
      lock.unlock();
      if (ok) rt.Release(*c, monitors[side]);
      c->PopFrame();
      c->PopFrame();
    });
  }

  // Settled: every racer is paused, done, parked, spinning in a scan
  // that waits on the other racer's unresolved slot (only a racer paused
  // between publish and resolution has one, so a flag left over from an
  // earlier wait does not count), or on the slow path while the other
  // racer is paused holding the runtime mutex. Parked threads do not
  // notify, so this polls.
  auto settle = [&] {
    const auto until = std::chrono::steady_clock::now() + kDeadline;
    std::unique_lock lock(mu);
    for (;;) {
      bool all = true;
      for (std::size_t t = 0; t < 2; ++t) {
        const Racer& r = racers[t];
        all = all && (r.paused || r.acquired ||
                      (r.scan_waiting && racers[1 - t].Unresolved()) ||
                      (r.slow && racers[1 - t].HoldsRuntimeMutex()) ||
                      (r.slow && rt.IsQuiescentlyParkedForTest(*r.ctx)));
      }
      if (all) return true;
      if (std::chrono::steady_clock::now() >= until) return false;
      cv.wait_for(lock, std::chrono::microseconds(50));
    }
  };
  auto step = [&](std::size_t t) {
    std::unique_lock lock(mu);
    racers[t].go = true;
    cv.notify_all();
    cv.wait(lock, [&] { return !racers[t].go; });
  };
  auto paused = [&](std::size_t t) {
    std::lock_guard lock(mu);
    return racers[t].paused;
  };

  bool ok = settle();
  for (const std::size_t pick : picks) {
    if (!ok) break;
    const std::size_t t = paused(pick) ? pick : 1 - pick;
    if (!paused(t)) break;
    step(t);
    ok = settle();
  }
  // Drain the remaining pauses in thread order; from then on wakeups
  // re-run gates without pausing.
  while (ok && (paused(0) || paused(1))) {
    step(paused(0) ? 0 : 1);
    ok = settle();
  }
  {
    std::lock_guard lock(mu);
    free_run = true;
  }
  if (!ok) {
    // Blocked racers cannot be joined; stop here with the trace.
    ADD_FAILURE() << "stalled: " << out.trace;
    std::abort();
  }

  if (helper != nullptr) {
    // Both racers are settled: thread 0 holds or is suspended, thread 1
    // is blocked on the helper's monitor or suspended.
    rt.Release(*helper, monitors[1]);
    if (!settle()) {
      ADD_FAILURE() << "stalled after the helper released: " << out.trace;
      std::abort();
    }
  }

  std::size_t admitted = 0;
  {
    std::lock_guard lock(mu);
    for (std::size_t t = 0; t < 2; ++t) {
      if (racers[t].acquired) {
        ++admitted;
        out.winner = t;
      }
    }
  }
  EXPECT_EQ(admitted, 1u) << "exactly one acquisition may be admitted "
                             "while the other holds: "
                          << out.trace;
  if (admitted == 0) std::abort();  // both suspended: cannot unwind
  // Release the winner; the suspended loser is then admitted.
  {
    std::lock_guard lock(mu);
    racers[out.winner].release = true;
    cv.notify_all();
  }
  {
    std::unique_lock lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, kDeadline,
                            [&] { return racers[1 - out.winner].acquired; }))
        << out.trace;
    racers[1 - out.winner].release = true;
    cv.notify_all();
  }
  for (auto& th : threads) th.join();
  if (helper != nullptr) {
    helper->PopFrame();
    rt.DetachThread(*helper);
  }
  for (const Racer& r : racers) rt.DetachThread(*r.ctx);
  out.stats = rt.GetStats();
  return out;
}

/// The kGlobalLock reference of the serialization the race produced:
/// the winner acquires (or, behind the helper, blocks), the loser
/// arrives, the helper releases, the winner releases.
sched::RunResult RunReference(bool slow_gate, std::size_t winner) {
  using sched::Op;
  sched::Script s;
  s.num_monitors = 2;
  s.initial_history.push_back(AbbaSignature());
  for (int side = 0; side < 2; ++side) {
    const char* cls = side == 0 ? "gr.X" : "gr.Y";
    s.threads.push_back({Op::Push(F(cls, "m0", 1)),
                         Op::Push(F(cls, "sync", side == 0 ? 10u : 20u)),
                         Op::Acquire(static_cast<std::size_t>(side)),
                         Op::Release(static_cast<std::size_t>(side)),
                         Op::Pop(), Op::Pop()});
  }
  std::vector<std::size_t> order;
  if (slow_gate) {
    s.threads.push_back({Op::Push(F("gr.Helper", "run", 1)), Op::Acquire(1),
                         Op::Release(1), Op::Pop()});
    order = {2, 2};
  }
  const std::size_t loser = 1 - winner;
  for (std::size_t t : {winner, winner, winner, loser, loser, loser}) {
    order.push_back(t);
  }
  if (slow_gate) order.push_back(2);
  order.push_back(winner);
  DimmunixRuntime::Options ref;
  ref.mode = RuntimeMode::kGlobalLock;
  ref.adaptive_avoidance = false;
  return sched::RunSchedule(ref, s, sched::ScriptedChooser(order));
}

/// Every pick sequence of length `len` over the two racers.
std::vector<std::vector<std::size_t>> AllPicks(std::size_t len) {
  std::vector<std::vector<std::size_t>> all;
  for (std::uint32_t bits = 0; bits < (1u << len); ++bits) {
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < len; ++i) picks.push_back((bits >> i) & 1);
    all.push_back(std::move(picks));
  }
  return all;
}

void ExploreRaces(bool slow_gate, std::size_t winners_expected) {
  std::uint64_t wins[2] = {0, 0};
  std::uint64_t retracting_runs = 0;
  std::uint64_t fast_commits = 0;
  const sched::RunResult refs[2] = {RunReference(slow_gate, 0),
                                    RunReference(slow_gate, 1)};
  for (std::size_t w = 0; w < 2; ++w) {
    ASSERT_FALSE(refs[w].stalled) << refs[w].Trace();
    ASSERT_EQ(refs[w].stats.avoidance_suspensions, 1u) << refs[w].Trace();
  }
  // A racer pauses at most four times on the fast path (enter, publish,
  // peer read, CAS or retract) and three on the slow path (enter, peer
  // read, CAS), plus a peer read per re-scan: ten picks reach every
  // interleaving of the first gate decisions on both paths.
  for (const auto& picks : AllPicks(10)) {
    const RaceOutcome race = RunRace(slow_gate, picks);
    if (::testing::Test::HasFailure()) return;
    const sched::RunResult& ref = refs[race.winner];
    const std::string label = race.trace;
    EXPECT_EQ(race.stats.avoidance_suspensions,
              ref.stats.avoidance_suspensions) << label;
    EXPECT_EQ(race.stats.yield_cycle_overrides,
              ref.stats.yield_cycle_overrides) << label;
    EXPECT_EQ(race.stats.deadlocks_detected, ref.stats.deadlocks_detected)
        << label;
    EXPECT_EQ(race.stats.acquisitions, ref.stats.acquisitions) << label;
    EXPECT_EQ(race.stats.adaptive_gate_mismatches, 0u) << label;
    ++wins[race.winner];
    retracting_runs += race.retractions > 0 ? 1 : 0;
    fast_commits += race.stats.scans_skipped > 0 ? 1 : 0;
  }
  // The exploration reached both serializations, gates that saw each
  // other and retracted, and gates that skipped the scan and committed.
  EXPECT_EQ((wins[0] > 0) + (wins[1] > 0), winners_expected);
  EXPECT_GT(retracting_runs, 0u);
  EXPECT_GT(fast_commits, 0u);
}

TEST(GateRaceTest, FastGateAgainstFastGateMatchesGlobalLock) {
  ExploreRaces(/*slow_gate=*/false, /*winners_expected=*/2);
}

TEST(GateRaceTest, FastGateAgainstSlowGateMatchesGlobalLock) {
  ExploreRaces(/*slow_gate=*/true, /*winners_expected=*/2);
}

}  // namespace
}  // namespace communix::dimmunix
