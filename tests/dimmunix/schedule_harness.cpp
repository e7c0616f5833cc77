#include "schedule_harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "../testutil.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace communix::dimmunix::schedule {

Op Op::Push(Frame f) {
  Op op;
  op.kind = Kind::kPushFrame;
  op.frame = std::move(f);
  return op;
}
Op Op::Pop() {
  Op op;
  op.kind = Kind::kPopFrame;
  return op;
}
Op Op::Line(std::uint32_t line) {
  Op op;
  op.kind = Kind::kSetLine;
  op.line = line;
  return op;
}
Op Op::Acquire(std::size_t monitor) {
  Op op;
  op.kind = Kind::kAcquire;
  op.monitor = monitor;
  return op;
}
Op Op::Release(std::size_t monitor) {
  Op op;
  op.kind = Kind::kRelease;
  op.monitor = monitor;
  return op;
}
Op Op::AddSig(Signature sig) {
  Op op;
  op.kind = Kind::kAddSignature;
  op.signature = std::move(sig);
  return op;
}
Op Op::DisableSig(std::uint64_t content_id) {
  Op op;
  op.kind = Kind::kDisableSignature;
  op.content_id = content_id;
  return op;
}
Op Op::ReEnableSig(std::uint64_t content_id) {
  Op op;
  op.kind = Kind::kReEnableSignature;
  op.content_id = content_id;
  return op;
}

std::string ToString(const StepRecord& r) {
  const char* name = "?";
  switch (r.outcome) {
    case StepRecord::Outcome::kCompleted: name = "ok"; break;
    case StepRecord::Outcome::kDeadlock: name = "deadlock"; break;
    case StepRecord::Outcome::kBlocked: name = "blocked"; break;
    case StepRecord::Outcome::kSkipped: name = "skipped"; break;
    case StepRecord::Outcome::kUnblocked: name = "unblocked"; break;
    case StepRecord::Outcome::kUnblockedDeadlock:
      name = "unblocked-deadlock";
      break;
  }
  std::ostringstream os;
  os << "t" << r.thread << "#" << r.op_index << ":" << name;
  return os.str();
}

Chooser SeededChooser(std::uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng](const std::vector<std::size_t>& runnable) {
    return runnable[rng->NextBounded(runnable.size())];
  };
}

Chooser ScriptedChooser(std::vector<std::size_t> order) {
  auto pos = std::make_shared<std::size_t>(0);
  auto seq = std::make_shared<std::vector<std::size_t>>(std::move(order));
  return [pos, seq](const std::vector<std::size_t>& runnable) {
    while (*pos < seq->size()) {
      const std::size_t want = (*seq)[(*pos)++];
      if (std::find(runnable.begin(), runnable.end(), want) !=
          runnable.end()) {
        return want;
      }
    }
    return runnable.front();
  };
}

std::string RunResult::Trace() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) os << " ";
    os << ToString(steps[i]);
  }
  if (stalled) os << " [STALLED]";
  return os.str();
}

namespace {

constexpr auto kStepDeadline = std::chrono::seconds(30);

/// One logical thread: a real OS thread executing dispatched ops.
struct Worker {
  std::size_t id = 0;
  DimmunixRuntime* rt = nullptr;
  const std::vector<std::unique_ptr<Monitor>>* monitors = nullptr;

  std::mutex mu;
  std::condition_variable cv;
  const Op* dispatched = nullptr;  // guarded by mu
  bool stop = false;               // guarded by mu

  std::atomic<ThreadContext*> ctx{nullptr};
  std::atomic<bool> op_done{true};
  std::atomic<bool> op_deadlocked{false};
  std::atomic<bool> op_skipped{false};

  std::vector<Monitor*> held;  // worker-thread only
  std::thread thread;

  void Start() {
    thread = std::thread([this] { Run(); });
    while (ctx.load(std::memory_order_acquire) == nullptr) {
      std::this_thread::yield();
    }
  }

  void Dispatch(const Op& op) {
    op_done.store(false, std::memory_order_release);
    op_deadlocked.store(false, std::memory_order_relaxed);
    op_skipped.store(false, std::memory_order_relaxed);
    {
      std::lock_guard lock(mu);
      dispatched = &op;
    }
    cv.notify_one();
  }

  void Stop() {
    {
      std::lock_guard lock(mu);
      stop = true;
    }
    cv.notify_one();
    thread.join();
  }

 private:
  void Run() {
    ThreadContext& tc = rt->AttachThread("sched-t" + std::to_string(id));
    ctx.store(&tc, std::memory_order_release);
    for (;;) {
      const Op* op = nullptr;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return stop || dispatched != nullptr; });
        if (stop && dispatched == nullptr) break;
        op = dispatched;
        dispatched = nullptr;
      }
      Execute(tc, *op);
      op_done.store(true, std::memory_order_release);
    }
    // Drain: release anything still held (deadlock-aborted scripts leave
    // monitors behind by design), unwind the shadow stack, detach.
    while (!held.empty()) {
      Monitor* m = held.back();
      held.pop_back();
      rt->Release(tc, *m);
    }
    while (tc.stack_depth() > 0) tc.PopFrame();
    rt->DetachThread(tc);
  }

  void Execute(ThreadContext& tc, const Op& op) {
    switch (op.kind) {
      case Op::Kind::kPushFrame:
        tc.PushFrame(op.frame);
        break;
      case Op::Kind::kPopFrame:
        if (tc.stack_depth() > 0) tc.PopFrame();
        break;
      case Op::Kind::kSetLine:
        tc.SetLine(op.line);
        break;
      case Op::Kind::kAcquire: {
        const Status s = rt->Acquire(tc, *(*monitors)[op.monitor]);
        if (s.ok()) {
          held.push_back((*monitors)[op.monitor].get());
        } else {
          op_deadlocked.store(true, std::memory_order_relaxed);
        }
        break;
      }
      case Op::Kind::kRelease: {
        Monitor* m = (*monitors)[op.monitor].get();
        auto it = std::find(held.rbegin(), held.rend(), m);
        if (it == held.rend()) {
          op_skipped.store(true, std::memory_order_relaxed);
        } else {
          held.erase(std::next(it).base());
          rt->Release(tc, *m);
        }
        break;
      }
      case Op::Kind::kAddSignature:
        rt->AddSignature(op.signature, SignatureOrigin::kRemote);
        break;
      case Op::Kind::kDisableSignature:
        rt->WithHistory(
            [&](History& h) { h.Disable(op.content_id); });
        break;
      case Op::Kind::kReEnableSignature:
        rt->WithHistory(
            [&](History& h) { h.ReEnable(op.content_id); });
        break;
    }
  }
};

}  // namespace

namespace {

/// Everything a run owns, heap-allocated so the never-expected stalled
/// path can leak it (blocked workers cannot be joined) instead of
/// hanging the test binary before the diagnostic trace is returned.
struct Session {
  explicit Session(const DimmunixRuntime::Options& options)
      : rt(clock, options) {}
  VirtualClock clock;
  DimmunixRuntime rt;
  std::vector<std::unique_ptr<Monitor>> monitors;
  std::vector<std::unique_ptr<Worker>> workers;
};

}  // namespace

RunResult RunSchedule(const DimmunixRuntime::Options& options,
                      const Script& script, const Chooser& choose,
                      const StepObserver& observe,
                      const WakeupPolicy& wake_policy) {
  RunResult result;
  auto session = std::make_unique<Session>(options);
  DimmunixRuntime& rt = session->rt;
  auto& monitors = session->monitors;
  auto& workers = session->workers;

  for (const Signature& sig : script.initial_history) {
    rt.AddSignature(sig, SignatureOrigin::kRemote);
  }
  for (const std::uint64_t content : script.initially_disabled) {
    rt.WithHistory([&](History& h) { h.Disable(content); });
  }

  for (std::size_t i = 0; i < script.num_monitors; ++i) {
    monitors.push_back(std::make_unique<Monitor>("m" + std::to_string(i)));
  }

  const std::size_t n = script.threads.size();
  for (std::size_t t = 0; t < n; ++t) {
    auto w = std::make_unique<Worker>();
    w->id = t;
    w->rt = &rt;
    w->monitors = &monitors;
    w->Start();
    workers.push_back(std::move(w));
  }

  std::vector<std::size_t> pc(n, 0);
  std::vector<bool> inflight(n, false);

  std::vector<ThreadContext*> contexts;
  contexts.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    contexts.push_back(workers[t]->ctx.load(std::memory_order_acquire));
  }
  auto notify_observer = [&](const StepRecord& step) {
    if (observe) observe(step, rt, contexts);
  };

  if (wake_policy) {
    // Translate runtime-level candidates (ThreadContext*) into logical
    // thread ids for the script's policy. The hook runs on worker
    // threads under the runtime mutex, so it captures by value — the
    // stalled diagnostic path leaks the session, not this closure.
    std::unordered_map<const ThreadContext*, std::size_t> logical;
    for (std::size_t t = 0; t < n; ++t) logical.emplace(contexts[t], t);
    rt.SetWakeOrderHookForTest(
        [wake_policy, logical](
            const std::vector<const ThreadContext*>& candidates) {
          std::vector<std::size_t> ids;
          ids.reserve(candidates.size());
          for (const ThreadContext* c : candidates) {
            const auto it = logical.find(c);
            ids.push_back(it == logical.end() ? SIZE_MAX : it->second);
          }
          return wake_policy(ids);
        });
  }

  auto settled = [&](std::size_t t) {
    return workers[t]->op_done.load(std::memory_order_acquire) ||
           rt.IsQuiescentlyParkedForTest(
               *workers[t]->ctx.load(std::memory_order_acquire));
  };
  auto all_settled = [&] {
    for (std::size_t t = 0; t < n; ++t) {
      if (inflight[t] && !settled(t)) return false;
    }
    return true;
  };
  auto wait_settled = [&]() -> bool {  // false on deadline (=> stalled)
    const auto deadline = std::chrono::steady_clock::now() + kStepDeadline;
    while (!all_settled()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto record_unblocked = [&] {
    // Completions of previously-blocked ops, in deterministic thread
    // order (the *set* that completes per step is determined by the
    // runtime's decisions; see the harness determinism contract).
    for (std::size_t t = 0; t < n; ++t) {
      if (!inflight[t]) continue;
      if (!workers[t]->op_done.load(std::memory_order_acquire)) continue;
      result.steps.push_back(StepRecord{
          t, pc[t],
          workers[t]->op_deadlocked.load(std::memory_order_relaxed)
              ? StepRecord::Outcome::kUnblockedDeadlock
              : StepRecord::Outcome::kUnblocked});
      notify_observer(result.steps.back());
      inflight[t] = false;
      ++pc[t];
    }
  };

  for (;;) {
    // Runnable: next op exists and the thread is idle. Concurrent
    // acquires of the same monitor used to be deferred here (woken
    // waiters raced a CAS, so multi-waiter wakeups were
    // nondeterministic); direct handoff made them deterministic, so the
    // restriction is gone and multi-waiter scripts are legal.
    std::vector<std::size_t> runnable;
    for (std::size_t t = 0; t < n; ++t) {
      if (inflight[t] || pc[t] >= script.threads[t].size()) continue;
      runnable.push_back(t);
    }

    if (runnable.empty()) {
      bool any_inflight = false;
      for (std::size_t t = 0; t < n; ++t) any_inflight |= inflight[t];
      if (!any_inflight) break;  // every script finished
      // Only blocked ops remain: they can complete solely through a
      // state change some other thread makes — and no other thread has
      // ops left, so if they are all stably parked this is a stall.
      if (!wait_settled()) {
        result.stalled = true;
        break;
      }
      bool progressed = false;
      for (std::size_t t = 0; t < n; ++t) {
        progressed |=
            inflight[t] && workers[t]->op_done.load(std::memory_order_acquire);
      }
      if (!progressed) {
        result.stalled = true;
        break;
      }
      record_unblocked();
      continue;
    }

    const std::size_t t = choose(runnable);
    const Op& op = script.threads[t][pc[t]];
    workers[t]->Dispatch(op);
    inflight[t] = true;

    // Settle this op (done or quiescently parked), then the whole system
    // (its wake-chain may complete other blocked ops).
    const auto deadline = std::chrono::steady_clock::now() + kStepDeadline;
    while (!settled(t)) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::yield();
    }
    if (!wait_settled()) {
      result.stalled = true;
      break;
    }

    if (workers[t]->op_done.load(std::memory_order_acquire)) {
      StepRecord::Outcome outcome = StepRecord::Outcome::kCompleted;
      if (workers[t]->op_deadlocked.load(std::memory_order_relaxed)) {
        outcome = StepRecord::Outcome::kDeadlock;
      } else if (workers[t]->op_skipped.load(std::memory_order_relaxed)) {
        outcome = StepRecord::Outcome::kSkipped;
      }
      result.steps.push_back(StepRecord{t, pc[t], outcome});
      notify_observer(result.steps.back());
      inflight[t] = false;
      ++pc[t];
    } else {
      result.steps.push_back(
          StepRecord{t, pc[t], StepRecord::Outcome::kBlocked});
      notify_observer(result.steps.back());
      // stays in flight; completion recorded by a later step
    }
    record_unblocked();
  }

  // Collect observable state before teardown: parked threads release
  // the runtime mutex while they sleep, so this is safe even when
  // stalled.
  result.stats = rt.GetStats();
  const History history = rt.SnapshotHistory();
  for (const SignatureRecord& rec : history.records()) {
    result.final_history.emplace_back(rec.sig.ContentId(), rec.disabled);
  }
  std::sort(result.final_history.begin(), result.final_history.end());

  if (result.stalled) {
    // Never-expected diagnostic path (a runtime liveness bug or a script
    // violating the determinism contract): blocked workers are parked
    // inside rt.Acquire and cannot be joined. Detach them and leak the
    // session so the [STALLED] trace reaches the caller instead of this
    // function hanging in join().
    for (auto& w : workers) w->thread.detach();
    (void)session.release();
    return result;
  }
  for (auto& w : workers) w->Stop();
  result.stats = rt.GetStats();  // include the workers' drain releases
  return result;
}

// ---------------------------------------------------------------------------
// Shared script-builder helpers.
// ---------------------------------------------------------------------------

void PushChain(std::vector<Op>& ops, const std::string& cls,
               std::uint32_t depth, const Frame& top) {
  for (std::uint32_t i = 0; i + 1 < depth; ++i) {
    ops.push_back(
        Op::Push(testutil::F(cls, "m" + std::to_string(i), i + 1)));
  }
  ops.push_back(Op::Push(top));
}

void PopChain(std::vector<Op>& ops, std::uint32_t depth) {
  for (std::uint32_t i = 0; i < depth; ++i) ops.push_back(Op::Pop());
}

Script OneSidedSuspensionScript(const OneSidedSuspension& p) {
  using testutil::ChainStack;
  using testutil::F;
  Script s;
  s.num_monitors = 2;
  const Signature sig =
      testutil::Sig2(ChainStack("sc.X", p.depth, F("sc.X", "sync", 100)),
                     ChainStack("sc.X", p.depth, F("sc.X", "in", 110)),
                     ChainStack("sc.Y", p.depth, F("sc.Y", "sync", 120)),
                     ChainStack("sc.Y", p.depth, F("sc.Y", "in", 130)));
  s.initial_history.push_back(sig);
  if (!p.enabled) s.initially_disabled.push_back(sig.ContentId());

  s.threads.emplace_back();  // thread 0: occupant of monitor 1
  PushChain(s.threads[0], "sc.Y", p.depth,
            F("sc.Y", "sync", p.occupant_matches ? 120u : 121u));
  s.threads[0].push_back(Op::Acquire(1));
  s.threads[0].push_back(Op::Release(1));
  PopChain(s.threads[0], p.depth);

  s.threads.emplace_back();  // thread 1: acquirer of monitor 0
  PushChain(s.threads[1], "sc.X", p.depth,
            F("sc.X", "sync", p.acquirer_matches ? 100u : 101u));
  s.threads[1].push_back(Op::Acquire(0));
  s.threads[1].push_back(Op::Release(0));
  PopChain(s.threads[1], p.depth);
  return s;
}

Chooser OccupantThenAcquirerOrder(std::uint32_t depth) {
  std::vector<std::size_t> order;
  for (std::uint32_t i = 0; i < depth + 1; ++i) order.push_back(0);
  for (std::uint32_t i = 0; i < depth + 1; ++i) order.push_back(1);
  for (std::uint32_t i = 0; i < depth + 1; ++i) order.push_back(0);
  for (std::uint32_t i = 0; i < depth + 1; ++i) order.push_back(1);
  return ScriptedChooser(std::move(order));
}

Script TwoSidedSuspensionScript(std::uint32_t depth) {
  using testutil::ChainStack;
  using testutil::F;
  Script s;
  s.num_monitors = 4;
  const std::string x = "ts.X";
  const std::string y = "ts.Y";
  const Signature sig =
      testutil::Sig2(ChainStack(x, depth, F(x, "sync", 300)),
                     ChainStack(x, depth, F(x, "in", 310)),
                     ChainStack(y, depth, F(y, "sync", 320)),
                     ChainStack(y, depth, F(y, "in", 330)));
  s.initial_history.push_back(sig);
  // Avoidance would suspend whichever occupant acquires second (it sees
  // the first occupying the signature's other side), so both sides could
  // never be occupied at once. Start the signature disabled; thread 4
  // re-enables it once the occupants hold.
  s.initially_disabled.push_back(sig.ContentId());

  // Threads 0/1: occupants holding monitors 0/1 under the X/Y stacks.
  // Threads 2/3: acquirers whose stacks match X/Y, each gated by the
  // *other* side's occupant.
  for (int side = 0; side < 2; ++side) {
    auto& occ = s.threads.emplace_back();
    const std::string& cls = side == 0 ? x : y;
    PushChain(occ, cls, depth, F(cls, "sync", side == 0 ? 300u : 320u));
    occ.push_back(Op::Acquire(static_cast<std::size_t>(side)));
    occ.push_back(Op::Release(static_cast<std::size_t>(side)));
    PopChain(occ, depth);
  }
  for (int side = 0; side < 2; ++side) {
    auto& acq = s.threads.emplace_back();
    const std::string& cls = side == 0 ? x : y;
    PushChain(acq, cls, depth, F(cls, "sync", side == 0 ? 300u : 320u));
    acq.push_back(Op::Acquire(static_cast<std::size_t>(2 + side)));
    acq.push_back(Op::Release(static_cast<std::size_t>(2 + side)));
    PopChain(acq, depth);
  }
  s.threads.emplace_back().push_back(  // thread 4: the enabler
      Op::ReEnableSig(sig.ContentId()));
  return s;
}

// ---------------------------------------------------------------------------
// Grouped random script generation.
// ---------------------------------------------------------------------------
namespace {

using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

struct Builder {
  Script script;
  std::size_t NewMonitor() { return script.num_monitors++; }
  std::vector<Op>& NewThread() {
    script.threads.emplace_back();
    return script.threads.back();
  }
};

/// Adaptive-gate site: a signature whose first side ends at this
/// thread's lock statement while its second side's site is never
/// visited. Every acquisition is a candidate hit whose scan must come
/// back empty — the gate's bread-and-butter skip, decision-identical by
/// construction. The thread loops acquire/release a few times.
void AddGateSkipGroup(Builder& b, Rng& rng, std::size_t group) {
  const std::string cls = "g" + std::to_string(group) + ".Skip";
  const std::string ghost = "g" + std::to_string(group) + ".Ghost";
  const std::uint32_t depth = 1 + static_cast<std::uint32_t>(
                                      rng.NextBounded(3));
  const Frame top = F(cls, "sync", 100);
  b.script.initial_history.push_back(
      Sig2(ChainStack(cls, depth, top), ChainStack(cls, depth, F(cls, "in", 110)),
           ChainStack(ghost, depth, F(ghost, "sync", 120)),
           ChainStack(ghost, depth, F(ghost, "in", 130))));
  const std::size_t m = b.NewMonitor();
  auto& ops = b.NewThread();
  PushChain(ops, cls, depth, top);
  const int iters = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < iters; ++i) {
    ops.push_back(Op::Acquire(m));
    ops.push_back(Op::Release(m));
  }
  PopChain(ops, depth);
}

/// One-sided suspension pair: occupant holds monitor B under a stack
/// that matches (or not) the signature's second side; acquirer takes
/// monitor A under a stack matching (or not) the first. Iff both match
/// and the signature is enabled when the acquirer arrives, the acquirer
/// suspends until the occupant releases. Which of those interleavings
/// happens is the Chooser's pick — every one of them is decision-
/// deterministic because only the acquirer can ever block.
void AddSuspensionGroup(Builder& b, Rng& rng, std::size_t group,
                        bool* has_disable_target,
                        std::uint64_t* disable_content) {
  const std::string x = "g" + std::to_string(group) + ".X";
  const std::string y = "g" + std::to_string(group) + ".Y";
  const std::uint32_t depth =
      1 + static_cast<std::uint32_t>(rng.NextBounded(3));
  const bool acquirer_matches = rng.NextBool(0.7);
  const bool occupant_matches = rng.NextBool(0.7);
  const bool enabled = rng.NextBool(0.8);

  const Signature sig =
      Sig2(ChainStack(x, depth, F(x, "sync", 200)),
           ChainStack(x, depth, F(x, "in", 210)),
           ChainStack(y, depth, F(y, "sync", 220)),
           ChainStack(y, depth, F(y, "in", 230)));
  b.script.initial_history.push_back(sig);
  if (!enabled) {
    b.script.initially_disabled.push_back(sig.ContentId());
  } else if (has_disable_target != nullptr && !*has_disable_target &&
             rng.NextBool(0.3)) {
    // Let the churn thread disable this signature mid-schedule: any
    // suspended acquirer must then be admitted (deterministically).
    *has_disable_target = true;
    *disable_content = sig.ContentId();
  }

  const std::size_t a = b.NewMonitor();
  const std::size_t mb = b.NewMonitor();

  auto& occupant = b.NewThread();
  PushChain(occupant, y, depth,
            F(y, "sync", occupant_matches ? 220u : 221u));
  occupant.push_back(Op::Acquire(mb));
  occupant.push_back(Op::Release(mb));
  PopChain(occupant, depth);

  auto& acquirer = b.NewThread();
  PushChain(acquirer, x, depth,
            F(x, "sync", acquirer_matches ? 200u : 201u));
  acquirer.push_back(Op::Acquire(a));
  acquirer.push_back(Op::Release(a));
  PopChain(acquirer, depth);
}

/// Two-sided suspension quad (see TwoSidedSuspensionScript): occupants
/// hold under both sides of a signature while two acquirers — each
/// matching one side — hit fresh monitors and yield to the *other*
/// side's occupant, so both can be suspended at once. Legal in random
/// scripts since the deterministic wake turnstile: the drain order as
/// occupants release is fixed by thread ids, not an internal race.
void AddTwoSidedSuspensionGroup(Builder& b, Rng& rng, std::size_t group) {
  const std::string x = "g" + std::to_string(group) + ".TX";
  const std::string y = "g" + std::to_string(group) + ".TY";
  const std::uint32_t depth =
      1 + static_cast<std::uint32_t>(rng.NextBounded(3));
  const Signature sig =
      Sig2(ChainStack(x, depth, F(x, "sync", 400)),
           ChainStack(x, depth, F(x, "in", 410)),
           ChainStack(y, depth, F(y, "sync", 420)),
           ChainStack(y, depth, F(y, "in", 430)));
  b.script.initial_history.push_back(sig);
  // Disabled at start so both occupants can hold at once; a dedicated
  // enabler thread re-arms the signature at a chooser-picked moment.
  // Whatever the interleaving — enabled before, between, or after the
  // acquirers arrive — every outcome is decision-deterministic.
  b.script.initially_disabled.push_back(sig.ContentId());
  b.NewThread().push_back(Op::ReEnableSig(sig.ContentId()));
  for (int side = 0; side < 2; ++side) {
    const std::string& cls = side == 0 ? x : y;
    const std::uint32_t line = side == 0 ? 400u : 420u;
    const std::size_t m = b.NewMonitor();
    auto& occ = b.NewThread();
    PushChain(occ, cls, depth, F(cls, "sync", line));
    occ.push_back(Op::Acquire(m));
    occ.push_back(Op::Release(m));
    PopChain(occ, depth);
  }
  for (int side = 0; side < 2; ++side) {
    const std::string& cls = side == 0 ? x : y;
    const std::uint32_t line = side == 0 ? 400u : 420u;
    const std::size_t m = b.NewMonitor();
    auto& acq = b.NewThread();
    PushChain(acq, cls, depth, F(cls, "sync", line));
    acq.push_back(Op::Acquire(m));
    acq.push_back(Op::Release(m));
    PopChain(acq, depth);
  }
}

/// ABBA detection pair: no signature installed; whether a deadlock forms
/// (and which thread's acquisition aborts) depends purely on the
/// interleaving, which the Chooser fixes. One round only — a learned
/// signature must not turn the group into a two-sided avoidance race.
void AddAbbaGroup(Builder& b, std::size_t group) {
  const std::string p = "g" + std::to_string(group) + ".P";
  const std::string q = "g" + std::to_string(group) + ".Q";
  const std::size_t a = b.NewMonitor();
  const std::size_t mb = b.NewMonitor();

  auto& t1 = b.NewThread();
  t1.push_back(Op::Push(F(p, "outer", 1)));
  t1.push_back(Op::Acquire(a));
  t1.push_back(Op::Push(F(p, "inner", 2)));
  t1.push_back(Op::Acquire(mb));
  t1.push_back(Op::Release(mb));
  t1.push_back(Op::Pop());
  t1.push_back(Op::Release(a));
  t1.push_back(Op::Pop());

  auto& t2 = b.NewThread();
  t2.push_back(Op::Push(F(q, "outer", 1)));
  t2.push_back(Op::Acquire(mb));
  t2.push_back(Op::Push(F(q, "inner", 2)));
  t2.push_back(Op::Acquire(a));
  t2.push_back(Op::Release(a));
  t2.push_back(Op::Pop());
  t2.push_back(Op::Release(mb));
  t2.push_back(Op::Pop());
}

/// History churn thread: adds unrelated signatures (index republishes,
/// wakeups of every parked thread) and optionally
/// disables/re-enables a suspension group's signature mid-schedule.
void AddChurnThread(Builder& b, Rng& rng, bool has_disable_target,
                    std::uint64_t disable_content) {
  auto& ops = b.NewThread();
  const int mutations = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < mutations; ++i) {
    const std::uint32_t salt = 9000 + static_cast<std::uint32_t>(
                                          rng.NextBounded(64));
    ops.push_back(Op::AddSig(
        Sig2(ChainStack("zz.C", 6, F("zz.C", "s", salt)),
             ChainStack("zz.C", 6, F("zz.C", "i", salt + 1)),
             ChainStack("zz.D", 6, F("zz.D", "s", salt + 2)),
             ChainStack("zz.D", 6, F("zz.D", "i", salt + 3)))));
  }
  if (has_disable_target) {
    ops.push_back(Op::DisableSig(disable_content));
    ops.push_back(Op::ReEnableSig(disable_content));
  }
}

}  // namespace

Script GenerateGroupedScript(std::uint64_t seed) {
  Rng rng(seed);
  Builder b;
  bool has_disable_target = false;
  std::uint64_t disable_content = 0;
  const std::size_t groups = 2 + rng.NextBounded(3);
  for (std::size_t g = 0; g < groups; ++g) {
    switch (rng.NextBounded(4)) {
      case 0:
        AddGateSkipGroup(b, rng, g);
        break;
      case 1:
        AddSuspensionGroup(b, rng, g, &has_disable_target, &disable_content);
        break;
      case 2:
        AddTwoSidedSuspensionGroup(b, rng, g);
        break;
      default:
        AddAbbaGroup(b, g);
        break;
    }
  }
  if (rng.NextBool(0.7)) {
    AddChurnThread(b, rng, has_disable_target, disable_content);
  }
  return b.script;
}

}  // namespace communix::dimmunix::schedule
