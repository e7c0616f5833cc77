// Per-thread shadow call stack and scheduling state.
//
// The paper's Dimmunix obtains call stacks from the JVM at instrumentation
// points. Our C++ substrate keeps an explicit shadow stack per thread,
// maintained by RAII `ScopedFrame` guards that model method entry/exit;
// `SetLine` models the program counter advancing within the top method.
// This yields deterministic, portable stacks with the same matching
// semantics as JVM stack traces.
//
// The shadow stack is a pointer to the top node of a chain of interned
// frames (stack_node.hpp). A push resolves the frame in the thread's own
// FrameTable, a pop follows the parent link, and a capture is the top
// pointer plus a depth — O(1), with no allocation and no string copy.
// Captures stay valid after the stack moves on because nodes are
// immutable and live as long as this context.
//
// Concurrency: fields fall into three guard classes.
//  * `top_`, `frames_`, `index_`, `gate_skips_` — written by the owning
//    thread only. `top_` is atomic only so the reaper can see the stack
//    drain.
//  * `held_`, the pending slot `pending_seq_` (plus the acq_stack_/
//    acq_bucket_/recursion_ of the monitors in `held_`) — published
//    state the avoidance scanner must see even for fast-path
//    acquisitions. Writes happen on the owning thread under this
//    thread's `state_mu_`; the scanner (which runs under the runtime
//    mutex) takes `state_mu_` per scanned thread. The fast path
//    therefore only ever touches its own cache-local lock, never the
//    runtime-wide mutex. Since only the owner writes them, the owner may
//    read `held_` and its monitors' buckets without the lock (the
//    adaptive gate does, to subtract its own occupancy entries).
//    Publishing a capture copies a StackRef, so nothing is allocated
//    under `state_mu_`. The pending slot is *unresolved* while odd: a
//    fast-path attempt is published and has not yet committed into
//    `held_` or retracted. An unresolved attempt is neither an occupant
//    nor provably not one, so a scan that meets it releases `state_mu_`
//    and waits for that attempt to resolve. Resolving takes only
//    `state_mu_`, never the runtime mutex the scanner holds, so the
//    wait is bounded.
//  * `waiting_for_`, `waiting_stack_`, `in_avoidance_`, `yield_targets_`,
//    `detached_` — written exclusively under the runtime mutex (these
//    only change on the slow path).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dimmunix/frame.hpp"
#include "dimmunix/stack_node.hpp"
#include "dimmunix/stats.hpp"

namespace communix::dimmunix {

class AvoidanceIndex;
class Monitor;
class DimmunixRuntime;

class ThreadContext {
 public:
  std::uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  // ---- shadow stack: called only by the owning thread ----
  void PushFrame(const Frame& frame) { SetTop(frames_.Child(top(), frame)); }
  void PushFrame(std::string_view class_name, std::string_view method,
                 std::uint32_t line) {
    SetTop(frames_.Child(top(), class_name, method, line));
  }
  void PopFrame() {
    if (const StackNode* t = top()) {
      // The release-store is the owner's last touch of its frames: once
      // the stack is empty after DetachThread, the runtime may reclaim
      // this context and its FrameTable (see ReapDetachedLocked).
      top_.store(t->parent, std::memory_order_release);
    }
  }
  /// Updates the line of the top frame (execution advanced within the
  /// current method). No-op on an empty stack.
  void SetLine(std::uint32_t line) {
    const StackNode* t = top();
    if (t != nullptr && t->line != line) SetTop(frames_.WithLine(t, line));
  }
  std::size_t stack_depth() const {
    const StackNode* t = top();
    return t == nullptr ? 0 : t->depth;
  }

  /// The current stack, truncated to the top `max_depth` frames. O(1):
  /// the capture shares the interned nodes, which stay valid while this
  /// context lives.
  StackRef Capture(std::size_t max_depth) const {
    return StackRef(top(), max_depth);
  }
  /// Copy of the current stack, truncated to the top `max_depth` frames.
  CallStack CaptureStack(std::size_t max_depth) const {
    return Capture(max_depth).Materialize();
  }

 private:
  friend class DimmunixRuntime;

  ThreadContext(std::uint64_t id, std::string name)
      : id_(id), name_(std::move(name)) {}

  const std::uint64_t id_;
  const std::string name_;

  const StackNode* top() const { return top_.load(std::memory_order_relaxed); }
  void SetTop(const StackNode* node) {
    top_.store(node, std::memory_order_relaxed);
  }

  /// Interned frames of this thread's stacks (owning thread only).
  FrameTable frames_;
  /// Top of the shadow stack; nullptr when empty. ScopedFrame guards
  /// routinely pop *after* DetachThread (scope exit order), so the
  /// reaper must not free a tombstoned context until this reads nullptr.
  std::atomic<const StackNode*> top_{nullptr};

  /// This thread's copy of the runtime's avoidance index and the
  /// publication sequence it was taken at (owning thread only). The fast
  /// path refreshes it only when the runtime's sequence word moves, so a
  /// steady-state acquisition reads one shared word and writes nothing
  /// shared.
  std::shared_ptr<const AvoidanceIndex> index_;
  std::uint64_t index_seq_ = 0;

  /// Publication lock for `held_`, the pending slot, and the acq_stack_
  /// of owned monitors; see the class comment. Uncontended in the fast
  /// path.
  mutable std::mutex state_mu_;
  std::vector<Monitor*> held_;  // monitors currently owned (state_mu_)
  /// Pending slot (state_mu_): bumped when a fast-path attempt is
  /// published, *before* its occupancy-gate read and ownership CAS, and
  /// again when it commits into held_ or retracts — odd means
  /// unresolved. A scan thus never has a blind window between a fast
  /// acquirer claiming a monitor and its held_ entry appearing, and
  /// never counts an attempt that will retract (see the class comment).
  std::uint64_t pending_seq_ = 0;
  /// Zero peer reads of the adaptive gate on this thread (owning thread
  /// only); every Options::adaptive_verify_sample-th one is verified by a
  /// scan.
  std::uint64_t gate_skips_ = 0;

  /// This thread's shard of the runtime statistics; bumped lock-free by
  /// the owning thread, summed by DimmunixRuntime::GetStats, folded into
  /// the runtime's shard when the context is reaped.
  StatCounters counters_;

  /// Park telemetry for the deterministic-schedule test harness: while
  /// `parked_` is true the thread sits in the runtime's version-gated
  /// cv wait, and `park_version_` is the state version it decided to
  /// wait on — if that still equals the current version, the thread
  /// cannot advance until a writer bumps it (quiescently parked).
  std::atomic<bool> parked_{false};
  std::atomic<std::uint64_t> park_version_{0};

  // ---- guarded by DimmunixRuntime::mu_ ----
  Monitor* waiting_for_ = nullptr;  // blocked on this monitor's owner
  StackRef waiting_stack_;          // stack capture at block time
  bool in_avoidance_ = false;       // suspended by the avoidance module
  std::vector<ThreadContext*> yield_targets_;  // occupants we yield to
  bool detached_ = false;
};

/// RAII method-entry guard: pushes a frame, pops it on scope exit. The
/// names are interned on first use, so they need not outlive the guard.
class ScopedFrame {
 public:
  ScopedFrame(ThreadContext& ctx, std::string_view class_name,
              std::string_view method, std::uint32_t line)
      : ctx_(ctx) {
    ctx_.PushFrame(class_name, method, line);
  }
  ~ScopedFrame() { ctx_.PopFrame(); }

  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

 private:
  ThreadContext& ctx_;
};

}  // namespace communix::dimmunix
