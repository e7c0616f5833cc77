// Monitor: the lock abstraction Dimmunix interposes on.
//
// Stands in for a Java object monitor (synchronized block/method). A
// Monitor must only be acquired/released through the owning
// DimmunixRuntime, which is exactly the interposition point the paper
// instruments with AspectJ.
//
// Concurrency protocol (fast-path runtime mode):
//  * `owner_word_` is the atomic ownership word: the owning
//    ThreadContext* with the low `kWaiterBit` flagging that the runtime's
//    wait queue for this monitor is (or is about to be) non-empty. The
//    uncontended fast path claims the word with a CAS 0 -> ctx and
//    releases it with a CAS ctx -> 0; the slow path performs the same
//    transitions while holding the runtime mutex. A release whose CAS
//    fails (waiter bit set) must not store 0 — that would reopen the
//    barging steal window — and instead transfers the word directly to a
//    queued waiter (direct handoff, MCS/futex style). So ownership is
//    granted either by winning the claim CAS or by receiving a handoff;
//    there is no other grant mechanism, and the word never reads 0 while
//    a parked waiter sits in `wait_queue_`.
//  * `recursion_` is owned by the current owner thread only. Ownership
//    hand-over (release-store / CAS-acquire on `owner_word_`) orders the
//    old owner's writes before the new owner's accesses.
//  * `acq_stack_` is a capture (top node + depth) of the owner's
//    interned stack, so setting it copies two words and never
//    allocates. The owner writes it under its ThreadContext publication
//    lock (`state_mu_`), and resets it there *before* `owner_word_` is
//    cleared on release, so it never outlives the owner's frame table.
//    Slow-path scanners read it either (a) under the holder's
//    `state_mu_` while walking that thread's held-set, or (b) under the
//    runtime mutex for monitors whose owner is parked in the runtime's
//    wait loop (parked threads cannot concurrently mutate it).
//  * `wait_queue_` is the FIFO of slow-path acquirers blocked on this
//    monitor, guarded by the runtime mutex. A blocked acquirer enqueues
//    itself when it announces the block and verifies the waiter bit is
//    set before every park; a releasing owner that hits the bit pops the
//    handoff winner (queue head, unless the wake-order test hook picks
//    otherwise) and writes it straight into the word.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dimmunix/stack_node.hpp"

namespace communix::dimmunix {

class ThreadContext;
class DimmunixRuntime;

class Monitor {
 public:
  explicit Monitor(std::string name = "")
      : id_(next_id_.fetch_add(1, std::memory_order_relaxed)),
        name_(std::move(name)) {}

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  std::uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  friend class DimmunixRuntime;

  static std::atomic<std::uint64_t> next_id_;

  /// Low bit of the ownership word: the wait queue is non-empty (or a
  /// waiter has committed to enqueueing), so a release must hand off
  /// instead of storing 0. ThreadContext is at least pointer-aligned, so
  /// the bit never collides with the owner pointer.
  static constexpr std::uintptr_t kWaiterBit = 1;

  static std::uintptr_t Pack(ThreadContext* ctx, bool waiters) {
    return reinterpret_cast<std::uintptr_t>(ctx) |
           (waiters ? kWaiterBit : 0);
  }
  static ThreadContext* UnpackOwner(std::uintptr_t word) {
    return reinterpret_cast<ThreadContext*>(word & ~kWaiterBit);
  }

  const std::uint64_t id_;
  const std::string name_;

  /// Ownership word (owner pointer | kWaiterBit); see the protocol
  /// comment above.
  std::atomic<std::uintptr_t> owner_word_{0};
  /// Current owner, ignoring the waiter bit.
  ThreadContext* owner(std::memory_order order) const {
    return UnpackOwner(owner_word_.load(order));
  }
  /// Slow-path acquirers blocked on this monitor, in arrival (announce)
  /// order. Guarded by the runtime mutex.
  std::vector<ThreadContext*> wait_queue_;
  /// Reentrancy depth; accessed only by the current owner.
  int recursion_ = 0;
  /// Call stack the owner had when it acquired this monitor — the "outer"
  /// stack if this monitor ends up in a deadlock cycle. Guarded by the
  /// owner's ThreadContext::state_mu_.
  StackRef acq_stack_;
  /// Occupancy bucket of acq_stack_'s top-frame key, cached at
  /// acquisition so the release path can decrement the adaptive gate's
  /// occupancy counter without rehashing. Same guard as acq_stack_.
  std::uint32_t acq_bucket_ = 0;
};

}  // namespace communix::dimmunix
