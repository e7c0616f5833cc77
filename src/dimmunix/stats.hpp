// Runtime statistics, declared once.
//
// RuntimeStatFields<T> lists the runtime's counters. RuntimeStats, what
// DimmunixRuntime::GetStats() returns, instantiates it with plain
// integers and adds two gauges. StatCounters instantiates it with
// relaxed atomics as a per-thread shard: each ThreadContext owns one
// that its thread bumps without contention, the runtime keeps one more
// for events with no acquiring thread (index republishes, history
// injection, reaping), and GetStats() sums the shards (AddShard). A
// tombstoned context's shard is added into the runtime's before it is
// reaped, so totals are exact across attach/detach churn. The shards are
// not obs::Counter: its round-robin slot can put two live threads on
// one cache line, and the acquire fast path writes no shared line.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace communix::dimmunix {

template <typename T>
struct RuntimeStatFields {
  T acquisitions{};
  T contended_acquisitions{};
  T avoidance_suspensions{};
  T yield_cycle_overrides{};
  T deadlocks_detected{};
  T signatures_learned{};
  /// Detections that generalized an existing local signature (§III-D
  /// merge rule 1) instead of adding a new history entry.
  T local_generalizations{};
  T false_positives_flagged{};
  /// Acquisitions completed by the lock-free path (uncontended CAS, and
  /// a top frame with no candidates or an adaptive gate that read no
  /// occupied peer bucket) without touching the runtime mutex.
  T fast_path_acquisitions{};
  /// Releases that neither took the runtime mutex nor had to wake anyone.
  T fast_path_releases{};
  /// Acquisitions that entered the global-lock slow path: scans,
  /// suspensions, contention and detection (every acquisition, in
  /// kGlobalLock mode).
  T slow_path_entries{};
  /// Times a thread parked in the runtime's version-gated wait loop.
  T wait_rounds{};
  /// Releases that transferred ownership directly to a queued waiter
  /// (the waiter bit was set) instead of freeing the owner word.
  T handoffs{};
  /// Fast-path claim CASes that failed while the waiter bit was set: a
  /// would-be barger turned away from a monitor with parked waiters. The
  /// barging protocol could have let such a CAS steal the monitor right
  /// after a release; direct handoff makes the steal structurally
  /// impossible (the word never reads free while the queue is non-empty).
  T barges_prevented{};
  /// Full instantiation scans actually executed by the avoidance module.
  T instantiation_scans{};
  /// Instantiation scans the adaptive gate actually elided, on either
  /// path (no other thread occupied any other signature position, and
  /// the zero read was not a sampled verification). scans_skipped +
  /// instantiation_scans equals the candidate-hit gate decisions;
  /// decisions are unchanged.
  T scans_skipped{};
  /// Scans the adaptive gate ran anyway (1-in-N sampling of each
  /// thread's zero reads) to validate the gate invariant.
  T sampled_verification_scans{};
  /// Sampled verification scans that found an instantiation the gate
  /// claimed impossible. Always 0 unless the occupancy protocol is
  /// broken; the runtime fails safe (yields as the reference would).
  T adaptive_gate_mismatches{};
  /// Times the avoidance index was rebuilt and re-published (total).
  T index_republishes{};
  /// Republishes served by a delta rebuild (entries reused from the
  /// previous snapshot) vs. a from-scratch full build.
  T index_delta_rebuilds{};
  T index_full_rebuilds{};
  /// Signature entries delta rebuilds reused (not deep-copied).
  T index_entries_reused{};
  /// Tombstoned thread contexts reclaimed.
  T threads_reaped{};

  /// The registry name of every field (obs/metrics.hpp, "Stat lists").
  template <typename Fn, typename... S>
  static void ForEach(Fn&& fn, S&&... s) {
    using enum obs::MetricKind;
    fn(kCounter, "acquisitions", s.acquisitions...);
    fn(kCounter, "contended_acquisitions", s.contended_acquisitions...);
    fn(kCounter, "avoidance_suspensions", s.avoidance_suspensions...);
    fn(kCounter, "yield_cycle_overrides", s.yield_cycle_overrides...);
    fn(kCounter, "deadlocks_detected", s.deadlocks_detected...);
    fn(kCounter, "signatures_learned", s.signatures_learned...);
    fn(kCounter, "local_generalizations", s.local_generalizations...);
    fn(kCounter, "false_positives_flagged", s.false_positives_flagged...);
    fn(kCounter, "fast_path_acquisitions", s.fast_path_acquisitions...);
    fn(kCounter, "fast_path_releases", s.fast_path_releases...);
    fn(kCounter, "slow_path_entries", s.slow_path_entries...);
    fn(kCounter, "wait_rounds", s.wait_rounds...);
    fn(kCounter, "handoffs", s.handoffs...);
    fn(kCounter, "barges_prevented", s.barges_prevented...);
    fn(kCounter, "instantiation_scans", s.instantiation_scans...);
    fn(kCounter, "scans_skipped", s.scans_skipped...);
    fn(kCounter, "sampled_verification_scans", s.sampled_verification_scans...);
    fn(kCounter, "adaptive_gate_mismatches", s.adaptive_gate_mismatches...);
    fn(kCounter, "index_republishes", s.index_republishes...);
    fn(kCounter, "index_delta_rebuilds", s.index_delta_rebuilds...);
    fn(kCounter, "index_full_rebuilds", s.index_full_rebuilds...);
    fn(kCounter, "index_entries_reused", s.index_entries_reused...);
    fn(kCounter, "threads_reaped", s.threads_reaped...);
  }
};

/// Plain aggregated snapshot, returned by DimmunixRuntime::GetStats().
struct RuntimeStats : RuntimeStatFields<std::uint64_t> {
  // ---- gauges (current state, not counter shards) ----

  /// Occupancy-table width currently in effect (see
  /// Options::occupancy_buckets; auto mode grows it at index build).
  std::uint64_t occupancy_buckets = 0;
  /// Distinct index keys sharing an occupancy bucket in the *current*
  /// avoidance-index snapshot. Each collision costs lost gate skips
  /// whenever the colliding key is occupied; a persistently nonzero
  /// value is the signal to widen the table.
  std::uint64_t occupancy_key_collisions = 0;

  template <typename Fn, typename... S>
  static void ForEach(Fn&& fn, S&&... s) {
    using enum obs::MetricKind;
    RuntimeStatFields::ForEach(fn, s...);
    fn(kGauge, "occupancy_buckets", s.occupancy_buckets...);
    fn(kGauge, "occupancy_key_collisions", s.occupancy_key_collisions...);
  }
};

/// One shard of relaxed-atomic counters, owned by a ThreadContext
/// (bumped contention-free by the owning thread) or by the runtime
/// (writer-side events).
using StatCounters = RuntimeStatFields<std::atomic<std::uint64_t>>;

/// Adds every counter of `shard` into `sum` (a RuntimeStats, or the
/// runtime's shard when a context is reaped). Relaxed loads: exact once
/// the shard's owner has quiesced, which the runtime arranges by summing
/// under its lock.
template <typename Sum>
void AddShard(Sum& sum, const StatCounters& shard) {
  StatCounters::ForEach(
      [](obs::MetricKind, const char*, auto& total,
         const std::atomic<std::uint64_t>& v) {
        total += v.load(std::memory_order_relaxed);
      },
      sum, shard);
}

}  // namespace communix::dimmunix
