// DimmunixRuntime: deadlock detection, signature extraction, and
// signature-based deadlock avoidance (§II-A).
//
// This is the deadlock-immunity substrate Communix builds on. The runtime
// interposes on every monitor acquisition/release:
//
//  * Avoidance. Before an acquisition, it checks whether granting the
//    lock would complete an *instantiation* of a history signature: for a
//    signature with outer stacks CS1..CSn, there must exist distinct
//    threads t1..tn holding or blocked at distinct locks with current
//    stacks matching CS1..CSn. If the caller would complete such a
//    pattern, it is suspended until the instantiation can no longer
//    complete. Suspensions are reported to the false-positive detector.
//    To never introduce stalls of its own, the runtime refuses to suspend
//    when doing so would close a cycle of yields and lock waits (the
//    yield-cycle override from the Dimmunix design).
//
//  * Detection. When a thread is about to block on a held monitor, the
//    runtime walks the wait-for chain; a cycle back to the caller is a
//    deadlock. The signature (outer stack of each involved lock at its
//    acquisition + inner stacks at the block points) is extracted, added
//    to the persistent history, and the caller's acquisition fails with
//    kDeadlock — modelling the paper's "application deadlocks once, user
//    restarts, and is immune afterwards" without killing the process.
//
// Concurrency: two-tier fast-path/slow-path architecture.
//
//  * Fast path (RuntimeMode::kFastPath, the default). An acquisition
//    whose monitor is free and that no enabled signature could gate
//    claims ownership with a single CAS and publishes its holding under
//    the calling thread's own publication lock, never touching the
//    runtime-wide mutex. Release symmetrically fast-paths when no waiter
//    or suspended avoider could need waking. Whether a signature could
//    gate the acquisition is read from the published AvoidanceIndex, an
//    immutable snapshot republished by every history writer, which then
//    bumps a sequence word. Each thread keeps its own shared_ptr copy of
//    the snapshot and re-copies it (under a small publication mutex)
//    only when the sequence word has moved, so a steady-state
//    acquisition reads one shared word; a retired snapshot is freed once
//    no thread's copy refers to it. A rebuild shares the history's
//    immutable signature payloads, so it copies no stacks.
//
//    The index lookup gives one of two answers. If the captured stack's
//    top frame has no candidates, the acquisition goes straight to the
//    CAS. If it has (a *candidate hit*), the *adaptive* scan gate runs on
//    the fast path too: every published occupancy (held monitor,
//    acquisition in flight, announced block) counts into an occupancy
//    table sharded by thread (OccupancyTable), and the gate reads the
//    buckets of the *peer* positions of the key's candidate signatures.
//    If no other thread has an entry there, the instantiation scan
//    would provably find no occupant set, so the acquisition skips it
//    and CASes; otherwise it takes the slow path, which scans. Every
//    fast acquisition runs these steps in order, so that its decision
//    matches the always-scan kGlobalLock reference (the schedule-harness
//    equivalence and gate-race tests exercise exactly this claim):
//      1. Enter its own bucket, publish its pending slot, marked
//         unresolved, and check that the index sequence word has not
//         moved since its snapshot (else: slow path). A scan that starts
//         after a republish therefore sees every attempt made under an
//         older snapshot, and the acquisition linearizes at that second
//         sequence-word read.
//      2. Candidate hits only: read the peer buckets, minus its own
//         entries (the scan ignores the caller). Both this gate and the
//         slow-path gate enter the caller's bucket before reading: a
//         Dekker pairing, so two acquisitions at peer positions of one
//         signature cannot both read zero.
//      3. If no peer is occupied, CAS and commit into the held-set,
//         which resolves the slot. Otherwise (or if the CAS loses),
//         retract the slot and take the slow path.
//    A scan that meets an unresolved slot waits until it commits (an
//    occupant) or retracts (not one), so a retracted attempt is never a
//    phantom occupant. Every Nth zero read per thread
//    (Options::adaptive_verify_sample) is verified: the fast path hands
//    it to the slow path with the scan forced, and a scan that finds an
//    instantiation after a zero read counts a gate mismatch.
//
//  * Slow path. Instantiation scans, avoidance suspensions, contention
//    and detection take the runtime-wide mutex `mu_`, which keeps the
//    instantiation check atomic with the lock grant exactly as in the
//    original centralized design (so do reentrant acquisitions in
//    global-lock mode). RuntimeMode::kGlobalLock routes *every*
//    operation through this path — it is the bit-identical legacy
//    behavior, kept as the reference for the fast-vs-global equivalence
//    property test.
//
//    Waits are version-gated: every state change under `mu_` bumps
//    `state_version_`, and sleepers re-check it before parking. A
//    slow-path loop that may park registers in `waiters_` *before* it
//    samples the version it would park on. A fast-path release (which
//    cannot hold `mu_` while a waiter decides to sleep) frees the owner
//    word and then probes `waiters_`: if it reads 0, every later
//    registrant examines the world after the release and sees it, so the
//    release writes nothing shared; otherwise it bumps the version, so
//    a registered waiter re-scans instead of parking, and it wakes the
//    parked ones under `mu_`. No wakeup is lost either way.
//
//  * Fair, deterministic wakeup. Monitor handoff is non-barging: a
//    blocked acquirer enqueues itself on the monitor's wait queue and
//    sets the waiter bit in the owner word before every park, and a
//    release that sees the bit transfers ownership directly to a queued
//    waiter (FIFO head unless the wake-order test hook picks otherwise)
//    instead of freeing the word — so a fast-path CAS can never steal a
//    monitor from a parked waiter (Stats::barges_prevented counts the
//    turned-away attempts, Stats::handoffs the direct transfers). Wakeups
//    themselves go through a turnstile: of the parked threads whose
//    observed version is stale, exactly one at a time (lowest thread id,
//    or the hook's pick — both deterministic and mode-independent) is
//    released to re-examine the world, which makes previously racy
//    multi-waiter wake paths (e.g. both sides of a signature suspended
//    concurrently) resolve in a reproducible order the schedule harness
//    can script.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <vector>

#include "dimmunix/avoidance_index.hpp"
#include "dimmunix/fp_detector.hpp"
#include "dimmunix/history.hpp"
#include "dimmunix/monitor.hpp"
#include "dimmunix/signature.hpp"
#include "dimmunix/stats.hpp"
#include "dimmunix/thread_context.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace communix::dimmunix {

/// Which acquisition architecture the runtime uses. kGlobalLock is the
/// pre-fast-path behavior (one runtime mutex around every operation);
/// kFastPath adds the lock-free uncontended path. Both make identical
/// avoidance/detection decisions.
enum class RuntimeMode { kFastPath, kGlobalLock };

class DimmunixRuntime {
 public:
  struct Options {
    bool avoidance_enabled = true;
    bool detection_enabled = true;
    /// Stacks are truncated to this many top frames when captured.
    std::size_t max_stack_depth = 64;
    /// If true, signatures flagged by the FP detector are disabled
    /// immediately (the paper instead warns the user and lets them
    /// decide; tests exercise both policies).
    bool auto_disable_false_positives = false;
    RuntimeMode mode = RuntimeMode::kFastPath;
    /// Adaptive scan gate (kFastPath only): candidate-hit sites whose
    /// candidate signatures have no live occupant in any *other* position
    /// skip the instantiation scan and stay on the fast path. Provably
    /// decision-identical to the always-scan kGlobalLock reference — the
    /// gate only elides scans that must return empty (see the class
    /// comment and OccupancyTable).
    bool adaptive_avoidance = true;
    /// Run a verification scan every Nth gate skip of each thread and
    /// count any disagreement in Stats::adaptive_gate_mismatches (0
    /// disables sampling). The runtime fails safe on mismatch: it honors
    /// the scan result, so even a broken gate cannot admit past the
    /// reference.
    std::uint32_t adaptive_verify_sample = 64;
    /// Occupancy-table width (power of two, clamped to
    /// [OccupancyTable::kMinBuckets, kMaxBuckets]). Collisions between
    /// index keys cost lost gate skips (Stats::occupancy_key_collisions
    /// counts them), so busy deployments want ~8 buckets per candidate
    /// key. 0 = auto: start at the default width and, at each index
    /// build that happens before any thread has attached (the
    /// install-persisted-history-at-startup pattern), grow to
    /// OccupancyTable::RecommendedBuckets(candidate-key count). Once a
    /// thread is attached the width is frozen — live occupancies cache
    /// their bucket index, so resizing under them would corrupt the
    /// zero-read proof.
    std::size_t occupancy_buckets = 0;
    FpDetector::Options fp;
  };

  explicit DimmunixRuntime(Clock& clock) : DimmunixRuntime(clock, Options{}) {}
  DimmunixRuntime(Clock& clock, Options options);
  ~DimmunixRuntime();

  DimmunixRuntime(const DimmunixRuntime&) = delete;
  DimmunixRuntime& operator=(const DimmunixRuntime&) = delete;

  // ---- thread lifecycle -------------------------------------------------
  /// Registers the calling thread; the returned context stays valid until
  /// DetachThread. A thread must not hold monitors when detaching.
  ThreadContext& AttachThread(std::string name);
  void DetachThread(ThreadContext& ctx);

  // ---- instrumented synchronization --------------------------------------
  /// Acquires `m` for `ctx` (reentrant). Returns kDeadlock if this
  /// acquisition would close a deadlock cycle: the signature has been
  /// recorded and the caller must unwind (release its monitors).
  Status Acquire(ThreadContext& ctx, Monitor& m);
  void Release(ThreadContext& ctx, Monitor& m);

  // ---- history management (plugin/agent side) ----------------------------
  /// Adds a signature (e.g. a validated remote one). Returns history
  /// index or -1 if duplicate.
  int AddSignature(Signature sig, SignatureOrigin origin);
  /// Replaces signature at `index` with its generalization.
  void ReplaceSignature(std::size_t index, Signature sig);
  /// Copies the history (for inspection/persistence without racing the
  /// workload).
  History SnapshotHistory() const;
  /// Monotonic counter bumped by every history mutation. Lock-free read;
  /// pollers compare it against their last-seen value to skip the deep
  /// copy entirely when nothing changed.
  std::uint64_t HistoryVersion() const {
    return history_version_.load(std::memory_order_acquire);
  }
  /// Copies the history only if its version differs from `*last_seen`
  /// (nullopt otherwise, without taking the runtime lock). On copy,
  /// `*last_seen` is updated to the version the copy reflects.
  std::optional<History> SnapshotHistoryIfChanged(
      std::uint64_t* last_seen) const;
  /// Runs `fn` with exclusive access to the history, then republishes
  /// the avoidance index — the single mutation entry point writers like
  /// the Communix agent batch their installs through.
  void WithHistory(const std::function<void(History&)>& fn);
  /// Drains the history's retired-content ledger (content ids whose
  /// entries were replaced by generalization or auto-disabled as false
  /// positives since the last drain) — what the plugin batches into one
  /// kMarkSuperseded frame per sync. See History::TakeRetiredContentIds.
  std::vector<std::uint64_t> DrainRetiredContentIds();

  // ---- hooks --------------------------------------------------------------
  using SignatureCallback = std::function<void(const Signature&)>;
  /// Invoked (outside the runtime lock) when detection produces a *new*
  /// signature — the Communix plugin's upload hook.
  void SetNewSignatureCallback(SignatureCallback cb);
  /// Invoked when the FP detector flags a signature (§III-C1 warning).
  void SetFalsePositiveCallback(SignatureCallback cb);

  // ---- introspection --------------------------------------------------
  /// Aggregated snapshot of the per-thread + runtime counter shards (see
  /// stats.hpp).
  using Stats = RuntimeStats;
  Stats GetStats() const;
  /// Registers a snapshot-time probe on `registry` that emits every
  /// GetStats() field under `<prefix>.` (counters; the occupancy fields
  /// as gauges) — the runtime tier's rows of the unified kStats
  /// snapshot. Release (or drop) the handle before destroying the
  /// runtime.
  [[nodiscard]] obs::ProbeHandle ExportStats(
      obs::MetricsRegistry& registry, std::string prefix = "dimmunix") const;
  /// Number of thread-context records currently retained (live +
  /// not-yet-reaped tombstones) — introspection for the reap tests.
  std::size_t ThreadRecordCount() const;
  Clock& clock() { return clock_; }
  const Options& options() const { return options_; }

  // ---- deterministic-schedule test-harness support ----------------------
  /// Current state version (lock-free). A thread parked at this version
  /// cannot advance until a writer bumps it.
  std::uint64_t StateVersionForTest() const {
    return state_version_.load(std::memory_order_seq_cst);
  }
  /// True iff `ctx` sits in the runtime's version-gated wait with no
  /// pending state change — i.e. it is stably blocked and will not move
  /// until another thread acts. Used by the schedule harness to decide
  /// that a dispatched operation has settled as "blocked".
  bool IsQuiescentlyParkedForTest(const ThreadContext& ctx) const {
    return ctx.parked_.load(std::memory_order_acquire) &&
           ctx.park_version_.load(std::memory_order_acquire) ==
               state_version_.load(std::memory_order_seq_cst);
  }
  /// Wakeup-ordering hook. Given the candidate set — for a handoff, the
  /// monitor's wait queue in FIFO arrival order; for the wake turnstile,
  /// the stale-parked threads in ascending thread-id order — returns the
  /// index of the candidate that should win (out-of-range clamps to the
  /// last). Installed by the schedule harness so scripted interleavings
  /// control which waiter wins; without a hook the defaults (FIFO head /
  /// lowest id) are themselves deterministic and mode-independent.
  using WakeOrderHook =
      std::function<std::size_t(const std::vector<const ThreadContext*>&)>;
  void SetWakeOrderHookForTest(WakeOrderHook hook);
  /// The points of an acquisition the gate-race tests interleave at,
  /// each reported just before it runs: the fast path's steps; entry
  /// into the slow path (before it takes the runtime mutex); the slow
  /// path's enter, peer read and first CAS (reported under the runtime
  /// mutex); and each round a scan spends waiting for another thread's
  /// unresolved pending slot.
  enum class GateStep : std::uint8_t {
    kEnter,
    kPublish,
    kPeerRead,
    kCas,
    kRetract,
    kSlowPath,
    kScanWait
  };
  using GateStepHook = std::function<void(const ThreadContext&, GateStep)>;
  /// Installs a hook called at every GateStep. Install it before any
  /// thread acquires: the fast path reads it without a lock.
  void SetGateStepHookForTest(GateStepHook hook);

 private:
  struct Occupant {
    ThreadContext* thread;
    const Monitor* lock;
  };

  /// Lock-free attempt (see the class comment); true iff the acquisition
  /// completed without the runtime lock. Sets `*verify` when it falls
  /// back only because its zero peer read is due for sampling.
  bool TryFastAcquire(ThreadContext& ctx, Monitor& m, StackRef stack,
                      bool* verify);
  /// The acquisition under `mu_`. With `verify`, the first gate
  /// evaluation scans even on a zero read and counts it as the sampled
  /// verification the fast path deferred.
  Status AcquireSlow(ThreadContext& ctx, Monitor& m, StackRef stack,
                     bool verify);
  /// `ctx`'s copy of the published avoidance index, refreshed if a
  /// republish happened since it was taken (owning thread only).
  const AvoidanceIndex& FastPathIndex(ThreadContext& ctx);
  void ReleaseSlow(ThreadContext& ctx, Monitor& m);

  /// If granting (ctx, m, stack) completes an instantiation of an enabled
  /// signature in `index`, returns the other occupants (and the matched
  /// signature's content id via `matched`); otherwise empty. Caller holds
  /// mu_ and has entered its occupancy bucket; the per-thread held-sets
  /// are sampled under their publication locks so fast-path holdings are
  /// visible, after waiting out any unresolved pending slot.
  std::vector<ThreadContext*> FindImminentInstantiation(
      const ThreadContext& ctx, const Monitor& m, StackRef stack,
      const AvoidanceIndex& index, std::uint64_t* matched_content_id) const;

  /// True iff suspending `ctx` yielding to `occupants` would close a
  /// cycle of yield + lock-wait edges.
  bool WouldCloseYieldCycle(const ThreadContext& ctx,
                            const std::vector<ThreadContext*>& occupants) const;

  /// Walks the wait-for chain from `m`'s owner; returns the cycle as
  /// (thread, monitor-it-waits-for) pairs if it reaches `ctx`.
  struct CycleNode {
    ThreadContext* thread;
    Monitor* waits_for;
  };
  std::vector<CycleNode> FindLockCycle(const ThreadContext& ctx,
                                       const Monitor& m) const;

  /// Materializes the cycle's captured stacks into a signature — the
  /// only place the runtime copies frames out of the interned chains.
  Signature ExtractSignature(Monitor& m, StackRef inner_of_ctx,
                             const std::vector<CycleNode>& chain) const;

  /// Republishes the avoidance index after a history mutation and bumps
  /// the history version. Must be called under mu_. The build shares the
  /// records' signature payloads and cached content ids, so it costs one
  /// pointer copy per enabled record plus the candidate map.
  void RepublishIndexLocked();

  /// True iff the adaptive scan gate applies (fast-path mode only; the
  /// kGlobalLock reference always scans).
  bool AdaptiveGateEnabled() const {
    return options_.mode == RuntimeMode::kFastPath &&
           options_.adaptive_avoidance;
  }
  /// The adaptive gate's read: true iff some peer bucket of `slot` holds
  /// an entry other than `ctx`'s own (its in-flight acquisition at
  /// `self_bucket` and its holdings). Owning thread only.
  bool PeersOccupied(const ThreadContext& ctx,
                     const AvoidanceIndex::KeySlot& slot,
                     std::uint32_t self_bucket) const;
  /// Counts a zero peer read on `ctx`; true iff this one is due for a
  /// verification scan (every adaptive_verify_sample-th per thread).
  bool SampleDue(ThreadContext& ctx) const {
    return options_.adaptive_verify_sample != 0 &&
           ++ctx.gate_skips_ % options_.adaptive_verify_sample == 0;
  }
  void OnGateStep(const ThreadContext& ctx, GateStep step) const {
    if (gate_step_hook_) gate_step_hook_(ctx, step);
  }

  /// Grants `m` to `ctx`: records recursion/acq stack/held entry under
  /// ctx's publication lock. Ownership of `m` must already be claimed,
  /// and the caller's occupancy entry at `bucket` becomes the holding's.
  void PublishAcquisition(ThreadContext& ctx, Monitor& m, StackRef stack,
                          std::uint32_t bucket);
  /// Reverse of PublishAcquisition; runs before ownership is cleared.
  void UnpublishAcquisition(ThreadContext& ctx, Monitor& m);

  /// Frees tombstoned contexts no live thread's yield_targets_ reference.
  void ReapDetachedLocked();

  Clock& clock_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Slow-path wait loops that may park: registered before they sample
  /// the state version (see the class comment). A fast-path release bumps
  /// the version only while this is non-zero.
  std::atomic<std::size_t> waiters_{0};
  /// Threads currently blocked in (or committing to) cv_.wait. Atomic so
  /// the fast-path release can test it without mu_.
  std::atomic<std::size_t> sleepers_{0};
  /// Bumped on every state change a sleeper might be waiting for; the
  /// version-gated wait protocol above makes fast-path releases safe.
  std::atomic<std::uint64_t> state_version_{0};

  /// Bumps the state version and wakes sleepers. Caller holds mu_.
  void NotifyStateChangedLocked() {
    state_version_.fetch_add(1);
    if (sleepers_.load() > 0) cv_.notify_all();
  }
  /// Parks `ctx` until the state version moves past `observed` *and* the
  /// wake turnstile releases it (see IsWakeTurnLocked). Caller holds mu_,
  /// is registered in waiters_, and must have loaded `observed` after
  /// registering and *before* examining the state it decided to wait on.
  /// Publishes the park through the context's parked_/park_version_ pair
  /// for the schedule harness.
  void WaitForStateChange(ThreadContext& ctx,
                          std::unique_lock<std::mutex>& lock,
                          std::uint64_t observed);
  /// True iff `ctx` holds the wake turn: among the parked threads whose
  /// observed version is stale, it is the lowest-id one (or the
  /// wake-order hook's pick). Exactly one stale sleeper at a time passes
  /// this, so wake chains resolve in a deterministic order instead of
  /// racing on the condition variable. Caller holds mu_.
  bool IsWakeTurnLocked(const ThreadContext& ctx) const;
  /// Transfers `m`'s ownership word to a queued waiter (FIFO head or the
  /// wake-order hook's pick), or stores 0 if the queue is empty. Runs on
  /// `ctx`'s (the releasing owner's) release path under mu_.
  void HandoffLocked(ThreadContext& ctx, Monitor& m);

  /// Threads currently parked in WaitForStateChange (membership set for
  /// the turnstile; the turn order is by thread id, not list position).
  /// Guarded by mu_.
  std::vector<ThreadContext*> parked_order_;
  /// See SetWakeOrderHookForTest. Guarded by mu_.
  WakeOrderHook wake_order_hook_;
  /// See SetGateStepHookForTest. Written before any acquisition.
  GateStepHook gate_step_hook_;

  std::vector<std::unique_ptr<ThreadContext>> threads_;  // guarded by mu_
  std::uint64_t next_thread_id_ = 1;

  History history_;        // guarded by mu_
  FpDetector fp_detector_; // guarded by mu_
  /// Runtime-owned counter shard for events with no acquiring thread
  /// (republishes, injected signatures, reaping) plus the folded shards
  /// of reaped contexts. Per-acquisition counting lives in each
  /// ThreadContext's shard; GetStats sums all of them.
  StatCounters global_counters_;

  /// Live occupancy per top-frame-key bucket, feeding the adaptive scan
  /// gate. Maintained whenever avoidance is enabled for every published
  /// occupancy: held monitors, and acquisitions in flight — from a fast
  /// attempt's entry to its commit or retraction, and from a slow-path
  /// acquisition's gate through its block announcement to its grant.
  /// Index-independent, so signatures learned later still see occupants
  /// that acquired earlier.
  OccupancyTable occupancy_;

  /// Current immutable index snapshot. Replaced under both mu_ and
  /// index_mu_, so the slow path reads it under mu_ and a fast-path
  /// refresh copies it under index_mu_.
  std::shared_ptr<const AvoidanceIndex> index_;
  mutable std::mutex index_mu_;
  /// Publication sequence of index_, bumped under index_mu_ with every
  /// replacement. Fast acquirers only read it (see FastPathIndex).
  std::atomic<std::uint64_t> index_seq_{1};
  std::atomic<std::uint64_t> history_version_{0};

  SignatureCallback new_signature_cb_;   // guarded by mu_ (invoked unlocked)
  SignatureCallback false_positive_cb_;  // guarded by mu_ (invoked unlocked)
};

/// RAII synchronized block: acquires in the constructor, releases in the
/// destructor. Mirrors `synchronized (m) { ... }` — the `line` is the
/// monitorenter's source line, recorded as the lock statement.
class SyncRegion {
 public:
  SyncRegion(DimmunixRuntime& rt, ThreadContext& ctx, Monitor& m,
             std::uint32_t line = 0)
      : rt_(rt), ctx_(ctx), m_(m) {
    if (line != 0) ctx_.SetLine(line);
    status_ = rt_.Acquire(ctx_, m_);
  }
  ~SyncRegion() {
    if (status_.ok()) rt_.Release(ctx_, m_);
  }

  SyncRegion(const SyncRegion&) = delete;
  SyncRegion& operator=(const SyncRegion&) = delete;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  DimmunixRuntime& rt_;
  ThreadContext& ctx_;
  Monitor& m_;
  Status status_;
};

}  // namespace communix::dimmunix
