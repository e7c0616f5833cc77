#include "dimmunix/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <thread>
#include <unordered_set>
#include <utility>

#include "util/logging.hpp"

namespace communix::dimmunix {

std::atomic<std::uint64_t> Monitor::next_id_{1};

namespace {

/// One slow-path wait loop's entry in DimmunixRuntime::waiters_, taken
/// before the loop first samples the state version it may park on and
/// dropped when the loop ends (see DimmunixRuntime::Release).
class WaiterRegistration {
 public:
  explicit WaiterRegistration(std::atomic<std::size_t>& waiters)
      : waiters_(waiters) {}
  ~WaiterRegistration() {
    if (active_) waiters_.fetch_sub(1);
  }
  WaiterRegistration(const WaiterRegistration&) = delete;
  WaiterRegistration& operator=(const WaiterRegistration&) = delete;

  void Register() {
    if (!active_) {
      waiters_.fetch_add(1);
      active_ = true;
    }
  }

 private:
  std::atomic<std::size_t>& waiters_;
  bool active_ = false;
};

}  // namespace

// The waiter bit lives in bit 0 of the packed owner word.
static_assert(alignof(ThreadContext) > 1,
              "ThreadContext must be aligned so Monitor::kWaiterBit is free");

DimmunixRuntime::DimmunixRuntime(Clock& clock, Options options)
    : clock_(clock),
      options_(options),
      fp_detector_(options.fp),
      occupancy_(options.occupancy_buckets == 0
                     ? OccupancyTable::kDefaultBuckets
                     : options.occupancy_buckets) {
  index_ = AvoidanceIndex::Build(history_, 0, occupancy_.bucket_count());
}

DimmunixRuntime::~DimmunixRuntime() = default;

ThreadContext& DimmunixRuntime::AttachThread(std::string name) {
  std::lock_guard lock(mu_);
  ReapDetachedLocked();
  threads_.push_back(std::unique_ptr<ThreadContext>(
      new ThreadContext(next_thread_id_++, std::move(name))));
  return *threads_.back();
}

void DimmunixRuntime::DetachThread(ThreadContext& ctx) {
  std::lock_guard lock(mu_);
  assert(ctx.held_.empty() && "detaching thread still holds monitors");
  assert(ctx.waiting_for_ == nullptr);
  ctx.detached_ = true;
  // ctx may be freed by the reap below; it must not be touched afterwards
  // (the documented lifetime contract).
  ReapDetachedLocked();
}

void DimmunixRuntime::ReapDetachedLocked() {
  bool any_detached = false;
  for (const auto& t : threads_) {
    if (t->detached_) {
      any_detached = true;
      break;
    }
  }
  if (!any_detached) return;
  // A tombstone stays while (a) some live thread's yield_targets_ still
  // references it (a suspended avoider may hold the pointer across its
  // sleep) or (b) its owner's ScopedFrame guards have not all unwound
  // yet — guards destruct after DetachThread in the common RAII pattern,
  // and their PopFrame must not touch freed memory. Everything else is
  // reclaimed, so attach/detach churn no longer grows threads_ without
  // bound.
  std::unordered_set<const ThreadContext*> referenced;
  for (const auto& t : threads_) {
    if (t->detached_) continue;
    for (const ThreadContext* y : t->yield_targets_) referenced.insert(y);
  }
  std::uint64_t reaped = 0;
  std::erase_if(threads_, [&](const std::unique_ptr<ThreadContext>& t) {
    if (t->detached_ && referenced.count(t.get()) == 0 &&
        t->top_.load(std::memory_order_acquire) == nullptr) {
      // Fold the tombstone's counter shard into the runtime's before the
      // memory goes away, so GetStats totals stay exact across churn.
      AddShard(global_counters_, t->counters_);
      ++reaped;
      return true;
    }
    return false;
  });
  global_counters_.threads_reaped.fetch_add(reaped, std::memory_order_relaxed);
}

void DimmunixRuntime::RepublishIndexLocked() {
  // Auto occupancy sizing, applied at index build from the candidate-key
  // count — but only while no thread has ever attached: with no attached
  // contexts there are no live occupancies (attach precedes every
  // Enter), so swapping the counter array cannot orphan an entry. Once a
  // workload thread exists, the width is frozen.
  if (options_.avoidance_enabled && options_.occupancy_buckets == 0 &&
      threads_.empty()) {
    const std::size_t want =
        OccupancyTable::RecommendedBuckets(CountCandidateKeys(history_));
    if (want > occupancy_.bucket_count()) occupancy_.Resize(want);
  }
  const std::uint64_t version = history_version_.fetch_add(1) + 1;
  const bool full = options_.full_rebuild_period == 0 ||
                    ++republishes_since_full_ >= options_.full_rebuild_period;
  std::shared_ptr<const AvoidanceIndex> next;
  if (full) {
    next = AvoidanceIndex::Build(history_, version, occupancy_.bucket_count());
    republishes_since_full_ = 0;
    global_counters_.index_full_rebuilds.fetch_add(1,
                                                   std::memory_order_relaxed);
  } else {
    next = AvoidanceIndex::Rebuild(*index_, history_, version,
                                   occupancy_.bucket_count());
    global_counters_.index_delta_rebuilds.fetch_add(1,
                                                    std::memory_order_relaxed);
    global_counters_.index_entries_reused.fetch_add(
        next->entries_reused(), std::memory_order_relaxed);
  }
  {
    std::lock_guard pub(index_mu_);
    index_ = std::move(next);
    index_seq_.fetch_add(1, std::memory_order_release);
  }
  global_counters_.index_republishes.fetch_add(1, std::memory_order_relaxed);
}

void DimmunixRuntime::PublishAcquisition(ThreadContext& ctx, Monitor& m,
                                         StackRef stack,
                                         std::uint32_t bucket) {
  std::lock_guard pub(ctx.state_mu_);
  m.recursion_ = 1;
  m.acq_stack_ = stack;
  m.acq_bucket_ = bucket;
  ctx.held_.push_back(&m);
}

void DimmunixRuntime::UnpublishAcquisition(ThreadContext& ctx, Monitor& m) {
  // Runs while `ctx` still owns `m`: scanners holding state_mu_ see the
  // holding and its stack atomically retracted, and no new owner can
  // write acq_stack_ until owner_ is cleared afterwards. The occupancy
  // entry is left only *after* the retraction, so a zero bucket proves
  // no matching occupant is visible.
  std::uint32_t bucket;
  {
    std::lock_guard pub(ctx.state_mu_);
    auto it = std::find(ctx.held_.begin(), ctx.held_.end(), &m);
    if (it != ctx.held_.end()) ctx.held_.erase(it);
    m.acq_stack_ = StackRef();
    bucket = m.acq_bucket_;
    m.acq_bucket_ = 0;
    m.recursion_ = 0;
  }
  if (options_.avoidance_enabled) {
    occupancy_.Leave(OccupancyTable::StripeOf(ctx.id()), bucket);
  }
}

bool DimmunixRuntime::PeersOccupied(const ThreadContext& ctx,
                                    const AvoidanceIndex::KeySlot& slot,
                                    std::uint32_t self_bucket) const {
  for (const std::uint32_t b : slot.peer_buckets) {
    std::uint32_t n = occupancy_.Count(b);
    if (n == 0) continue;
    // The scan ignores the caller, so its own entries prove nothing. They
    // are in the sum (this thread wrote them), so n never wraps.
    if (b == self_bucket) --n;
    for (const Monitor* h : ctx.held_) {
      if (h->acq_bucket_ == b) --n;
    }
    if (n != 0) return true;
  }
  return false;
}

std::vector<ThreadContext*> DimmunixRuntime::FindImminentInstantiation(
    const ThreadContext& ctx, const Monitor& m, StackRef stack,
    const AvoidanceIndex& index, std::uint64_t* matched_content_id) const {
  const auto* cands = index.CandidatesForTopFrame(stack.TopKey());
  if (cands == nullptr) return {};

  for (const auto& cand : *cands) {
    const AvoidanceIndex::Entry& rec = index.entry(cand.ordinal);
    const auto& entries = rec.sig.entries();
    const std::size_t n = entries.size();
    const std::size_t pos = cand.position;
    if (n < 2) continue;
    if (!entries[pos].outer.MatchesSuffixOf(stack)) continue;

    // Candidate occupants for every other position.
    std::vector<std::vector<Occupant>> options(n);
    bool feasible = true;
    for (std::size_t j = 0; j < n && feasible; ++j) {
      if (j == pos) continue;
      for (const auto& uptr : threads_) {
        ThreadContext* u = uptr.get();
        if (u == &ctx || u->detached_) continue;
        {
          // Sample the thread's published held-set under its publication
          // lock: fast-path acquisitions are visible here even though
          // they never took the runtime lock.
          std::unique_lock pub(u->state_mu_);
          if ((u->pending_seq_ & 1) != 0) {
            // An unresolved fast attempt: wait, outside its lock, for it
            // to commit (then it is in held_) or retract. A later attempt
            // is not waited for: it entered its bucket after this scan's
            // caller entered its own, so if it could occupy a position
            // here, its gate reads the caller's entry and it retracts.
            const std::uint64_t seen = u->pending_seq_;
            do {
              pub.unlock();
              OnGateStep(ctx, GateStep::kScanWait);
              std::this_thread::yield();
              pub.lock();
            } while (u->pending_seq_ == seen);
          }
          for (Monitor* h : u->held_) {
            if (h == &m) continue;
            if (entries[j].outer.MatchesSuffixOf(h->acq_stack_)) {
              options[j].push_back(Occupant{u, h});
            }
          }
        }
        if (u->waiting_for_ != nullptr && u->waiting_for_ != &m &&
            entries[j].outer.MatchesSuffixOf(u->waiting_stack_)) {
          options[j].push_back(Occupant{u, u->waiting_for_});
        }
      }
      if (options[j].empty()) feasible = false;
    }
    if (!feasible) continue;

    // Injective assignment: distinct threads on pairwise-distinct locks.
    std::vector<std::size_t> fill;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != pos) fill.push_back(j);
    }
    std::vector<ThreadContext*> chosen_threads;
    std::vector<const Monitor*> chosen_locks = {&m};

    auto assign = [&](auto&& self, std::size_t k) -> bool {
      if (k == fill.size()) return true;
      for (const Occupant& o : options[fill[k]]) {
        if (std::find(chosen_threads.begin(), chosen_threads.end(),
                      o.thread) != chosen_threads.end()) {
          continue;
        }
        if (std::find(chosen_locks.begin(), chosen_locks.end(), o.lock) !=
            chosen_locks.end()) {
          continue;
        }
        chosen_threads.push_back(o.thread);
        chosen_locks.push_back(o.lock);
        if (self(self, k + 1)) return true;
        chosen_threads.pop_back();
        chosen_locks.pop_back();
      }
      return false;
    };

    if (assign(assign, 0)) {
      if (matched_content_id != nullptr) {
        *matched_content_id = rec.content_id;
      }
      return chosen_threads;
    }
  }
  return {};
}

bool DimmunixRuntime::WouldCloseYieldCycle(
    const ThreadContext& ctx,
    const std::vector<ThreadContext*>& occupants) const {
  // DFS over yield edges (suspended -> occupants) and lock-wait edges
  // (blocked -> owner); if any occupant reaches ctx, suspending ctx would
  // close a cycle in which nobody can make progress.
  std::vector<const ThreadContext*> stack(occupants.begin(), occupants.end());
  std::unordered_set<const ThreadContext*> visited;
  while (!stack.empty()) {
    const ThreadContext* u = stack.back();
    stack.pop_back();
    if (u == &ctx) return true;
    if (!visited.insert(u).second) continue;
    if (u->waiting_for_ != nullptr) {
      ThreadContext* owner = u->waiting_for_->owner(std::memory_order_acquire);
      if (owner != nullptr) stack.push_back(owner);
    }
    if (u->in_avoidance_) {
      for (const ThreadContext* t : u->yield_targets_) stack.push_back(t);
    }
  }
  return false;
}

std::vector<DimmunixRuntime::CycleNode> DimmunixRuntime::FindLockCycle(
    const ThreadContext& ctx, const Monitor& m) const {
  std::vector<CycleNode> chain;
  std::unordered_set<const ThreadContext*> visited;
  // A monitor whose ownership was just handed to a still-parked waiter
  // is a benign transient here: that owner's waiting_for_ still names
  // the monitor it now owns, so the walk revisits it and the visited set
  // cuts the self-loop — no false cycle, and the real edges re-appear
  // once the waiter wakes and retracts its announcement.
  ThreadContext* cur = m.owner(std::memory_order_acquire);
  while (cur != nullptr) {
    if (cur == &ctx) return chain;
    if (!visited.insert(cur).second) return {};  // cycle not involving ctx
    Monitor* w = cur->waiting_for_;
    if (w == nullptr) return {};
    chain.push_back(CycleNode{cur, w});
    cur = w->owner(std::memory_order_acquire);
  }
  return {};
}

Signature DimmunixRuntime::ExtractSignature(
    Monitor& m, StackRef inner_of_ctx,
    const std::vector<CycleNode>& chain) const {
  // Every monitor referenced here is owned by a thread parked in the
  // runtime's wait loop (the cycle's precondition), so its acq_stack_ is
  // quiescent and was published before that owner took mu_ to park.
  std::vector<SignatureEntry> entries;
  entries.reserve(chain.size() + 1);

  // ctx holds the monitor the last chain thread waits for.
  {
    SignatureEntry e;
    e.outer = chain.back().waits_for->acq_stack_.Materialize();
    e.inner = inner_of_ctx.Materialize();
    entries.push_back(std::move(e));
  }
  // chain[0] holds m (waited by ctx); chain[i>0] holds chain[i-1]'s
  // waited monitor.
  for (std::size_t i = 0; i < chain.size(); ++i) {
    SignatureEntry e;
    e.outer = ((i == 0) ? m.acq_stack_ : chain[i - 1].waits_for->acq_stack_)
                  .Materialize();
    e.inner = chain[i].thread->waiting_stack_.Materialize();
    entries.push_back(std::move(e));
  }
  return Signature(std::move(entries));
}

Status DimmunixRuntime::Acquire(ThreadContext& ctx, Monitor& m) {
  ctx.counters_.acquisitions.fetch_add(1, std::memory_order_relaxed);

  if (options_.mode == RuntimeMode::kFastPath) {
    // Reentrancy: owner == &ctx can only be observed by the owner itself
    // (nobody hands us a monitor we are not blocked on and only we
    // release it), so this read is stable and the recursion bump needs no
    // lock.
    if (m.owner(std::memory_order_relaxed) == &ctx) {
      ++m.recursion_;
      return Status::Ok();
    }
    // Capture the shadow stack before any locking: it belongs to the
    // calling thread, and the capture is a pointer and a depth into its
    // interned frames, which every publication below copies as is.
    const StackRef stack = ctx.Capture(options_.max_stack_depth);
    bool verify = false;
    if (TryFastAcquire(ctx, m, stack, &verify)) return Status::Ok();
    ctx.counters_.slow_path_entries.fetch_add(1, std::memory_order_relaxed);
    return AcquireSlow(ctx, m, stack, verify);
  }

  const StackRef stack = ctx.Capture(options_.max_stack_depth);
  ctx.counters_.slow_path_entries.fetch_add(1, std::memory_order_relaxed);
  return AcquireSlow(ctx, m, stack, false);
}

const AvoidanceIndex& DimmunixRuntime::FastPathIndex(ThreadContext& ctx) {
  if (index_seq_.load(std::memory_order_acquire) != ctx.index_seq_) {
    std::lock_guard pub(index_mu_);
    ctx.index_ = index_;
    ctx.index_seq_ = index_seq_.load(std::memory_order_relaxed);
  }
  return *ctx.index_;
}

bool DimmunixRuntime::TryFastAcquire(ThreadContext& ctx, Monitor& m,
                                     StackRef stack, bool* verify) {
  const std::uint64_t top_key = stack.TopKey();
  const std::uint32_t bucket = occupancy_.Bucket(top_key);
  const std::size_t stripe = OccupancyTable::StripeOf(ctx.id());
  const AvoidanceIndex::KeySlot* gate = nullptr;
  if (options_.avoidance_enabled) {
    gate = FastPathIndex(ctx).SlotForTopFrame(top_key);
    // Without the adaptive gate, a candidate hit must scan under mu_.
    if (gate != nullptr && !AdaptiveGateEnabled()) return false;
    // Enter the bucket before anything else: a zero bucket read by a
    // peer's gate proves this thread is not yet a visible occupant,
    // ordering that acquisition before ours; and our own gate read below
    // comes after this entry (the Dekker pairing; see the class comment).
    OnGateStep(ctx, GateStep::kEnter);
    occupancy_.Enter(stripe, bucket);
  }
  // Advertise the attempt as unresolved before reading the gate or
  // claiming ownership: a scan that runs before the commit below waits
  // for it instead of missing a holder or counting a phantom.
  OnGateStep(ctx, GateStep::kPublish);
  {
    std::lock_guard pub(ctx.state_mu_);
    ++ctx.pending_seq_;
  }
  // A republish since our snapshot was taken: the scans it enables may
  // already have run without seeing the slot above, so this attempt does
  // not linearize before them. Rare (history writes); take the slow path.
  bool proceed = !options_.avoidance_enabled ||
                 index_seq_.load(std::memory_order_acquire) == ctx.index_seq_;
  if (proceed && gate != nullptr) {
    OnGateStep(ctx, GateStep::kPeerRead);
    if (PeersOccupied(ctx, *gate, bucket)) {
      proceed = false;  // the slow path scans
    } else if (SampleDue(ctx)) {
      proceed = false;
      *verify = true;
    }
  }
  if (proceed) {
    OnGateStep(ctx, GateStep::kCas);
    std::uintptr_t expected = 0;
    proceed = m.owner_word_.compare_exchange_strong(
        expected, Monitor::Pack(&ctx, false), std::memory_order_acq_rel,
        std::memory_order_relaxed);
    if (!proceed && (expected & Monitor::kWaiterBit) != 0) {
      // The word carries the waiter bit: parked waiters are queued, the
      // word never returns to 0 until the queue drains, and this CAS —
      // which under the barging protocol could have stolen the monitor
      // the instant a release freed it — is structurally locked out.
      ctx.counters_.barges_prevented.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!proceed) {
    // Contended, gated or stale: the slow path decides. Retract first,
    // then leave the bucket, so a zero bucket still proves absence.
    OnGateStep(ctx, GateStep::kRetract);
    {
      std::lock_guard pub(ctx.state_mu_);
      ++ctx.pending_seq_;
    }
    if (options_.avoidance_enabled) occupancy_.Leave(stripe, bucket);
    return false;
  }
  {
    std::lock_guard pub(ctx.state_mu_);
    m.recursion_ = 1;
    m.acq_stack_ = stack;
    m.acq_bucket_ = bucket;  // the attempt's entry becomes the holding's
    ctx.held_.push_back(&m);
    ++ctx.pending_seq_;
  }
  if (gate != nullptr) {
    ctx.counters_.scans_skipped.fetch_add(1, std::memory_order_relaxed);
  }
  ctx.counters_.fast_path_acquisitions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status DimmunixRuntime::AcquireSlow(ThreadContext& ctx, Monitor& m,
                                    StackRef stack, bool verify) {
  // Callbacks collected under the lock, invoked after unlocking.
  std::vector<std::pair<SignatureCallback, Signature>> pending;
  Status result = Status::Ok();
  OnGateStep(ctx, GateStep::kSlowPath);

  {
    std::unique_lock lock(mu_);

    if (m.owner(std::memory_order_relaxed) == &ctx) {  // reentrant
      ++m.recursion_;
      return Status::Ok();
    }

    // This acquisition's occupancy entry, held from before the gate
    // below reads its peers (the slow gate's half of the Dekker pairing
    // with fast gates), through the block announcement, until the grant
    // turns it into the holding's entry or a detection abort leaves it.
    const std::uint32_t self_bucket = occupancy_.Bucket(stack.TopKey());
    const std::size_t stripe = OccupancyTable::StripeOf(ctx.id());
    if (options_.avoidance_enabled) {
      OnGateStep(ctx, GateStep::kEnter);
      occupancy_.Enter(stripe, self_bucket);
    }

    // ---- avoidance (§II-A) ----
    if (options_.avoidance_enabled && !index_->empty()) {
      const std::uint64_t top_key = stack.TopKey();
      std::unordered_set<std::uint64_t> counted;
      WaiterRegistration waiter(waiters_);
      for (;;) {
        // Re-probed every iteration: a republish while we slept may have
        // changed (or emptied) the candidate set for this key.
        const AvoidanceIndex::KeySlot* slot =
            index_->SlotForTopFrame(top_key);
        if (slot == nullptr) break;  // no candidates gate this site
        // Adaptive gate: if no other thread occupies any *other*
        // position of any candidate signature (all peer buckets zero),
        // the instantiation scan is provably empty — skip it.
        // Occupant-set changes re-arm automatically (the gate reads live
        // counters); index changes re-arm via the republished slot above.
        // A verification the fast path deferred scans either way.
        const bool forced = std::exchange(verify, false);
        bool peers_free = false;
        if (AdaptiveGateEnabled()) {
          OnGateStep(ctx, GateStep::kPeerRead);
          peers_free = !PeersOccupied(ctx, *slot, self_bucket);
        }
        bool verifying_skip = false;
        if (peers_free) {
          if (!forced && !SampleDue(ctx)) {
            // scans_skipped counts only scans actually elided, so
            // scans_skipped + instantiation_scans = candidate-hit gate
            // decisions (exact arithmetic for the bench/tests).
            ctx.counters_.scans_skipped.fetch_add(1,
                                                  std::memory_order_relaxed);
            break;
          }
          // Sampled self-check: run the scan anyway; if the gate is
          // right it finds nothing, and if it is wrong we fail safe by
          // honoring the scan (and count the mismatch).
          verifying_skip = true;
          ctx.counters_.sampled_verification_scans.fetch_add(
              1, std::memory_order_relaxed);
        }
        // A scan that finds an instantiation parks on the version sampled
        // here, so register first, then sample, then scan: a fast-path
        // release either sees the registration and bumps the version, or
        // is seen by the scan (see Release).
        waiter.Register();
        const std::uint64_t observed = state_version_.load();
        std::uint64_t matched = 0;
        ctx.counters_.instantiation_scans.fetch_add(1,
                                                    std::memory_order_relaxed);
        auto occupants = FindImminentInstantiation(ctx, m, stack,
                                                   *index_, &matched);
        if (occupants.empty()) break;
        if (verifying_skip) {
          ctx.counters_.adaptive_gate_mismatches.fetch_add(
              1, std::memory_order_relaxed);
        }
        if (WouldCloseYieldCycle(ctx, occupants)) {
          ctx.counters_.yield_cycle_overrides.fetch_add(
              1, std::memory_order_relaxed);
          break;
        }
        if (counted.insert(matched).second) {
          ctx.counters_.avoidance_suspensions.fetch_add(
              1, std::memory_order_relaxed);
          if (fp_detector_.RecordInstantiation(matched, clock_.Now())) {
            ctx.counters_.false_positives_flagged.fetch_add(
                1, std::memory_order_relaxed);
            // Locate the flagged signature for the warning callback.
            for (const SignatureRecord& r : history_.records()) {
              if (r.sig.ContentId() == matched) {
                if (false_positive_cb_) {
                  pending.emplace_back(false_positive_cb_, r.sig);
                }
                break;
              }
            }
            if (options_.auto_disable_false_positives) {
              history_.Disable(matched);
              RepublishIndexLocked();
              NotifyStateChangedLocked();
              // The signature no longer gates anyone; recheck immediately.
              continue;
            }
          }
        }
        ctx.yield_targets_ = std::move(occupants);
        if (!ctx.in_avoidance_) {
          ctx.in_avoidance_ = true;
          // Our new yield edges may flip another avoider's cycle check;
          // announce them. The announcement bumps the version, so loop
          // once more to re-sample it — otherwise our own bump would
          // satisfy the wait predicate and the park would spin.
          NotifyStateChangedLocked();
          continue;
        }
        WaitForStateChange(ctx, lock, observed);
      }
      if (ctx.in_avoidance_) {
        ctx.in_avoidance_ = false;
        ctx.yield_targets_.clear();
      }
    }

    // ---- blocking + detection (§II-A) ----
    OnGateStep(ctx, GateStep::kCas);
    bool counted_contention = false;
    bool announced = false;
    bool granted = false;
    WaiterRegistration waiter(waiters_);
    waiter.Register();
    for (;;) {
      const std::uint64_t observed = state_version_.load();
      // Direct handoff: a releasing owner that saw our queue entry wrote
      // us straight into the owner word while we were parked. No CAS —
      // the word already names us (possibly with the waiter bit for the
      // queue tail behind us).
      if (m.owner(std::memory_order_acquire) == &ctx) {
        granted = true;
        break;
      }
      std::uintptr_t free_word = 0;
      if (m.owner_word_.compare_exchange_strong(free_word,
                                                Monitor::Pack(&ctx, false),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
        granted = true;
        break;
      }
      if (!counted_contention) {
        ctx.counters_.contended_acquisitions.fetch_add(
            1, std::memory_order_relaxed);
        counted_contention = true;
      }
      if (options_.detection_enabled) {
        const auto cycle = FindLockCycle(ctx, m);
        if (!cycle.empty()) {
          Signature sig = ExtractSignature(m, stack, cycle);
          ctx.counters_.deadlocks_detected.fetch_add(
              1, std::memory_order_relaxed);
          const bool novel_content =
              !history_.ContainsContent(sig.ContentId());
          // §III-D merge rule (1): two signatures produced on the local
          // machine merge with no depth floor. A new manifestation of a
          // locally-known bug generalizes the stored signature in place.
          bool merged = false;
          for (std::size_t i : history_.FindByBugKey(sig.BugKey())) {
            const SignatureRecord& rec = history_.record(i);
            if (rec.origin != SignatureOrigin::kLocal) continue;
            if (auto m2 = Signature::Merge(rec.sig, sig, 0)) {
              history_.Replace(i, std::move(*m2));
              merged = true;
              ctx.counters_.local_generalizations.fetch_add(
                  1, std::memory_order_relaxed);
              break;
            }
          }
          if (!merged) {
            const int idx =
                history_.Add(sig, SignatureOrigin::kLocal, clock_.Now());
            if (idx >= 0) {
              ctx.counters_.signatures_learned.fetch_add(
                  1, std::memory_order_relaxed);
            }
          }
          // The plugin uploads every new manifestation (the server and
          // other nodes generalize on their side too).
          if (novel_content && new_signature_cb_) {
            pending.emplace_back(new_signature_cb_, sig);
          }
          // Detection is the ground truth that this bug is real: reset FP
          // suspicion for all signatures of this bug.
          for (std::size_t i : history_.FindByBugKey(sig.BugKey())) {
            fp_detector_.RecordTruePositive(
                history_.record(i).sig.ContentId());
          }
          RepublishIndexLocked();
          NotifyStateChangedLocked();
          result = Status::Error(ErrorCode::kDeadlock,
                                 "deadlock detected; acquisition aborted");
          break;
        }
      }
      if (!announced) {
        // The block announcement is a published occupancy ("blocked at"
        // counts toward instantiations), already covered by this
        // acquisition's bucket entry. The queue entry makes us a handoff
        // candidate from here on.
        ctx.waiting_for_ = &m;
        ctx.waiting_stack_ = stack;
        m.wait_queue_.push_back(&ctx);
        // Blocking is a state change others must observe; same
        // announce-then-resample dance as in the avoidance loop.
        NotifyStateChangedLocked();
        announced = true;
        continue;
      }
      // Before parking, make sure the owner word carries the waiter bit:
      // a release that observes it must hand off instead of storing 0,
      // which is what keeps a fast-path barger from ever stealing the
      // monitor while we sleep. If the word goes free mid-flag, do not
      // park — the next iteration claims it (we hold mu_ throughout, so
      // only a fast-path claim can race, and losing that race lands us
      // back here with a non-zero word to flag).
      std::uintptr_t cur = m.owner_word_.load(std::memory_order_relaxed);
      bool flagged = false;
      while (cur != 0) {
        if ((cur & Monitor::kWaiterBit) != 0 ||
            m.owner_word_.compare_exchange_weak(cur,
                                                cur | Monitor::kWaiterBit)) {
          flagged = true;
          break;
        }
      }
      if (!flagged) continue;
      WaitForStateChange(ctx, lock, observed);
    }
    if (announced) {
      // A handoff grant dequeues us on the releasing side; a CAS grant or
      // a detection abort leaves our queue entry behind — retract it. (A
      // stale waiter bit is harmless: the next release rewrites the whole
      // word from the queue state.)
      auto it = std::find(m.wait_queue_.begin(), m.wait_queue_.end(), &ctx);
      if (it != m.wait_queue_.end()) m.wait_queue_.erase(it);
      ctx.waiting_for_ = nullptr;
    }

    if (granted) {
      PublishAcquisition(ctx, m, stack, self_bucket);
      // Others may still be queued behind us (we claimed by CAS in the
      // instant before a not-yet-parked waiter flagged the word, or a
      // handoff left a tail): keep the waiter bit so our own release
      // hands off rather than barging them.
      if (!m.wait_queue_.empty()) {
        m.owner_word_.fetch_or(Monitor::kWaiterBit);
      }
      NotifyStateChangedLocked();  // occupancy changed
    } else if (options_.avoidance_enabled) {
      occupancy_.Leave(stripe, self_bucket);  // aborted by detection
    }
  }

  for (auto& [cb, sig] : pending) cb(sig);
  return result;
}

void DimmunixRuntime::Release(ThreadContext& ctx, Monitor& m) {
  if (options_.mode == RuntimeMode::kFastPath) {
    assert(m.owner(std::memory_order_relaxed) == &ctx &&
           "release by non-owner");
    if (m.recursion_ > 1) {  // owner-only field; see Monitor's protocol
      --m.recursion_;
      return;
    }
    UnpublishAcquisition(ctx, m);
    // seq_cst on the owner clear and the waiters_ probe, paired with a
    // waiter's seq_cst registration, which precedes its version sample
    // and its examination of the world. If the probe reads 0, that
    // examination is ordered after our clear and retraction and sees
    // them, so nobody can park on state we changed: the release writes
    // nothing shared. Otherwise bump the version (a registered waiter's
    // park predicate then refuses to sleep), and if some thread is
    // already parked, take the mutex so the notify cannot land in a
    // waiter's check-to-park window. The clear is a CAS, not a store: it
    // only frees the word if the waiter bit is clear.
    std::uintptr_t expected = Monitor::Pack(&ctx, false);
    if (m.owner_word_.compare_exchange_strong(expected, 0)) {
      if (waiters_.load() > 0) {
        state_version_.fetch_add(1);
        if (sleepers_.load() > 0) {
          std::lock_guard lock(mu_);
          cv_.notify_all();
          return;
        }
      }
      ctx.counters_.fast_path_releases.fetch_add(1,
                                                 std::memory_order_relaxed);
      return;
    }
    // Waiter bit set: a blocked acquirer is queued (it flags the word
    // only after enqueueing under mu_, and it parks only after the flag
    // sticks). Storing 0 here is exactly the barging steal window this
    // protocol removes — hand the word to a queued waiter instead.
    std::lock_guard lock(mu_);
    HandoffLocked(ctx, m);
    NotifyStateChangedLocked();
    return;
  }
  ReleaseSlow(ctx, m);
}

void DimmunixRuntime::ReleaseSlow(ThreadContext& ctx, Monitor& m) {
  std::lock_guard lock(mu_);
  assert(m.owner(std::memory_order_relaxed) == &ctx &&
         "release by non-owner");
  if (m.recursion_ > 1) {
    --m.recursion_;
    return;
  }
  UnpublishAcquisition(ctx, m);
  HandoffLocked(ctx, m);
  NotifyStateChangedLocked();
}

void DimmunixRuntime::HandoffLocked(ThreadContext& ctx, Monitor& m) {
  if (m.wait_queue_.empty()) {
    // Nobody to hand to (any waiter bit is a leftover from a detection
    // abort): free the word. seq_cst to pair with the version-gated
    // sleeper probe, as in the fast release.
    m.owner_word_.store(0);
    return;
  }
  std::size_t pick = 0;
  if (wake_order_hook_) {
    const std::vector<const ThreadContext*> candidates(m.wait_queue_.begin(),
                                                       m.wait_queue_.end());
    pick = std::min(wake_order_hook_(candidates), candidates.size() - 1);
  }
  ThreadContext* next = m.wait_queue_[pick];
  m.wait_queue_.erase(m.wait_queue_.begin() +
                      static_cast<std::ptrdiff_t>(pick));
  // The winner finds owner == self when it re-checks — no CAS, no window
  // in which a fast-path claim could slip in. The bit survives iff a
  // queue tail remains.
  m.owner_word_.store(Monitor::Pack(next, !m.wait_queue_.empty()));
  ctx.counters_.handoffs.fetch_add(1, std::memory_order_relaxed);
}

void DimmunixRuntime::WaitForStateChange(ThreadContext& ctx,
                                         std::unique_lock<std::mutex>& lock,
                                         std::uint64_t observed) {
  assert(waiters_.load() > 0 && "parking without a waiter registration");
  ctx.counters_.wait_rounds.fetch_add(1, std::memory_order_relaxed);
  sleepers_.fetch_add(1);
  ctx.park_version_.store(observed, std::memory_order_release);
  ctx.parked_.store(true, std::memory_order_release);
  parked_order_.push_back(&ctx);
  // Turnstile: of the parked threads with a stale version, one at a time
  // (lowest id, or the wake-order hook's pick) is released to re-examine
  // the world. Each woken thread passes the turn on below; every proceed
  // path bumps the version, so wake chains drain deterministically
  // instead of racing on the condition variable.
  cv_.wait(lock, [&] {
    return state_version_.load() != observed && IsWakeTurnLocked(ctx);
  });
  parked_order_.erase(
      std::find(parked_order_.begin(), parked_order_.end(), &ctx));
  ctx.parked_.store(false, std::memory_order_release);
  sleepers_.fetch_sub(1);
  // Pass the turn: the next stale sleeper's predicate flips once we drop
  // mu_ (held until we re-park with a fresh version or leave Acquire).
  cv_.notify_all();
}

bool DimmunixRuntime::IsWakeTurnLocked(const ThreadContext& ctx) const {
  const std::uint64_t version = state_version_.load();
  std::vector<const ThreadContext*> pending;
  for (const ThreadContext* p : parked_order_) {
    if (p->park_version_.load(std::memory_order_relaxed) != version) {
      pending.push_back(p);
    }
  }
  if (pending.empty()) return false;
  // Ascending thread id, not park order: ids are assigned at attach, so
  // the order is identical across runtime modes — re-park churn must not
  // perturb which thread wins (the equivalence tests pin this).
  std::sort(pending.begin(), pending.end(),
            [](const ThreadContext* a, const ThreadContext* b) {
              return a->id() < b->id();
            });
  std::size_t pick = 0;
  if (wake_order_hook_) {
    pick = std::min(wake_order_hook_(pending), pending.size() - 1);
  }
  return pending[pick] == &ctx;
}

void DimmunixRuntime::SetWakeOrderHookForTest(WakeOrderHook hook) {
  std::lock_guard lock(mu_);
  wake_order_hook_ = std::move(hook);
}

void DimmunixRuntime::SetGateStepHookForTest(GateStepHook hook) {
  std::lock_guard lock(mu_);
  gate_step_hook_ = std::move(hook);
}

int DimmunixRuntime::AddSignature(Signature sig, SignatureOrigin origin) {
  std::lock_guard lock(mu_);
  const int idx = history_.Add(std::move(sig), origin, clock_.Now());
  if (idx >= 0) {
    global_counters_.signatures_learned.fetch_add(1,
                                                  std::memory_order_relaxed);
    RepublishIndexLocked();
    NotifyStateChangedLocked();
  }
  return idx;
}

void DimmunixRuntime::ReplaceSignature(std::size_t index, Signature sig) {
  std::lock_guard lock(mu_);
  history_.Replace(index, std::move(sig));
  RepublishIndexLocked();
  NotifyStateChangedLocked();
}

History DimmunixRuntime::SnapshotHistory() const {
  std::lock_guard lock(mu_);
  return history_;
}

std::optional<History> DimmunixRuntime::SnapshotHistoryIfChanged(
    std::uint64_t* last_seen) const {
  if (last_seen != nullptr &&
      history_version_.load(std::memory_order_acquire) == *last_seen) {
    return std::nullopt;  // unchanged: no lock, no deep copy
  }
  std::lock_guard lock(mu_);
  if (last_seen != nullptr) {
    *last_seen = history_version_.load(std::memory_order_relaxed);
  }
  return history_;
}

std::vector<std::uint64_t> DimmunixRuntime::DrainRetiredContentIds() {
  std::lock_guard lock(mu_);
  // Pure drain: no index republish — retiring ids changes what the
  // *server* should keep, not what this process avoids.
  return history_.TakeRetiredContentIds();
}

void DimmunixRuntime::WithHistory(const std::function<void(History&)>& fn) {
  std::lock_guard lock(mu_);
  fn(history_);
  // The mutation (if any) must reach fast-path readers and may lift the
  // gate a suspended avoider sleeps on (e.g. Disable): republish + wake.
  RepublishIndexLocked();
  NotifyStateChangedLocked();
}

void DimmunixRuntime::SetNewSignatureCallback(SignatureCallback cb) {
  std::lock_guard lock(mu_);
  new_signature_cb_ = std::move(cb);
}

void DimmunixRuntime::SetFalsePositiveCallback(SignatureCallback cb) {
  std::lock_guard lock(mu_);
  false_positive_cb_ = std::move(cb);
}

DimmunixRuntime::Stats DimmunixRuntime::GetStats() const {
  std::lock_guard lock(mu_);
  Stats s;
  AddShard(s, global_counters_);
  // Per-thread shards: live threads keep counting concurrently (relaxed
  // reads give a consistent-enough snapshot, as before the sharding);
  // tombstones are quiescent and still counted until the reap folds them
  // into the runtime shard.
  for (const auto& t : threads_) AddShard(s, t->counters_);
  // Gauges: current table geometry + the published index's collision
  // count (not counter shards — they describe state, not events).
  s.occupancy_buckets = occupancy_.bucket_count();
  s.occupancy_key_collisions = index_->key_bucket_collisions();
  return s;
}

std::size_t DimmunixRuntime::ThreadRecordCount() const {
  std::lock_guard lock(mu_);
  return threads_.size();
}

obs::ProbeHandle DimmunixRuntime::ExportStats(obs::MetricsRegistry& registry,
                                              std::string prefix) const {
  return registry.RegisterProbe(
      [this, prefix = std::move(prefix) + "."](obs::ProbeSink& sink) {
        obs::EmitStats(sink, prefix, GetStats());
      });
}

}  // namespace communix::dimmunix
