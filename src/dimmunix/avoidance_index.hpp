// Adaptive avoidance index.
//
// The avoidance decision in DimmunixRuntime::Acquire needs one question
// answered on *every* lock acquisition: "could this call stack's top
// frame complete an instantiation of any enabled history signature?"
// For the overwhelming majority of acquisitions the answer is no — the
// paper's whole deployability argument rests on those acquisitions
// staying near-native speed.
//
// AvoidanceIndex is the read-optimized projection of the History the hot
// path consults: per top-frame key, the (signature, position) candidates
// whose outer stack ends at that lock statement. A snapshot is immutable
// after construction; the runtime publishes it as a shared_ptr plus a
// sequence word, and each thread reads its own cached copy until the
// word moves, so readers never block. Entries hold shared immutable
// Signatures (signature.hpp), so a build copies one pointer per enabled
// record and reads its cached content id; it does not copy stacks or
// re-serialize signatures. One addition over the original design:
//
//  * Adaptive per-key state. Each key slot carries the deduplicated
//    occupancy buckets of its *peer* positions (the top-frame keys of
//    every other entry of every candidate signature). The runtime's
//    adaptive gate skips the instantiation scan when no other thread
//    occupies any peer bucket — a candidate signature can only
//    instantiate if some other thread currently holds or is blocked at a
//    lock whose stack matches one of the other positions, and such a
//    stack's top frame hashes into one of those buckets, so a zero read
//    proves the scan would return empty. Index mutations re-arm the gate
//    by republishing the slot; occupant-set changes need no re-arm at
//    all because the gate reads live bucket counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dimmunix/history.hpp"
#include "dimmunix/signature.hpp"

namespace communix::dimmunix {

/// Occupancy counters per top-frame key bucket, sharded by thread. Every
/// published occupancy (a held monitor's acquisition stack, an
/// acquisition in flight, a slow-path block announcement) increments the
/// bucket of its stack's top-frame key *before* becoming visible to
/// instantiation scans and decrements it only *after* being retracted,
/// so a zero read proves no matching occupant is visible (hash
/// collisions only cause extra scans, never missed ones).
///
/// Each bucket has one counter per stripe, and a thread writes only the
/// stripe of its id (StripeOf), laid out stripe-major: threads in
/// different stripes (any kStripes consecutively attached ones) never
/// write a cache line another thread writes, so an uncontended
/// acquire/release pair shares nothing. Count() sums a
/// bucket over the stripes. A stripe's counter is the sum of the
/// non-negative entries of the threads writing it, so a sum read while
/// an occupancy is visible counts it even though the stripes are read
/// one at a time; and a reader may subtract its own entries (the
/// instantiation scan ignores the caller) without going below zero.
///
/// Counter ops are seq_cst. That makes the adaptive gate a Dekker
/// pairing: every gate enters its caller's bucket before it reads the
/// peer buckets, so of two acquisitions at peer positions of one
/// signature at least one reads the other's entry.
///
/// The table width is configurable (power of two): collisions between a
/// signature's peer keys and unrelated hot keys cost skipped skips, so a
/// busy deployment sizes the table from its candidate-key count
/// (RecommendedBuckets; the runtime's auto mode applies it at index
/// build, while resizing is still provably safe). The width is fixed
/// once occupancies exist — entries cache their bucket index, so a live
/// resize would orphan them.
class OccupancyTable {
 public:
  static constexpr std::size_t kDefaultBuckets = 1024;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  /// Counter shards per bucket. Threads whose ids collide modulo this
  /// share a stripe, which stays correct and costs only shared lines.
  static constexpr std::size_t kStripes = 16;

  /// Rounds `buckets` to the nearest power of two in [kMin, kMax].
  static std::size_t ClampBuckets(std::size_t buckets);

  /// Width for a deployment whose index holds `candidate_keys` distinct
  /// top-frame keys: ~8 buckets per key (collision probability per hot
  /// key ~n/8n), floored at the default width.
  static std::size_t RecommendedBuckets(std::size_t candidate_keys);

  explicit OccupancyTable(std::size_t buckets = kDefaultBuckets);

  /// Bucket of a top-frame key (already FNV-mixed by Frame) in a table
  /// of `buckets` slots (power of two).
  static std::uint32_t BucketOf(std::uint64_t top_key, std::size_t buckets) {
    return static_cast<std::uint32_t>((top_key ^ (top_key >> 32)) &
                                      (buckets - 1));
  }
  std::uint32_t Bucket(std::uint64_t top_key) const {
    return BucketOf(top_key, bucket_count_);
  }
  std::size_t bucket_count() const { return bucket_count_; }

  /// The stripe a thread with this id writes.
  static std::size_t StripeOf(std::uint64_t thread_id) {
    return thread_id % kStripes;
  }

  /// Replaces the counter arrays with wider ones. NOT thread-safe: the
  /// caller must guarantee no occupancy is live and no thread can
  /// publish one concurrently (the runtime resizes only while no thread
  /// is attached, which implies both).
  void Resize(std::size_t buckets);

  void Enter(std::size_t stripe, std::uint32_t bucket) {
    At(stripe, bucket).fetch_add(1, std::memory_order_seq_cst);
  }
  void Leave(std::size_t stripe, std::uint32_t bucket) {
    At(stripe, bucket).fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Entries in `bucket`, summed over every stripe.
  std::uint32_t Count(std::uint32_t bucket) const {
    std::uint32_t n = 0;
    for (std::size_t s = 0; s < kStripes; ++s) {
      n += At(s, bucket).load(std::memory_order_seq_cst);
    }
    return n;
  }

 private:
  /// One cache line of counters; stripes are whole lines because the
  /// width is a power of two no smaller than a line's worth.
  struct alignas(64) Line {
    std::atomic<std::uint32_t> counts[16];
  };
  static_assert(kMinBuckets % 16 == 0);

  std::atomic<std::uint32_t>& At(std::size_t stripe,
                                 std::uint32_t bucket) const {
    const std::size_t i = stripe * bucket_count_ + bucket;
    return lines_[i / 16].counts[i % 16];
  }

  std::size_t bucket_count_;
  std::unique_ptr<Line[]> lines_;
};

class AvoidanceIndex {
 public:
  /// One (signature, outer-stack position) pair whose outer top frame is
  /// the probed key. `ordinal` indexes into the index's own entry table,
  /// NOT into History (disabled records are not carried over).
  struct Candidate {
    std::uint32_t ordinal;
    std::uint32_t position;
  };

  /// An indexed signature. It shares the history record's payload, so it
  /// stays valid when History::Replace or reallocation moves records.
  struct Entry {
    Signature sig;
    std::uint64_t content_id = 0;
  };

  struct KeySlot {
    std::vector<Candidate> candidates;
    /// Deduplicated occupancy buckets of every other position of every
    /// candidate signature — the adaptive gate's read set.
    std::vector<std::uint32_t> peer_buckets;
  };

  /// Builds the index of `history`'s *enabled* signatures from scratch,
  /// stamped with the given history version. `occupancy_buckets` is the
  /// width of the runtime's OccupancyTable — peer buckets are computed
  /// against it, so the two must agree.
  static std::shared_ptr<const AvoidanceIndex> Build(
      const History& history, std::uint64_t version,
      std::size_t occupancy_buckets = OccupancyTable::kDefaultBuckets);

  /// Candidates whose outer top frame key is `top_key`; nullptr if none.
  const std::vector<Candidate>* CandidatesForTopFrame(
      std::uint64_t top_key) const {
    const KeySlot* slot = SlotForTopFrame(top_key);
    return slot == nullptr ? nullptr : &slot->candidates;
  }

  /// Full key slot (candidates + peer buckets); nullptr if none. This is
  /// the only call the acquisition fast path makes.
  const KeySlot* SlotForTopFrame(std::uint64_t top_key) const {
    auto it = by_outer_top_.find(top_key);
    if (it == by_outer_top_.end()) return nullptr;
    return &it->second;
  }

  const Entry& entry(std::size_t ordinal) const { return entries_[ordinal]; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// History version this snapshot reflects.
  std::uint64_t version() const { return version_; }

  /// Distinct top-frame keys in the index (candidate-key count — the
  /// input to OccupancyTable::RecommendedBuckets).
  std::size_t key_count() const { return by_outer_top_.size(); }
  /// Distinct key pairs sharing an occupancy bucket at this build's
  /// table width — each costs spurious gate hits (lost skips) whenever
  /// the colliding key is occupied. Surfaced as a Stats gauge; a rising
  /// value is the signal to widen Options::occupancy_buckets.
  std::size_t key_bucket_collisions() const { return key_bucket_collisions_; }

 private:
  AvoidanceIndex() = default;

  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, KeySlot> by_outer_top_;
  std::uint64_t version_ = 0;
  std::size_t key_bucket_collisions_ = 0;
};

/// Distinct outer top-frame keys over `history`'s enabled records — the
/// candidate-key count the runtime's auto occupancy sizing consults
/// *before* building the index (the table width feeds the build).
std::size_t CountCandidateKeys(const History& history);

}  // namespace communix::dimmunix
