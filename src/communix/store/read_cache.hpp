// 2Q admission cache for hot GET cursor ranges (SNIPPETS §1 lineage:
// hanwen-sun/2QLevelDB's admission policy, adapted from block caching to
// materialized reply slices).
//
// The server's cold GET(k) path serializes every committed entry with
// index >= k — O(db) per request, and the paper's hot workload repeats
// the same handful of cursors (every community member polls GET(0)).
// This cache keys *materialized reply slices* — the length-prefixed
// serialized-signature region of a GET reply, exactly the bytes the wire
// handler would rebuild — by (generation, from_index) prefix range.
//
// Why 2Q instead of plain LRU: the same scan loop also issues one-off
// cursors (a daemon catching up from a random k), and under LRU a burst
// of those evicts the hot GET(0) slice. 2Q admits new keys into a small
// FIFO probation queue (A1in); only a key that is referenced *again
// after falling out of probation* (tracked by the A1out ghost queue of
// bare keys) is promoted into the protected LRU (Am). One-shot cursors
// wash through A1in without ever displacing the hot set.
//
// Slices are append-only within a generation: an entry for `from` whose
// `upto` lags the committed length is still a hit — the caller reuses
// the prefix bytes and scans only [upto, size) (an "extension"), which
// is what keeps hit rates high while ADDs keep landing.
//
// Invalidation is by generation, the store's log-identity counter: every
// RCU log swap (ResetForReplication, LoadFromFile, InstallSnapshot,
// Compact) bumps it, so a slice can never survive into a log it was not
// built from. The first access under a newer generation drops the whole
// table (log swaps are rare, lineage-changing events). Accesses under an
// *older* generation (a reader that snapshotted the log just before a
// swap) miss and are never admitted.
//
// Thread-safety: one mutex; every critical section is a hash probe plus
// an O(1) list splice, orders of magnitude below the O(db) scan a hit
// avoids. Values are shared_ptr<const CachedSlice>, so hits are served
// outside the lock and eviction never invalidates a reply mid-build.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace communix::store {

/// One materialized GET reply slice: the length-prefixed serialized
/// signatures of entries [from, upto) of one log generation. Indexes are
/// dense, so count == upto - from; it is carried as the u32 the wire
/// reply is prefixed with.
struct CachedSlice {
  std::uint64_t from = 0;
  std::uint64_t upto = 0;  // exclusive; the committed length at build time
  std::uint32_t count = 0;
  std::vector<std::uint8_t> payload;
};

class ReadCache {
 public:
  /// `capacity` bounds resident slices (A1in + Am). The probation queue
  /// gets max(1, capacity/4) of it, the protected LRU the rest; the
  /// ghost queue remembers up to `capacity` evicted keys.
  explicit ReadCache(std::size_t capacity);

  ReadCache(const ReadCache&) = delete;
  ReadCache& operator=(const ReadCache&) = delete;

  /// The slice for (generation, from), or nullptr. A hit in Am refreshes
  /// LRU position; a hit in A1in does not promote (classic 2Q — only
  /// re-reference after probation eviction proves a key hot).
  std::shared_ptr<const CachedSlice> Lookup(std::uint64_t generation,
                                            std::uint64_t from);

  /// Admits (or replaces — the extension path) the slice for
  /// (generation, slice->from); a resident slice is only ever replaced
  /// by a longer one. Keys remembered by the ghost queue go
  /// straight to Am; new keys enter A1in probation. Inserts under a
  /// generation older than the newest seen are discarded.
  void Insert(std::uint64_t generation,
              std::shared_ptr<const CachedSlice> slice);

  /// Drops every slice and ghost (explicit invalidation; generation
  /// rollover does this implicitly).
  void Clear();

  struct Stats {
    std::uint64_t hits = 0;         // lookup found a current-generation slice
    std::uint64_t misses = 0;
    std::uint64_t admissions = 0;   // new keys admitted into A1in
    std::uint64_t promotions = 0;   // ghost-hit keys admitted into Am
    std::uint64_t evictions = 0;    // resident slices dropped (A1in + Am)
    std::uint64_t invalidations = 0;  // whole-table generation clears
  };
  Stats GetStats() const;

  std::size_t resident() const;

 private:
  enum class Where { kA1in, kAm };

  struct Entry {
    std::shared_ptr<const CachedSlice> slice;
    Where where = Where::kA1in;
    std::list<std::uint64_t>::iterator pos;
  };

  /// Adopts `generation` if newer (clearing the table). Returns false if
  /// `generation` is older than the newest seen. Caller holds mu_.
  bool SyncGenerationLocked(std::uint64_t generation);
  void EvictOneLocked(std::list<std::uint64_t>& queue, bool remember_ghost);
  void ClearLocked();

  const std::size_t kin_;   // A1in capacity
  const std::size_t kam_;   // Am capacity
  const std::size_t kout_;  // ghost capacity

  mutable std::mutex mu_;
  std::uint64_t generation_ = 0;
  std::unordered_map<std::uint64_t, Entry> table_;     // from -> resident
  std::list<std::uint64_t> a1in_;                      // FIFO, front = newest
  std::list<std::uint64_t> am_;                        // LRU, front = MRU
  std::list<std::uint64_t> a1out_;                     // ghost FIFO
  std::unordered_map<std::uint64_t,
                     std::list<std::uint64_t>::iterator>
      a1out_index_;
  Stats stats_;
};

}  // namespace communix::store
