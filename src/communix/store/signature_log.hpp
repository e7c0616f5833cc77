// Append-only segmented signature log.
//
// The hot path of the Communix server is GET(k) iterating the whole
// database while ADDs keep appending (Figure 2). The seed kept both
// behind one shared_mutex, so every scan blocked every append. Here the
// log is split into fixed-size segments whose pointers are published
// through atomics, and the committed length is an atomic published with
// release ordering after the slot is fully written. Readers load the
// length with acquire ordering and then walk committed slots without
// taking any lock; writers serialize only among themselves on a short
// append mutex.
//
// Indexes are assigned in append order and never change, so clients'
// incremental GET(k) cursors stay valid (same guarantee the monolithic
// server gave).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "communix/ids.hpp"
#include "util/clock.hpp"

namespace communix::store {

/// One accepted signature as the server stores it.
struct StoredSignature {
  std::vector<std::uint8_t> bytes;
  std::uint64_t content_id = 0;
  UserId sender = 0;
  TimePoint added_at = 0;
  /// Superseded by ReplaceSignature / FP-disable; compaction drops these.
  /// Plain bool: meaningful only on *at-rest* copies (checkpoints,
  /// snapshots, Reset input). The live log never mutates this field in a
  /// slot readers can see — runtime marks live in atomic side-flags
  /// (MarkSuperseded/IsSuperseded) precisely so lock-free scans and
  /// concurrent marks never race on entry memory.
  bool superseded = false;
};

class SignatureLog {
 public:
  static constexpr std::size_t kSegmentBits = 10;
  static constexpr std::size_t kSegmentSize = std::size_t{1} << kSegmentBits;
  /// 64Ki segments x 1Ki slots = 67M signatures, far beyond any workload
  /// in this repo; Append aborts past it rather than corrupting.
  static constexpr std::size_t kMaxSegments = std::size_t{1} << 16;
  static constexpr std::uint64_t kCapacity =
      static_cast<std::uint64_t>(kSegmentSize) * kMaxSegments;

  SignatureLog();
  ~SignatureLog();

  SignatureLog(const SignatureLog&) = delete;
  SignatureLog& operator=(const SignatureLog&) = delete;

  /// Appends one committed entry; returns its index. Thread-safe against
  /// concurrent Append and against lock-free readers.
  std::uint64_t Append(StoredSignature entry);

  /// Committed length. Entries with index < size() are fully visible.
  std::uint64_t size() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Borrowed reference to a committed entry (`index < size()`); valid for
  /// the lifetime of the log (segments are never moved or freed before
  /// destruction/Reset).
  const StoredSignature& At(std::uint64_t index) const;

  /// Visits committed entries with index in [from, min(upto, size()))
  /// in index order, without taking the writer lock. `upto` lets callers
  /// pin an exact snapshot length (e.g. for a count-prefixed reply). The
  /// segment pointer is chased once per segment, not once per entry, so
  /// long scans cost one acquire load per kSegmentSize entries.
  void Visit(std::uint64_t from, std::uint64_t upto,
             const std::function<void(std::uint64_t index,
                                      const StoredSignature& entry)>& fn) const;

  /// Marks a committed entry superseded (ReplaceSignature / FP-disable);
  /// compaction later drops it. The mark lives in an atomic side-flag
  /// next to the slot — entry bytes are never touched, so lock-free
  /// scans of the entry race with nothing. Returns true on the first
  /// mark, false if already marked (idempotent). `index < size()`.
  bool MarkSuperseded(std::uint64_t index);

  /// Whether MarkSuperseded hit this committed entry (`index < size()`).
  bool IsSuperseded(std::uint64_t index) const;

  /// Marked-entry count (== number of MarkSuperseded firsts since the
  /// last Reset, plus entries Reset ingested with `superseded` set).
  std::uint64_t superseded_count() const {
    return superseded_.load(std::memory_order_acquire);
  }

  /// Replaces the whole log (LoadFromFile path), seeding side-flags from
  /// each entry's `superseded` field. NOT safe against concurrent
  /// readers or writers; restart-time only, like the seed's whole-db
  /// swap under its exclusive lock. (Live swaps build a private log and
  /// publish it through the store's log pointer instead.)
  void Reset(std::vector<StoredSignature> entries);

 private:
  struct Segment;

  /// Slot for `index`, allocating the segment if needed. Caller holds
  /// append_mu_.
  StoredSignature* SlotForAppend(std::uint64_t index);

  std::mutex append_mu_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> superseded_{0};
  /// Readers reach segments only through these atomics; the pointer store
  /// happens-before the matching published_ release.
  std::unique_ptr<std::atomic<Segment*>[]> segments_;
};

}  // namespace communix::store
