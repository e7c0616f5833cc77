// Deadlock signatures (§II-A, §III-D).
//
// A signature has one entry per deadlocked thread: the *outer* call stack
// (where the thread acquired the lock involved in the deadlock) and the
// *inner* call stack (where the thread was blocked when the deadlock
// formed). The top frames of the outer/inner stacks are the outer/inner
// lock statements; they uniquely delimit the deadlock *bug*, while the
// full stacks identify one *manifestation* of it.
//
// A Signature is an immutable shared value: the canonical entries, the
// bug key and the content-id cache live in one heap block, so copying a
// signature (into the history, an index snapshot, a callback) copies a
// pointer, and the content id is serialized and hashed at most once per
// content.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dimmunix/frame.hpp"
#include "util/serde.hpp"

namespace communix::dimmunix {

struct SignatureEntry {
  CallStack outer;
  CallStack inner;

  friend bool operator==(const SignatureEntry&, const SignatureEntry&) = default;
};

class Signature {
 public:
  Signature() = default;
  /// Canonicalizes entry order so signatures compare independently of the
  /// order threads were discovered in the cycle.
  explicit Signature(std::vector<SignatureEntry> entries);

  const std::vector<SignatureEntry>& entries() const {
    return payload_ ? payload_->entries : kNoEntries;
  }
  std::size_t num_threads() const { return entries().size(); }
  bool empty() const { return entries().empty(); }

  /// Moves the entries out when this is the payload's only owner and
  /// copies them otherwise; leaves the signature empty. For callers that
  /// rebuild a signature from edited entries.
  std::vector<SignatureEntry> TakeEntries() &&;

  /// Identity of the deadlock *bug*: hash of the (sorted) outer+inner top
  /// frames. Signatures of different manifestations of the same bug share
  /// a BugKey; the merge precondition of §III-D is BugKey equality.
  std::uint64_t BugKey() const { return payload_ ? payload_->bug_key : 0; }

  /// Identity of this exact signature content (stacks + hash metadata);
  /// used for de-duplication in the server DB, local repository, and
  /// history. Computed on first use and cached in the shared payload, so
  /// every copy of a signature pays for it at most once.
  std::uint64_t ContentId() const;

  /// Depth of the shallowest outer stack. The client-side validation
  /// rejects signatures with MinOuterDepth() < 5 (§III-C1).
  std::size_t MinOuterDepth() const;

  /// Merges two signatures of the same bug into their generalization: the
  /// per-position longest common suffixes (§III-D). Returns nullopt if
  /// the signatures have different BugKeys/sizes, or if `min_outer_depth`
  /// > 0 and the merged outer stacks would be shallower than it (the
  /// anti-DoS rule: remote merges must keep depth >= 5).
  static std::optional<Signature> Merge(const Signature& a, const Signature& b,
                                        std::size_t min_outer_depth);

  void Serialize(BinaryWriter& w) const;
  static std::optional<Signature> Deserialize(BinaryReader& r);
  std::vector<std::uint8_t> ToBytes() const;
  static std::optional<Signature> FromBytes(
      std::span<const std::uint8_t> bytes);

  std::string ToString() const;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.payload_ == b.payload_ || a.entries() == b.entries();
  }

 private:
  /// Written only before the first copy of the signature exists; after
  /// that only the content-id cache changes, and it is atomic (`id` is
  /// valid once `id_ready` reads true).
  struct Payload {
    std::vector<SignatureEntry> entries;
    std::uint64_t bug_key = 0;
    std::atomic<std::uint64_t> id{0};
    std::atomic<bool> id_ready{false};
  };
  static inline const std::vector<SignatureEntry> kNoEntries{};

  /// Null for a default-constructed or moved-from (empty) signature.
  std::shared_ptr<Payload> payload_;
};

}  // namespace communix::dimmunix
