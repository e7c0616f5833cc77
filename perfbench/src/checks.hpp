// Output checks. Every reply the load generator receives is checked,
// and each failed check counts against the run's error ratio.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.hpp"

namespace perfbench {

/// 64-bit digest of a byte range (word-at-a-time multiply-xorshift).
/// Equal ranges give equal digests; it detects corruption, it is not a
/// cryptographic hash.
std::uint64_t Digest(std::span<const std::uint8_t> bytes);

/// A decoded GET(k) reply: status code and a view of the entries region
/// (each entry length-prefixed) inside the reply body.
struct GetReply {
  communix::ErrorCode code = communix::ErrorCode::kOk;
  std::uint32_t count = 0;
  std::span<const std::uint8_t> region;
};
/// Decodes a serialized net::Response carrying a GET reply in place (a
/// bootstrap reply is megabytes; copying it would load the generator).
/// Checks the response framing (the layout net::Response::Serialize
/// writes) and every entry's length prefix. nullopt when malformed.
std::optional<GetReply> ParseGetReply(std::span<const std::uint8_t> body);

/// What a poll reply claimed: entries [from, from + count) with this
/// region digest.
struct PollRecord {
  std::uint64_t from = 0;
  std::uint32_t count = 0;
  std::uint64_t digest = 0;
};

/// The reference log: the primary's committed entries, serialized the
/// way a GET reply carries them. A reply for cursor k is correct iff its
/// region is byte-identical to the reference's entries [k, k + count).
class LogReference {
 public:
  explicit LogReference(const std::vector<std::vector<std::uint8_t>>& entries);
  std::size_t size() const { return offsets_.size() - 1; }
  /// The reference region for [from, from + count); empty span if out of
  /// range.
  std::span<const std::uint8_t> Region(std::uint64_t from,
                                       std::uint32_t count) const;
  bool Matches(const PollRecord& rec);
  bool MatchesBytes(std::uint64_t from, std::uint32_t count,
                    std::span<const std::uint8_t> region) const;

 private:
  std::vector<std::uint8_t> region_;
  std::vector<std::size_t> offsets_;  // size()+1 entries
  std::unordered_map<std::uint64_t, std::uint64_t> memo_;  // (from,count)
};

/// True iff `body` is a well-formed single-ADD reply carrying `expected`.
bool AddReplyMatches(std::span<const std::uint8_t> body,
                     communix::ErrorCode expected);

}  // namespace perfbench
