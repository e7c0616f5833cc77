// Call-stack frames and call stacks.
//
// A deadlock signature is built from call stacks whose frames are
// `class.method : line [: class-bytecode-hash]` entries (§III-C3). Frames
// compare by *location* (class, method, line); the bytecode hash is
// metadata attached by the Communix plugin and consumed by validation.
//
// Convention: index 0 is the outermost (bottom) frame; back() is the top
// frame — for an "outer" stack that is the lock statement itself. A
// signature stack is an *abstraction*: it matches a concrete runtime stack
// iff it equals that stack's top portion ("suffix" in the paper's frame
// numbering, where frame n is the top).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/fnv.hpp"
#include "util/sha256.hpp"

namespace communix::dimmunix {

class StackRef;

/// One stack frame. `location_key` is precomputed for O(1) comparison and
/// hash-table lookup.
struct Frame {
  std::string class_name;
  std::string method;
  std::uint32_t line = 0;
  /// SHA-256 of the bytecode of `class_name`, attached by the plugin
  /// before upload (§III-C); absent for stacks captured locally.
  std::optional<Sha256Digest> class_hash;
  std::uint64_t location_key = 0;

  Frame() = default;
  Frame(std::string cls, std::string mth, std::uint32_t ln,
        std::optional<Sha256Digest> hash = std::nullopt)
      : class_name(std::move(cls)),
        method(std::move(mth)),
        line(ln),
        class_hash(std::move(hash)) {
    RecomputeKey();
  }

  void RecomputeKey() {
    std::uint64_t h = Fnv1a(class_name);
    h = Fnv1a(method, h);
    location_key = Fnv1aU64(line, h);
  }

  /// Location equality: class, method, line. Hashes are metadata.
  friend bool operator==(const Frame& a, const Frame& b) {
    return a.location_key == b.location_key && a.line == b.line &&
           a.class_name == b.class_name && a.method == b.method;
  }

  std::string ToString() const {
    return class_name + "." + method + ":" + std::to_string(line);
  }
};

/// A call stack (bottom at index 0, top at back()).
class CallStack {
 public:
  CallStack() = default;
  explicit CallStack(std::vector<Frame> frames) : frames_(std::move(frames)) {}

  bool empty() const { return frames_.empty(); }
  std::size_t depth() const { return frames_.size(); }
  const std::vector<Frame>& frames() const { return frames_; }
  std::vector<Frame>& mutable_frames() { return frames_; }
  const Frame& top() const { return frames_.back(); }

  /// Key of the top frame (the lock statement for outer stacks).
  std::uint64_t TopKey() const {
    return frames_.empty() ? 0 : frames_.back().location_key;
  }

  /// Order-dependent key of the whole stack.
  std::uint64_t StackKey() const {
    std::uint64_t h = kFnvOffsetBasis;
    for (const Frame& f : frames_) h = HashCombine(h, f.location_key);
    return h;
  }

  /// True iff this (abstract) stack equals the top portion of `concrete`.
  bool MatchesSuffixOf(const CallStack& concrete) const {
    if (frames_.empty() || frames_.size() > concrete.frames_.size()) {
      return false;
    }
    const std::size_t offset = concrete.frames_.size() - frames_.size();
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (!(frames_[i] == concrete.frames_[offset + i])) return false;
    }
    return true;
  }
  /// Same test against an interned capture (stack_node.hpp). Walks the
  /// chain top-down and compares names only where the keys agree.
  bool MatchesSuffixOf(const StackRef& concrete) const;

  /// Keeps only the top `depth` frames (no-op if already shallower).
  void TrimToDepth(std::size_t depth) {
    if (frames_.size() > depth) {
      frames_.erase(frames_.begin(),
                    frames_.end() - static_cast<std::ptrdiff_t>(depth));
    }
  }

  /// Longest common *top* portion of two stacks (the paper's "longest
  /// common suffix", §III-D). Frames compare by location; hash metadata is
  /// taken from `a`.
  static CallStack LongestCommonSuffix(const CallStack& a, const CallStack& b);

  friend bool operator==(const CallStack& x, const CallStack& y) {
    return x.frames_ == y.frames_;
  }

  std::string ToString() const;

 private:
  std::vector<Frame> frames_;
};

}  // namespace communix::dimmunix
