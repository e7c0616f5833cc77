// Interned shadow-stack frames: each thread's stack is a path in its own
// calling-context tree.
//
// A push resolves (caller node, class, method, line) to an immutable
// StackNode that carries the frame's precomputed location key, so the
// shadow stack is a single pointer to its top node and a capture is that
// pointer plus a depth — no copy, no allocation. Distinct positions are
// interned once, the way Dimmunix (OSDI'08) identifies stack positions
// by ID; FNV-1a (Frame::location_key) runs once per distinct frame.
//
// Ownership: a FrameTable belongs to one ThreadContext and only its
// owning thread interns into it. Nodes are never freed individually (no
// refcounts): they live until the table is destroyed with its context,
// which the runtime only reaps once the context's stack is empty and no
// monitor it held still publishes a capture of it. Other threads may
// read nodes (avoidance scans under the publication lock, detection
// under the runtime mutex) because a node never changes after it is
// published.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dimmunix/frame.hpp"

namespace communix::dimmunix {

/// An interned (class, method, class hash); shared by every node of it.
struct MethodInfo {
  std::string class_name;
  std::string method;
  std::optional<Sha256Digest> class_hash;
  /// Cheap hash of the names (and class hash) for table probes.
  std::uint64_t lookup_hash = 0;
  /// Fnv1a(method, Fnv1a(class_name)): a frame's location key is
  /// Fnv1aU64(line, prefix_hash), so a line change needs no string hash.
  std::uint64_t prefix_hash = 0;
};

/// One frame under one caller. Immutable once interned.
struct StackNode {
  const StackNode* parent = nullptr;  // the caller; nullptr at the bottom
  const MethodInfo* method = nullptr;
  std::uint32_t line = 0;
  std::uint32_t depth = 0;  // frames from the bottom, this one included
  std::uint64_t location_key = 0;  // == Frame::location_key
};

/// A captured stack: the top `depth` frames of the chain ending at `top`
/// (truncation to max_stack_depth is a depth, applied when matching).
class StackRef {
 public:
  StackRef() = default;
  StackRef(const StackNode* top, std::size_t max_depth)
      : top_(top),
        depth_(top == nullptr ? 0 : std::min<std::size_t>(top->depth,
                                                          max_depth)) {}

  std::size_t depth() const { return depth_; }
  const StackNode* top() const { return top_; }
  /// Key of the top frame (0 for an empty capture, as CallStack::TopKey).
  std::uint64_t TopKey() const {
    return depth_ == 0 ? 0 : top_->location_key;
  }
  /// Copies the captured frames out, bottom first, class hashes
  /// included.
  CallStack Materialize() const;

 private:
  const StackNode* top_ = nullptr;
  std::size_t depth_ = 0;
};

/// One thread's interning tables. Not thread-safe: the owning thread
/// interns; nodes it returns may be read by anyone (see file comment).
class FrameTable {
 public:
  FrameTable() = default;
  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  /// The node for frame (class, method, line) called from `parent`.
  const StackNode* Child(const StackNode* parent, std::string_view class_name,
                         std::string_view method, std::uint32_t line);
  /// Same for a full Frame; its class hash is part of the identity.
  const StackNode* Child(const StackNode* parent, const Frame& frame);
  /// `node` with its line changed: same caller, same method.
  const StackNode* WithLine(const StackNode* node, std::uint32_t line);

 private:
  struct Slot {
    std::uint64_t hash = 0;
    const void* item = nullptr;  // StackNode* or MethodInfo*
  };

  const StackNode* Intern(const StackNode* parent, std::string_view cls,
                          std::string_view method,
                          const std::optional<Sha256Digest>& class_hash,
                          std::uint32_t line);
  const MethodInfo* InternMethod(std::string_view cls, std::string_view method,
                                 const std::optional<Sha256Digest>& class_hash,
                                 std::uint64_t lookup_hash);
  const StackNode* AddNode(const StackNode* parent, const MethodInfo* method,
                           std::uint32_t line, std::uint64_t hash);
  static void Insert(std::vector<Slot>& slots, std::size_t count,
                     std::uint64_t hash, const void* item);

  std::deque<MethodInfo> methods_;
  std::deque<StackNode> nodes_;
  /// Open-addressed (linear probing, power-of-two size, load <= 1/2).
  std::vector<Slot> method_slots_;
  std::vector<Slot> node_slots_;
};

}  // namespace communix::dimmunix
