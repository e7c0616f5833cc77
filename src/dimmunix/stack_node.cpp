#include "dimmunix/stack_node.hpp"

#include <cstring>

#include "util/fnv.hpp"

namespace communix::dimmunix {

namespace {

constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 32;
  x *= kMul;
  return x ^ (x >> 29);
}

/// Word-at-a-time hash for table probes only (never persisted): a hit
/// is confirmed by comparing the names, so it need not be strong, just
/// much cheaper per byte than FNV-1a.
std::uint64_t HashBytes(std::string_view s, std::uint64_t h) {
  const char* p = s.data();
  std::size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 31;
  }
  std::uint64_t w = 0;
  std::memcpy(&w, p, n);
  h = (h ^ w ^ (static_cast<std::uint64_t>(s.size()) << 56)) * kMul;
  return h ^ (h >> 31);
}

std::uint64_t LookupHash(std::string_view cls, std::string_view method,
                         const std::optional<Sha256Digest>& class_hash) {
  std::uint64_t h = HashBytes(method, HashBytes(cls, kFnvOffsetBasis));
  if (class_hash) h ^= Mix(DigestPrefix64(*class_hash) + 1);
  return Mix(h);
}

std::uint64_t NodeHash(const StackNode* parent, std::uint64_t lookup_hash,
                       std::uint32_t line) {
  return Mix(lookup_hash ^
             (static_cast<std::uint64_t>(
                  reinterpret_cast<std::uintptr_t>(parent)) *
              kMul) ^
             (std::uint64_t{line} * 0xc2b2ae3d27d4eb4fULL));
}

bool SameMethod(const MethodInfo& m, std::string_view cls,
                std::string_view method,
                const std::optional<Sha256Digest>& class_hash) {
  return m.class_name == cls && m.method == method &&
         m.class_hash == class_hash;
}

}  // namespace

CallStack StackRef::Materialize() const {
  std::vector<Frame> frames(depth_);
  const StackNode* n = top_;
  for (std::size_t i = depth_; i-- > 0; n = n->parent) {
    Frame& f = frames[i];
    f.class_name = n->method->class_name;
    f.method = n->method->method;
    f.line = n->line;
    f.class_hash = n->method->class_hash;
    f.location_key = n->location_key;
  }
  return CallStack(std::move(frames));
}

bool CallStack::MatchesSuffixOf(const StackRef& concrete) const {
  if (frames_.empty() || frames_.size() > concrete.depth()) return false;
  const StackNode* n = concrete.top();
  for (std::size_t i = frames_.size(); i-- > 0; n = n->parent) {
    const Frame& f = frames_[i];
    if (f.location_key != n->location_key || f.line != n->line ||
        f.class_name != n->method->class_name ||
        f.method != n->method->method) {
      return false;
    }
  }
  return true;
}

const StackNode* FrameTable::Child(const StackNode* parent,
                                   std::string_view class_name,
                                   std::string_view method,
                                   std::uint32_t line) {
  return Intern(parent, class_name, method, std::nullopt, line);
}

const StackNode* FrameTable::Child(const StackNode* parent,
                                   const Frame& frame) {
  return Intern(parent, frame.class_name, frame.method, frame.class_hash,
                frame.line);
}

const StackNode* FrameTable::Intern(
    const StackNode* parent, std::string_view cls, std::string_view method,
    const std::optional<Sha256Digest>& class_hash, std::uint32_t line) {
  const std::uint64_t lookup = LookupHash(cls, method, class_hash);
  const std::uint64_t h = NodeHash(parent, lookup, line);
  if (!node_slots_.empty()) {
    const std::size_t mask = node_slots_.size() - 1;
    for (std::size_t i = h & mask; node_slots_[i].item != nullptr;
         i = (i + 1) & mask) {
      if (node_slots_[i].hash != h) continue;
      const auto* n = static_cast<const StackNode*>(node_slots_[i].item);
      if (n->parent == parent && n->line == line &&
          n->method->lookup_hash == lookup &&
          SameMethod(*n->method, cls, method, class_hash)) {
        return n;
      }
    }
  }
  return AddNode(parent, InternMethod(cls, method, class_hash, lookup), line,
                 h);
}

const StackNode* FrameTable::WithLine(const StackNode* node,
                                      std::uint32_t line) {
  const StackNode* parent = node->parent;
  const MethodInfo* m = node->method;
  const std::uint64_t h = NodeHash(parent, m->lookup_hash, line);
  const std::size_t mask = node_slots_.size() - 1;  // `node` is in it
  for (std::size_t i = h & mask; node_slots_[i].item != nullptr;
       i = (i + 1) & mask) {
    if (node_slots_[i].hash != h) continue;
    const auto* n = static_cast<const StackNode*>(node_slots_[i].item);
    if (n->parent == parent && n->line == line && n->method == m) return n;
  }
  return AddNode(parent, m, line, h);
}

const MethodInfo* FrameTable::InternMethod(
    std::string_view cls, std::string_view method,
    const std::optional<Sha256Digest>& class_hash, std::uint64_t lookup_hash) {
  if (!method_slots_.empty()) {
    const std::size_t mask = method_slots_.size() - 1;
    for (std::size_t i = lookup_hash & mask; method_slots_[i].item != nullptr;
         i = (i + 1) & mask) {
      const auto* m = static_cast<const MethodInfo*>(method_slots_[i].item);
      if (method_slots_[i].hash == lookup_hash &&
          SameMethod(*m, cls, method, class_hash)) {
        return m;
      }
    }
  }
  MethodInfo& m = methods_.emplace_back();
  m.class_name = cls;
  m.method = method;
  m.class_hash = class_hash;
  m.lookup_hash = lookup_hash;
  m.prefix_hash = Fnv1a(method, Fnv1a(cls));
  Insert(method_slots_, methods_.size(), lookup_hash, &m);
  return &m;
}

const StackNode* FrameTable::AddNode(const StackNode* parent,
                                     const MethodInfo* method,
                                     std::uint32_t line, std::uint64_t hash) {
  StackNode& n = nodes_.emplace_back();
  n.parent = parent;
  n.method = method;
  n.line = line;
  n.depth = parent == nullptr ? 1 : parent->depth + 1;
  n.location_key = Fnv1aU64(line, method->prefix_hash);
  Insert(node_slots_, nodes_.size(), hash, &n);
  return &n;
}

void FrameTable::Insert(std::vector<Slot>& slots, std::size_t count,
                        std::uint64_t hash, const void* item) {
  if (count * 2 > slots.size()) {
    std::vector<Slot> old = std::move(slots);
    slots.assign(std::max<std::size_t>(16, old.size() * 2), Slot{});
    for (const Slot& s : old) {
      if (s.item != nullptr) Insert(slots, 0, s.hash, s.item);
    }
  }
  const std::size_t mask = slots.size() - 1;
  std::size_t i = hash & mask;
  while (slots[i].item != nullptr) i = (i + 1) & mask;
  slots[i] = Slot{hash, item};
}

}  // namespace communix::dimmunix
