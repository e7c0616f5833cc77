#include "dimmunix/signature.hpp"

#include <algorithm>

#include "util/fnv.hpp"

namespace communix::dimmunix {

namespace {

/// Folds the bytes a BinaryWriter would write into an FNV-1a hash
/// without materializing them, so ContentId() == Fnv1a(ToBytes()).
struct FnvSink {
  std::uint64_t h = kFnvOffsetBasis;
  void WriteU8(std::uint8_t v) { h = FnvMix(h, v); }
  void WriteU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      WriteU8(static_cast<std::uint8_t>(v >> (i * 8)));
    }
  }
  void WriteString(std::string_view s) {
    WriteU32(static_cast<std::uint32_t>(s.size()));
    h = Fnv1a(s, h);
  }
  void WriteRaw(std::span<const std::uint8_t> bytes) { h = Fnv1a(bytes, h); }
};

template <typename Sink>
void SerializeStack(Sink& w, const CallStack& stack) {
  w.WriteU32(static_cast<std::uint32_t>(stack.depth()));
  for (const Frame& f : stack.frames()) {
    w.WriteString(f.class_name);
    w.WriteString(f.method);
    w.WriteU32(f.line);
    w.WriteU8(f.class_hash ? 1 : 0);
    if (f.class_hash) {
      w.WriteRaw(std::span<const std::uint8_t>(f.class_hash->data(),
                                               f.class_hash->size()));
    }
  }
}

template <typename Sink>
void SerializeEntries(Sink& w, const std::vector<SignatureEntry>& entries) {
  w.WriteU32(static_cast<std::uint32_t>(entries.size()));
  for (const SignatureEntry& e : entries) {
    SerializeStack(w, e.outer);
    SerializeStack(w, e.inner);
  }
}

std::optional<CallStack> DeserializeStack(BinaryReader& r) {
  const std::uint32_t depth = r.ReadU32();
  // Defensive cap: a frame takes >= 10 bytes, so a huge depth in a corrupt
  // buffer fails fast instead of allocating.
  if (!r.ok() || depth > 4096) return std::nullopt;
  std::vector<Frame> frames(depth);
  for (Frame& f : frames) {
    f.class_name = r.ReadString();
    f.method = r.ReadString();
    f.line = r.ReadU32();
    if (r.ReadU8() != 0) {
      Sha256Digest d;
      if (r.ReadInto(d)) f.class_hash = d;
    }
    if (!r.ok()) return std::nullopt;
    f.RecomputeKey();
  }
  return CallStack(std::move(frames));
}

/// Sorts entries into canonical order; returns the bug key.
std::uint64_t Canonicalize(std::vector<SignatureEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SignatureEntry& a, const SignatureEntry& b) {
              if (a.outer.TopKey() != b.outer.TopKey()) {
                return a.outer.TopKey() < b.outer.TopKey();
              }
              if (a.inner.TopKey() != b.inner.TopKey()) {
                return a.inner.TopKey() < b.inner.TopKey();
              }
              if (a.outer.StackKey() != b.outer.StackKey()) {
                return a.outer.StackKey() < b.outer.StackKey();
              }
              return a.inner.StackKey() < b.inner.StackKey();
            });
  // Bug identity: fold of sorted (outer top, inner top) pairs.
  std::uint64_t h = kFnvOffsetBasis;
  for (const SignatureEntry& e : entries) {
    h = HashCombine(h, HashCombine(e.outer.TopKey(), e.inner.TopKey()));
  }
  return h;
}

}  // namespace

Signature::Signature(std::vector<SignatureEntry> entries)
    : payload_(std::make_shared<Payload>()) {
  payload_->entries = std::move(entries);
  payload_->bug_key = Canonicalize(payload_->entries);
}

std::vector<SignatureEntry> Signature::TakeEntries() && {
  const std::shared_ptr<Payload> payload = std::move(payload_);
  if (payload.use_count() == 1) return std::move(payload->entries);
  return payload ? payload->entries : std::vector<SignatureEntry>{};
}

std::uint64_t Signature::ContentId() const {
  if (payload_ && payload_->id_ready.load()) return payload_->id.load();
  FnvSink sink;
  SerializeEntries(sink, entries());
  const std::uint64_t id = sink.h;
  if (payload_) {
    // Racing first calls compute the same value; either store wins.
    payload_->id.store(id);
    payload_->id_ready.store(true);
  }
  return id;
}

std::size_t Signature::MinOuterDepth() const {
  std::size_t d = SIZE_MAX;
  for (const SignatureEntry& e : entries()) {
    d = std::min(d, e.outer.depth());
  }
  return empty() ? 0 : d;
}

std::optional<Signature> Signature::Merge(const Signature& a,
                                          const Signature& b,
                                          std::size_t min_outer_depth) {
  if (a.BugKey() != b.BugKey() || a.num_threads() != b.num_threads()) {
    return std::nullopt;
  }
  // Entries are canonically ordered by top-frame keys, so positions align.
  std::vector<SignatureEntry> merged;
  merged.reserve(a.num_threads());
  for (std::size_t i = 0; i < a.num_threads(); ++i) {
    SignatureEntry e;
    e.outer = CallStack::LongestCommonSuffix(a.entries()[i].outer,
                                             b.entries()[i].outer);
    e.inner = CallStack::LongestCommonSuffix(a.entries()[i].inner,
                                             b.entries()[i].inner);
    // The common suffix always contains at least the identical top frame.
    if (e.outer.empty() || e.inner.empty()) return std::nullopt;
    if (min_outer_depth > 0 && e.outer.depth() < min_outer_depth) {
      return std::nullopt;
    }
    merged.push_back(std::move(e));
  }
  return Signature(std::move(merged));
}

void Signature::Serialize(BinaryWriter& w) const {
  SerializeEntries(w, entries());
}

std::optional<Signature> Signature::Deserialize(BinaryReader& r) {
  const std::uint32_t n = r.ReadU32();
  if (!r.ok() || n == 0 || n > 64) return std::nullopt;
  std::vector<SignatureEntry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto outer = DeserializeStack(r);
    auto inner = DeserializeStack(r);
    if (!outer || !inner) return std::nullopt;
    entries.push_back(SignatureEntry{std::move(*outer), std::move(*inner)});
  }
  return Signature(std::move(entries));
}

std::vector<std::uint8_t> Signature::ToBytes() const {
  BinaryWriter w;
  Serialize(w);
  return w.take();
}

std::optional<Signature> Signature::FromBytes(
    std::span<const std::uint8_t> bytes) {
  BinaryReader r(bytes);
  auto sig = Deserialize(r);
  if (!sig || !r.AtEnd()) return std::nullopt;
  return sig;
}

std::string Signature::ToString() const {
  std::string out = "Signature{bug=" + std::to_string(BugKey()) + "\n";
  for (std::size_t i = 0; i < num_threads(); ++i) {
    out += " thread " + std::to_string(i) + " outer:\n" +
           entries()[i].outer.ToString();
    out += " thread " + std::to_string(i) + " inner:\n" +
           entries()[i].inner.ToString();
  }
  out += "}";
  return out;
}

}  // namespace communix::dimmunix
