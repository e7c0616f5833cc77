#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::uint32_t SpanLog::Name(std::string_view name) {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanLog::ThreadBuffer& SpanLog::Buffer() {
  auto buf = std::make_unique<ThreadBuffer>();
  buf->capacity_ = capacity_;
  buf->spans_.reserve(std::min<std::size_t>(capacity_, 1u << 14));
  std::lock_guard lock(mu_);
  buf->thread_tag_ = buffers_.size() + 1;
  buffers_.push_back(std::move(buf));
  return *buffers_.back();
}

std::vector<Span> SpanLog::Merged() const {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans_.begin(), b->spans_.end());
  }
  return all;
}

std::uint64_t SpanLog::stored() const {
  std::lock_guard lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans_.size();
  return n;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped_;
  return n;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    auto it = by_id.find(spans[i].parent);
    if (it != by_id.end()) children[it->second].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (std::size_t c : children[i]) {
      const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
      const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<SpanSummary> SpanLog::Summarize() const {
  const std::vector<Span> all = Merged();
  const std::vector<std::int64_t> self = SelfTimes(all);
  std::vector<SpanSummary> out;
  {
    std::lock_guard lock(mu_);
    out.resize(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name >= out.size()) continue;
    SpanSummary& s = out[all[i].name];
    ++s.count;
    s.total_ns += static_cast<double>(all[i].end_ns - all[i].start_ns);
    s.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = Merged();
  std::vector<std::string> names;
  {
    std::lock_guard lock(mu_);
    names = names_;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = SelfTimes(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 s.name < names.size() ? names[s.name].c_str() : "?",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
