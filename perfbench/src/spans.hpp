// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, recorded by the
// benchmark around that call: name, start, end, the span that caused it
// (0 for a root) and the request or iteration id it belongs to. Each
// thread appends to its own buffer, so recording takes no lock; the
// buffers are merged and written out only when the run ends. Spans past
// a buffer's capacity are counted, not stored, so a long run keeps a
// bounded memory footprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t req = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Aggregate of every stored span with one name.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // duration minus the part covered by child spans
};

class SpanLog {
 public:
  /// Per-thread append buffer; obtain once per thread via Buffer().
  class ThreadBuffer {
   public:
    std::uint64_t NewId() { return (thread_tag_ << 40) | ++next_; }

   private:
    friend class SpanLog;
    std::vector<Span> spans_;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t thread_tag_ = 0;
    std::uint64_t next_ = 0;
  };

  explicit SpanLog(std::size_t capacity_per_thread = 1u << 18)
      : capacity_(capacity_per_thread) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Interns a span name (call during set-up; not on hot paths).
  std::uint32_t Name(std::string_view name);
  ThreadBuffer& Buffer();

  static void Record(ThreadBuffer& buf, std::uint32_t name, std::uint64_t id,
                     std::uint64_t parent, std::uint64_t req,
                     std::int64_t start_ns, std::int64_t end_ns) {
    if (buf.spans_.size() < buf.capacity_) {
      buf.spans_.push_back(Span{name, id, parent, req, start_ns, end_ns});
    } else {
      ++buf.dropped_;
    }
  }

  std::vector<Span> Merged() const;
  std::uint64_t stored() const;
  std::uint64_t dropped() const;

  /// Per-name totals and self times over the stored spans.
  std::vector<SpanSummary> Summarize() const;
  /// Writes every stored span as one JSON object per line. False on I/O
  /// failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Self time of each span in `spans`: its duration minus the union of
/// its children's intervals clipped to it. Output is parallel to input.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
