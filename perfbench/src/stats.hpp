// Sample statistics for the benchmark: exact percentiles over recorded
// samples (no bucketing), so a reported p99 is a value that was observed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least q of all samples are <= it. q in (0, 1]; q <= 0
/// returns the minimum. An empty input returns NaN.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::nan("");
  if (q <= 0) return sorted.front();
  if (q >= 1) return sorted.back();
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Median of an unsorted copy (NaN when empty).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

/// Number of samples strictly above the q-percentile position, i.e. how
/// many observations a reported q-percentile stands on in the tail.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return rank >= static_cast<double>(n) ? 0
                                         : n - static_cast<std::size_t>(rank);
}

/// A recorded distribution: every sample kept, sorted on demand.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); sorted_ = false; }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  void Reserve(std::size_t n) { v_.reserve(n); }
  std::size_t count() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  void Clear() { v_.clear(); sorted_ = true; }

  double Quantile(double q) {
    Sort();
    return Percentile(v_, q);
  }
  const std::vector<double>& values() const { return v_; }

 private:
  void Sort() {
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

/// Samples stamped with the time they were taken, for per-window
/// statistics.
class TimedSamples {
 public:
  void Add(std::int64_t t_ns, double v) { v_.emplace_back(t_ns, v); }
  void Clear() { v_.clear(); }
  std::size_t count() const { return v_.size(); }
  void Append(const TimedSamples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  Samples Values() const {
    Samples s;
    s.Reserve(v_.size());
    for (const auto& [t, v] : v_) s.Add(v);
    return s;
  }

  /// Samples per consecutive `window_ns` window (by time stamp, from the
  /// earliest sample), over `windows` windows.
  std::vector<double> WindowCounts(std::int64_t window_ns,
                                   std::size_t windows) const {
    std::vector<double> out;
    for (const Samples& w : ByWindow(window_ns, windows)) {
      out.push_back(static_cast<double>(w.count()));
    }
    return out;
  }

  /// The q-quantile of each consecutive `window_ns` window that holds a
  /// sample, over `windows` windows.
  std::vector<double> WindowQuantiles(std::int64_t window_ns,
                                      std::size_t windows, double q) const {
    std::vector<double> out;
    for (Samples& w : ByWindow(window_ns, windows)) {
      if (!w.empty()) out.push_back(w.Quantile(q));
    }
    return out;
  }

 private:
  std::vector<Samples> ByWindow(std::int64_t window_ns,
                                std::size_t windows) const {
    std::vector<Samples> out(windows);
    if (v_.empty()) return out;
    std::int64_t t0 = v_.front().first;
    for (const auto& p : v_) t0 = std::min(t0, p.first);
    for (const auto& [t, v] : v_) {
      const auto k = static_cast<std::size_t>((t - t0) / window_ns);
      if (k < windows) out[k].Add(v);
    }
    return out;
  }

  std::vector<std::pair<std::int64_t, double>> v_;
};

}  // namespace perfbench
