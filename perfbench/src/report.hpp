// What a workload run produces: named metrics (each with unit and sample
// count), the checks it made, and files written next to the results.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // per-run output directory (created by main)
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

class Results {
 public:
  /// Workload-specific end-to-end metric under its own name (printed and
  /// saved; the gated, workload-independent names are set via Gate()).
  void EndToEnd(const std::string& name, double value, std::string unit,
                std::uint64_t samples);
  /// Per-layer metric (traced run).
  void Layer(const std::string& name, double value, std::string unit,
             std::uint64_t samples);
  /// Gated end-to-end metric, identical names on every workload.
  void Gate(const std::string& name, double value, std::string unit,
            std::uint64_t samples);

  /// Counts one checked operation; `ok` false counts it failed and keeps
  /// the first few messages.
  void Check(bool ok, const std::string& what);
  void CheckMany(std::uint64_t attempted, std::uint64_t failed,
                 const std::string& what);
  /// A run-level condition (e.g. the generator fell behind) that makes
  /// the run invalid without being a failed operation.
  void Invalidate(const std::string& why);

  void Note(const std::string& key, const std::string& value);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool valid() const { return invalid_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& invalid_reasons() const { return invalid_; }
  const std::map<std::string, Metric>& end_to_end() const { return e2e_; }
  const std::map<std::string, Metric>& layers() const { return layers_; }
  const std::map<std::string, Metric>& gated() const { return gated_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Metric> e2e_, layers_, gated_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> invalid_;
};

/// Writes `registry`'s snapshot in the obs snapshot_io JSON format (the
/// one `sig_inspect stats` renders) to `<dir>/<component>.metrics.json`.
bool SaveSnapshot(const std::string& dir, const std::string& component,
                  const communix::obs::MetricsRegistry& registry);

/// Writes every stored span to `<dir>/spans.jsonl` and notes, per span
/// name, the count, total and self time (the per-layer span table).
void SaveSpans(const SpanLog& spans, const std::string& dir, Results& results);

/// Restricts the calling thread to CPU `cpu` (modulo the CPU count).
/// The benchmark pins the threads it drives itself: left to migrate, they
/// and the server threads they talk to settle into a different placement
/// on every run, which moves loopback round trips and lock-loop rates by
/// tens of percent on a small host.
void PinThisThread(unsigned cpu);
/// Restricts the calling thread to CPUs [first, first + count), modulo
/// the CPU count; threads it starts afterwards inherit the set. count 0
/// means every CPU.
void PinThisThreadToCpus(unsigned first, unsigned count);
/// CPUs [0, GeneratorCpus()) run the open-loop generator; the servers it
/// drives run on the rest (all CPUs on a single-CPU host), so neither's
/// scheduling moves the other's latency.
unsigned GeneratorCpus();

/// Peak resident set size of this process so far, MiB.
double PeakRssMiB();

/// Minimal JSON string escaping for names and notes.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench
