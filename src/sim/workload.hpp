// Lock-intensive workloads driving the Dimmunix runtime.
//
// Two engines:
//  * ContendedWorkload — Table II's measurement vehicle. Threads loop:
//    compute outside any lock, enter a nested synchronized block of a
//    synthetic app along its canonical call path, compute inside, enter
//    the helper's synchronized block, compute, unwind. With malicious
//    depth-5 signatures installed on those sites, every concurrent entry
//    triggers avoidance serialization; the wall-clock ratio to the
//    vanilla (std::mutex) run is the paper's "overhead".
//  * AbbaWorkload — the classic two-lock ordering bug. Used by tests and
//    examples to show the immunity lifecycle: first run deadlocks and
//    learns a signature; subsequent runs avoid it.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bytecode/synthetic.hpp"
#include "dimmunix/runtime.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace communix::sim {

/// Calibrated CPU-bound busy work (arithmetic, not sleep), so avoidance
/// serialization shows up as real wall-clock overhead.
void BusyWork(std::uint32_t units);

struct ContendedConfig {
  int threads = 4;
  int iterations_per_thread = 2'000;
  /// How many distinct nested sites the threads cycle through.
  int sites_used = 8;
  /// Probability an iteration passes through an attacked (nested) site;
  /// the rest of the iterations run off the critical path.
  double critical_fraction = 1.0;
  /// Fraction of critical iterations that reach the site through an
  /// *alternate* call path sharing only the lock statement (top frame)
  /// with the canonical chain. Depth-1 signatures match both paths;
  /// depth >= 2 signatures match only the canonical one — this is why
  /// shallow signatures are so much more damaging (§III-C1).
  double alternate_path_fraction = 1.0 / 3.0;
  std::uint32_t work_outside = 60;
  std::uint32_t work_inside = 25;
  std::uint32_t work_inner = 10;
  std::uint64_t seed = 42;
};

/// Per-operation latency of the timed outer Acquire/Release pairs.
struct PairLatency {
  obs::Histogram acquire;
  obs::Histogram release;
};

struct ContendedResult {
  double seconds = 0;
  dimmunix::DimmunixRuntime::Stats stats;
};

class ContendedWorkload {
 public:
  ContendedWorkload(const bytecode::SyntheticApp& app, ContendedConfig config);

  /// Runs under Dimmunix (whose history the caller may have poisoned with
  /// attack signatures). When `latency` is non-null, every outer
  /// Acquire/Release pair is individually timed into it (two steady-clock
  /// reads per op — leave null for wall-clock overhead measurements).
  ContendedResult Run(dimmunix::DimmunixRuntime& runtime,
                      PairLatency* latency = nullptr) const;

  /// Same loop on plain std::mutex, no instrumentation — the vanilla
  /// baseline.
  double RunVanilla() const;

  const std::vector<std::int32_t>& sites() const { return sites_; }

 private:
  const bytecode::SyntheticApp& app_;
  const ContendedConfig config_;
  std::vector<std::int32_t> sites_;  // nested sites used by the loop
};

/// The AB/BA deadlock bug. Threads repeatedly lock (A then B) and
/// (B then A) under distinct call stacks. `RunOnce` performs one
/// potentially-deadlocking encounter; with an empty history it deadlocks
/// with high probability (a sync barrier aligns the two acquisitions);
/// with the learned signature installed, avoidance serializes them.
class AbbaWorkload {
 public:
  struct Result {
    bool deadlocked = false;       // a kDeadlock status was returned
    int completed_pairs = 0;       // iterations that took both locks
  };

  explicit AbbaWorkload(int iterations = 50) : iterations_(iterations) {}

  Result Run(dimmunix::DimmunixRuntime& runtime) const;

 private:
  int iterations_;
};

}  // namespace communix::sim
