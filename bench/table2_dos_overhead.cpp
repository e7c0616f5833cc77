// Table II: "Worst case overhead incurred while under a DoS attack."
//
// Paper setup: 20 deadlock signatures with outer call stacks of depth 5
// are planted in the history; their outer calls are on the critical path
// (>99% of nested synchronized blocks/methods execute under them). The
// residual worst-case overhead is 8-40% depending on the application;
// off the critical path it is <2%; at depth 1 it exceeds 100% for some
// apps (which is why the agent rejects depth < 5).
//
// Reproduction: per Table II row, a contended workload over the profiled
// synthetic app. Overhead = wall-clock with poisoned history / vanilla
// (std::mutex) - 1. We print the on-critical-path depth-5 figure (the
// table), plus the off-critical-path and depth-1 checks from the text.
//
// A second section measures the *clean-history* instrumentation itself —
// the fast-path/global-lock comparison: per-acquisition and per-release
// mean latency (sim::PairLatency histograms), the fast-path hit rate,
// and the slow-path entry count, for both RuntimeMode settings. On this
// workload every acquisition is candidate-free, so in kFastPath mode the
// slow path is entered only under CAS contention.
//
// Knobs:
//   --smoke       tiny sizes (CI)
//   --json=PATH   trajectory file (default BENCH_overhead.json)
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "sim/apps.hpp"
#include "sim/attacker.hpp"
#include "sim/workload.hpp"
#include "util/clock.hpp"

namespace {

using communix::VirtualClock;
using communix::dimmunix::DimmunixRuntime;
using communix::dimmunix::RuntimeMode;
using communix::dimmunix::SignatureOrigin;
using communix::sim::ContendedWorkload;
using communix::sim::MakeCriticalPathBatch;
using communix::sim::PairLatency;
using communix::sim::TableIIProfile;

constexpr std::size_t kSignatures = 20;  // paper: 20 signatures in history

double MeasureOverheadPct(const TableIIProfile& row, std::size_t depth,
                          bool on_critical_path, bool smoke) {
  const auto app = communix::bytecode::GenerateApp(row.app_spec);
  communix::sim::ContendedConfig config = row.workload;
  if (smoke) {
    config.iterations_per_thread =
        std::max(50, config.iterations_per_thread / 20);
  }
  ContendedWorkload workload(app, config);

  std::vector<std::int32_t> target_sites = workload.sites();
  if (!on_critical_path) {
    // Signatures over nested sites the workload never touches.
    target_sites.assign(
        app.nested_sites.begin() +
            static_cast<std::ptrdiff_t>(workload.sites().size()),
        app.nested_sites.end());
  }
  const auto signatures =
      MakeCriticalPathBatch(app, target_sites, kSignatures, depth);

  // Vanilla: min of three (noise only inflates it). Attacked: median of
  // three — the avoidance serialization itself is phase-dependent, so the
  // median is the representative figure.
  double vanilla = 1e100;
  double attacked_runs[3];
  for (int rep = 0; rep < 3; ++rep) {
    vanilla = std::min(vanilla, workload.RunVanilla());

    VirtualClock clock;
    DimmunixRuntime::Options opts;
    // The FP detector would (correctly!) neutralize the attack over
    // time; Table II measures the raw worst case, so keep it out of the
    // way.
    opts.fp.instantiation_threshold = ~0ULL >> 1;
    DimmunixRuntime runtime(clock, opts);
    for (const auto& sig : signatures) {
      runtime.AddSignature(sig, SignatureOrigin::kRemote);
    }
    attacked_runs[rep] = workload.Run(runtime).seconds;
  }
  std::sort(std::begin(attacked_runs), std::end(attacked_runs));
  return 100.0 * (attacked_runs[1] / vanilla - 1.0);
}

// ---------------------------------------------------------------------------
// Clean-history instrumentation cost: fast path vs global lock.
// ---------------------------------------------------------------------------
struct ModeResult {
  double seconds = 0;
  double acquire_ns = 0;
  double release_ns = 0;
  DimmunixRuntime::Stats stats;
};

ModeResult RunCleanHistory(const TableIIProfile& row, RuntimeMode mode,
                           bool smoke) {
  const auto app = communix::bytecode::GenerateApp(row.app_spec);
  communix::sim::ContendedConfig config = row.workload;
  if (smoke) {
    config.iterations_per_thread =
        std::max(50, config.iterations_per_thread / 20);
  }
  ContendedWorkload workload(app, config);

  VirtualClock clock;
  DimmunixRuntime::Options opts;
  opts.mode = mode;
  DimmunixRuntime runtime(clock, opts);

  PairLatency latency;
  const auto result = workload.Run(runtime, &latency);
  ModeResult out;
  out.seconds = result.seconds;
  out.acquire_ns = latency.acquire.MeanNanos();
  out.release_ns = latency.release.MeanNanos();
  out.stats = result.stats;
  return out;
}

void RunModeComparison(bool smoke, communix::bench::BenchJson& json) {
  communix::bench::PrintHeader(
      "Clean-history instrumentation: fast path vs global lock "
      "(per-op latency histograms)");
  std::printf("%-12s %-11s %12s %12s %10s %12s %12s\n", "app", "mode",
              "acquire ns", "release ns", "seconds", "fast acq", "slow entry");
  for (const auto& row : communix::sim::TableIIProfiles()) {
    for (const RuntimeMode mode :
         {RuntimeMode::kGlobalLock, RuntimeMode::kFastPath}) {
      const char* mode_name =
          mode == RuntimeMode::kFastPath ? "fastpath" : "globallock";
      const ModeResult r = RunCleanHistory(row, mode, smoke);
      std::printf("%-12s %-11s %12.0f %12.0f %10.3f %12llu %12llu\n",
                  row.app_name.c_str(), mode_name, r.acquire_ns, r.release_ns,
                  r.seconds,
                  static_cast<unsigned long long>(
                      r.stats.fast_path_acquisitions),
                  static_cast<unsigned long long>(r.stats.slow_path_entries));
      json.AddRow(
          "clean_latency:" + row.app_name,
          {{"fastpath", mode == RuntimeMode::kFastPath ? 1.0 : 0.0},
           {"acquire_ns", r.acquire_ns},
           {"release_ns", r.release_ns},
           {"seconds", r.seconds},
           {"acquisitions", static_cast<double>(r.stats.acquisitions)},
           {"fast_path_acquisitions",
            static_cast<double>(r.stats.fast_path_acquisitions)},
           {"slow_path_entries",
            static_cast<double>(r.stats.slow_path_entries)}});
    }
  }
  std::printf(
      "\nIn fastpath mode slow-path entries come only from CAS contention;\n"
      "on a multi-core host the global-lock mode convoys every acquisition\n"
      "through one mutex while the fast path scales per-core. (This\n"
      "container may have a single core, where the structural win shows as\n"
      "the slow-path entry count, not wall-clock.)\n");
}

// ---------------------------------------------------------------------------
// Adaptive gate on the candidate-miss DoS workload: one-sided signatures
// (first position on the critical path, second position off it) make
// every acquisition a candidate hit whose instantiation scan must come
// back empty — the worst case for an immunized-but-idle site. The
// adaptive gate should skip those scans entirely.
// ---------------------------------------------------------------------------

void RunAdaptiveComparison(bool smoke, communix::bench::BenchJson& json) {
  communix::bench::PrintHeader(
      "Adaptive avoidance: candidate-miss workload (one-sided signatures, "
      "scan-skip gate)");
  std::printf("%-12s %-9s %12s %10s %12s %12s\n", "app", "adaptive",
              "acquire ns", "seconds", "scans skip", "scans run");
  for (const auto& row : communix::sim::TableIIProfiles()) {
    const auto app = communix::bytecode::GenerateApp(row.app_spec);
    communix::sim::ContendedConfig config = row.workload;
    if (smoke) {
      config.iterations_per_thread =
          std::max(50, config.iterations_per_thread / 20);
    }
    ContendedWorkload workload(app, config);

    // One-sided pairs: position 1 at a site the workload hammers,
    // position 2 at a nested site it never enters.
    const auto& on = workload.sites();
    std::vector<std::int32_t> off(
        app.nested_sites.begin() +
            static_cast<std::ptrdiff_t>(on.size()),
        app.nested_sites.end());
    if (off.empty()) {
      // An app spec whose workload uses every nested site leaves no
      // off-path partner for the one-sided signatures; skip rather than
      // index into an empty pool.
      std::printf("%-12s (skipped: no off-critical nested sites)\n",
                  row.app_name.c_str());
      continue;
    }
    std::vector<communix::dimmunix::Signature> signatures;
    for (std::size_t k = 0; k < kSignatures; ++k) {
      signatures.push_back(communix::sim::MakeCriticalPathSignature(
          app, on[k % on.size()], off[k % off.size()], 5));
    }

    for (const bool adaptive : {false, true}) {
      VirtualClock clock;
      DimmunixRuntime::Options opts;
      opts.mode = RuntimeMode::kFastPath;
      opts.adaptive_avoidance = adaptive;
      opts.fp.instantiation_threshold = ~0ULL >> 1;
      DimmunixRuntime runtime(clock, opts);
      for (const auto& sig : signatures) {
        runtime.AddSignature(sig, SignatureOrigin::kRemote);
      }
      PairLatency latency;
      const auto result = workload.Run(runtime, &latency);
      const auto& s = result.stats;
      std::printf("%-12s %-9s %12.0f %10.3f %12llu %12llu\n",
                  row.app_name.c_str(), adaptive ? "on" : "off",
                  latency.acquire.MeanNanos(), result.seconds,
                  static_cast<unsigned long long>(s.scans_skipped),
                  static_cast<unsigned long long>(s.instantiation_scans));
      json.AddRow(
          "adaptive:" + row.app_name,
          {{"adaptive", adaptive ? 1.0 : 0.0},
           {"acquire_ns", latency.acquire.MeanNanos()},
           {"seconds", result.seconds},
           {"scans_skipped", static_cast<double>(s.scans_skipped)},
           {"instantiation_scans",
            static_cast<double>(s.instantiation_scans)},
           {"sampled_verification_scans",
            static_cast<double>(s.sampled_verification_scans)},
           {"adaptive_gate_mismatches",
            static_cast<double>(s.adaptive_gate_mismatches)},
           {"avoidance_suspensions",
            static_cast<double>(s.avoidance_suspensions)},
           {"slow_path_entries", static_cast<double>(s.slow_path_entries)}});
    }
  }
  std::printf(
      "\nWith the gate on, candidate-hit sites whose peer positions are\n"
      "never occupied skip the instantiation scan (scans skip > 0, scans\n"
      "run ~ 0). Decisions are identical either way — see the\n"
      "schedule-harness equivalence test.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (communix::bench::FlagIs(argv[i], "--smoke")) {
      smoke = true;
    } else if (communix::bench::FlagValue(argv[i], "--json", &json_path)) {
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  communix::bench::BenchJson json("table2_dos_overhead");

  communix::bench::PrintHeader(
      "Table II: worst-case overhead under DoS attack "
      "(20 signatures, outer depth 5, critical path)");
  std::printf("%-12s %-22s %14s %12s %18s %12s\n", "app", "benchmark",
              "paper ovh", "depth5 ovh", "off-critical ovh", "depth1 ovh");
  for (const auto& row : communix::sim::TableIIProfiles()) {
    const double depth5 = MeasureOverheadPct(row, 5, true, smoke);
    const double off = MeasureOverheadPct(row, 5, false, smoke);
    const double depth1 = MeasureOverheadPct(row, 1, true, smoke);
    std::printf("%-12s %-22s %13.0f%% %11.0f%% %17.1f%% %11.0f%%\n",
                row.app_name.c_str(), row.benchmark_name.c_str(),
                row.paper_overhead_pct, depth5, off, depth1);
    json.AddRow("overhead:" + row.app_name,
                {{"paper_overhead_pct", row.paper_overhead_pct},
                 {"depth5_pct", depth5},
                 {"off_critical_pct", off},
                 {"depth1_pct", depth1}});
  }
  std::printf(
      "\npaper: 8-40%% on the critical path at depth 5; <2%% off the\n"
      "critical path; >100%% at depth 1 for some applications. The\n"
      "ordering (JBoss > MySQL JDBC > Eclipse > Limewire > Vuze) and the\n"
      "depth-5 vs depth-1 vs off-path relationships are the reproduced\n"
      "shape; absolute numbers depend on machine and substrate.\n");

  RunModeComparison(smoke, json);
  RunAdaptiveComparison(smoke, json);

  if (!json.WriteToFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
