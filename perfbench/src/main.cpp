// Benchmark entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--meta KEY=VALUE]...
//
// Runs one workload against the in-process Communix deployment, checks
// every output, prints the workload's metrics (name, value, unit, sample
// count) as '#' lines and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the gated end-to-end ones; with
// --trace 1 they are the per-layer ones of the traced run. Run files
// (results.json, spans.jsonl, *.metrics.json snapshots) go to
// DIR/<workload>-seed<N>-trace<T>/. Exits non-zero if any check failed
// or the run was invalid.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "params.hpp"
#include "report.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::JsonEscape;
using perfbench::Metric;

bool MakeDirs(const std::string& path) {
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty() && ::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) cur += path[i];
  }
  return true;
}

std::string Num(double v) {
  if (!(v == v)) return "0";  // NaN: no samples
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& m,
                        bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + JsonEscape(metric.unit) + "\"";
    if (with_samples) out += ", \"samples\": " + std::to_string(metric.samples);
    out += "}";
  }
  return out + "}";
}

std::string WorkloadParams(const std::string& w) {
  namespace P = perfbench::params;
  char buf[512];
  if (w == "fleet_sync") {
    std::snprintf(buf, sizeof(buf),
                  "{\"loop\": \"open\", \"day_seconds\": %g, "
                  "\"daemons\": %zu, \"poll_rate_per_s\": %g, "
                  "\"adds_per_day\": %g, \"add_rate_per_s\": %g, "
                  "\"bootstrap_rate_per_s\": %g, "
                  "\"poll_p90_limit_us\": %g, \"preload_signatures\": %zu}",
                  P::kSyncDaySeconds, P::kSyncDaemons, P::kSyncPollRate,
                  P::kSyncAddsPerDay, P::kSyncAddRate, P::kSyncBootstrapRate,
                  P::kSyncPollLimitUs, P::kSyncPreloadUsers * 10);
  } else if (w == "app_locks") {
    std::snprintf(buf, sizeof(buf),
                  "{\"loop\": \"closed\", \"threads\": %u, "
                  "\"repository_signatures\": %zu}",
                  P::AppThreads(), P::kAppRepository);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"loop\": \"closed\", \"concurrency\": 1, "
                  "\"recycle_every\": %zu}",
                  P::kImmunityRecycle);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string out_root = ".bench_out";
  std::vector<std::pair<std::string, std::string>> meta;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--out") {
      out_root = value();
    } else if (a == "--meta") {
      const std::string kv = value();
      const auto eq = kv.find('=');
      if (eq != std::string::npos) {
        meta.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      }
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const std::vector<std::string> known = {"fleet_sync", "app_locks",
                                          "immunity"};
  if (std::find(known.begin(), known.end(), opt.workload) == known.end() ||
      !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {fleet_sync|app_locks|"
                 "immunity} --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  opt.out_dir = out_root + "/" + opt.workload + "-seed" +
                std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0");
  if (!MakeDirs(opt.out_dir)) {
    std::fprintf(stderr, "cannot create %s\n", opt.out_dir.c_str());
    return 2;
  }

  std::string meta_json = "{\"workload\": \"" + opt.workload +
                          "\", \"seed\": " + std::to_string(opt.seed) +
                          ", \"seconds\": " + Num(opt.seconds) +
                          ", \"trace\": " + (opt.trace ? "true" : "false") +
                          ", \"nproc\": " +
                          std::to_string(std::thread::hardware_concurrency()) +
                          ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                          "\", \"compiler\": \"" +
                          JsonEscape(__VERSION__) +
                          "\", \"transport\": \"loopback TCP\", \"params\": " +
                          WorkloadParams(opt.workload);
  for (const auto& [k, v] : meta) {
    meta_json += ", \"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
  }
  meta_json += "}";
  std::printf("# meta %s\n", meta_json.c_str());
  std::fflush(stdout);

  perfbench::Results res;
  int rc = 0;
  if (opt.workload == "fleet_sync") {
    rc = perfbench::RunFleet(opt, res);
  } else if (opt.workload == "app_locks") {
    rc = perfbench::RunAppLocks(opt, res);
  } else {
    rc = perfbench::RunImmunity(opt, res);
  }
  if (rc != 0) {
    std::fprintf(stderr, "workload %s could not run\n", opt.workload.c_str());
    return rc;
  }
  const double error_ratio =
      res.attempted() == 0
          ? 1.0
          : static_cast<double>(res.failed()) /
                static_cast<double>(res.attempted());
  res.EndToEnd("error_ratio", error_ratio, "failed/attempted", res.attempted());
  if (opt.trace) perfbench::FillBypassedLayers(res);

  for (const auto& [name, m] : res.end_to_end()) {
    std::printf("# e2e %-22s %14.4f %-16s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& [name, m] : res.layers()) {
    std::printf("# layer %-36s %14.4f %-8s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& [k, v] : res.notes()) {
    std::printf("# note %s: %s\n", k.c_str(), v.c_str());
  }
  for (const auto& f : res.failures()) std::printf("# FAILED %s\n", f.c_str());
  for (const auto& r : res.invalid_reasons()) {
    std::printf("# INVALID %s\n", r.c_str());
  }

  std::string notes = "{";
  bool first = true;
  for (const auto& [k, v] : res.notes()) {
    notes += (first ? "\"" : ", \"") + JsonEscape(k) + "\": \"" +
             JsonEscape(v) + "\"";
    first = false;
  }
  notes += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < res.failures().size(); ++i) {
    failures += (i ? ", \"" : "\"") + JsonEscape(res.failures()[i]) + "\"";
  }
  failures += "]";
  std::string invalid = "[";
  for (std::size_t i = 0; i < res.invalid_reasons().size(); ++i) {
    invalid += (i ? ", \"" : "\"") + JsonEscape(res.invalid_reasons()[i]) +
               "\"";
  }
  invalid += "]";
  const bool correct = res.failed() == 0 && res.valid();
  if (std::FILE* f = std::fopen((opt.out_dir + "/results.json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"meta\": %s,\n \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu,\n \"failures\": %s,\n \"invalid\": %s,\n"
                 " \"notes\": %s,\n \"end_to_end\": %s,\n \"gated\": %s,\n"
                 " \"per_layer\": %s}\n",
                 meta_json.c_str(), correct ? "true" : "false",
                 static_cast<unsigned long long>(res.attempted()),
                 static_cast<unsigned long long>(res.failed()),
                 failures.c_str(), invalid.c_str(), notes.c_str(),
                 MetricsJson(res.end_to_end(), true).c_str(),
                 MetricsJson(res.gated(), true).c_str(),
                 MetricsJson(res.layers(), true).c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted()),
              static_cast<unsigned long long>(res.failed()),
              MetricsJson(opt.trace ? res.layers() : res.gated(), false)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
