// Per-layer metrics of the traced run, and the readers that turn the
// program's exported counters, histograms and trace rings into them.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "communix/server.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace perfbench {

struct LayerMetricDef {
  std::string name;
  std::string unit;
};

/// Every per-layer metric the traced run reports, in output order. A
/// workload that bypasses a layer reports its metrics as 0 with 0
/// samples (the layer did no work).
const std::vector<LayerMetricDef>& LayerMetricDefs();

/// Fills every per-layer metric the workload did not set with 0.
void FillBypassedLayers(Results& results);

/// Collects TraceRing records while a phase runs. The ring keeps only
/// the most recent requests, so it is polled often and records are
/// de-duplicated; the share of pushed records captured is reported as
/// server.trace_sample_ratio.
class RingSampler {
 public:
  explicit RingSampler(std::shared_ptr<communix::obs::TraceRing> ring);
  void Poll();
  const std::vector<communix::obs::TraceRecord>& records() const {
    return records_;
  }
  std::uint64_t pushed_since_start() const;

 private:
  std::shared_ptr<communix::obs::TraceRing> ring_;
  std::uint64_t pushed_at_start_ = 0;
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint8_t>> seen_;
  std::vector<communix::obs::TraceRecord> records_;
};

/// server.<verb>.<stage>_p50_us / _p99_us over `records` of `verb`.
void ReportServerStages(Results& results, const std::string& verb_name,
                        std::uint8_t verb,
                        const std::vector<communix::obs::TraceRecord>& records);

/// A before/after view of one server process (server + its TCP tier).
struct ServerView {
  communix::obs::MetricsSnapshot snap;
  communix::CommunixServer::Stats stats;
  communix::net::TcpServer::Stats tcp;
  communix::store::ReadCache::Stats cache;
  std::uint64_t db_size = 0;
};
ServerView CaptureServer(const communix::CommunixServer& server,
                         const communix::net::TcpServer& tcp);

/// store.* metrics from the GET-path histograms and cache counters of
/// the server that served the reads.
void ReportStore(Results& results, const ServerView& before,
                 const ServerView& after);
/// net.* server-side metrics of the server that served the reads.
void ReportNetServer(Results& results, const ServerView& before,
                     const ServerView& after);

/// Difference of two snapshots of one histogram (after - before).
communix::obs::HistogramSnapshot HistogramDelta(
    const communix::obs::MetricsSnapshot& before,
    const communix::obs::MetricsSnapshot& after, const std::string& name);

}  // namespace perfbench
