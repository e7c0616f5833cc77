#include "layers.hpp"

#include "net/message.hpp"

namespace perfbench {

namespace obs = communix::obs;

const std::vector<LayerMetricDef>& LayerMetricDefs() {
  static const std::vector<LayerMetricDef> defs = [] {
    std::vector<LayerMetricDef> d = {
        {"dimmunix.pair_ns.disjoint", "ns"},
        {"dimmunix.pair_ns.shared", "ns"},
        {"dimmunix.vanilla_pair_ns", "ns"},
        {"dimmunix.fast_path_ratio", "ratio"},
        {"dimmunix.slow_path_per_kacq", "count"},
        {"dimmunix.handoffs_per_kacq", "count"},
        {"dimmunix.wait_rounds_per_kacq", "count"},
        {"dimmunix.scan_skip_ratio", "ratio"},
        {"dimmunix.avoidance_suspensions", "count"},
        {"dimmunix.index_republishes", "count"},
        {"dimmunix.detect_us", "us"},
        {"agent.process_ms", "ms"},
        {"agent.validate_us", "us"},
        {"agent.accept_ratio", "ratio"},
        {"agent.merge_ratio", "ratio"},
        {"plugin.upload_us", "us"},
        {"client.poll_us", "us"},
        {"client.empty_polls", "count"},
        {"cluster.ship_round_us", "us"},
        {"cluster.repl_lag_ms", "ms"},
        {"cluster.entries_per_batch", "count"},
    };
    for (const char* verb : {"get", "add", "repl_batch"}) {
      for (std::size_t s = 0; s < obs::kNumStages; ++s) {
        const std::string stage = obs::StageName(static_cast<obs::Stage>(s));
        for (const char* q : {"p50", "p99"}) {
          d.push_back({std::string("server.") + verb + "." + stage + "_" + q +
                           "_us",
                       "us"});
        }
      }
    }
    const std::vector<LayerMetricDef> rest = {
        {"server.trace_sample_ratio", "ratio"},
        {"server.add_accept_ratio", "ratio"},
        {"store.get.cache_hit_ns.p50", "ns"},
        {"store.get.cache_hit_ns.p99", "ns"},
        {"store.get.cache_hit_ns.count", "count"},
        {"store.get.cache_extend_ns.p50", "ns"},
        {"store.get.cache_extend_ns.p99", "ns"},
        {"store.get.cache_extend_ns.count", "count"},
        {"store.get.cold_scan_ns.p50", "ns"},
        {"store.get.cold_scan_ns.p99", "ns"},
        {"store.get.cold_scan_ns.count", "count"},
        {"store.get.empty_replies", "count"},
        {"store.cache_hit_ratio", "ratio"},
        {"store.cache_evictions", "count"},
        {"store.db_size.start", "count"},
        {"store.db_size.end", "count"},
        {"net.client_send_us", "us"},
        {"net.client_wait_us", "us"},
        {"net.bytes_shared_ratio", "ratio"},
        {"net.writev_flushes_per_reply", "count"},
        {"net.backpressure_stalls", "count"},
        {"net.peak_outbound_queue_bytes", "bytes"},
        {"gen.late_p99_us", "us"},
        {"gen.backlog_max", "count"},
        {"trace.overhead_ratio", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

void FillBypassedLayers(Results& results) {
  for (const auto& def : LayerMetricDefs()) {
    if (results.layers().count(def.name) == 0) {
      results.Layer(def.name, 0.0, def.unit, 0);
    }
  }
}

RingSampler::RingSampler(std::shared_ptr<obs::TraceRing> ring)
    : ring_(std::move(ring)), pushed_at_start_(ring_->pushed()) {
  // Records already in the ring predate the phase: mark them seen.
  for (const obs::TraceRecord& r : ring_->Recent(1u << 20)) {
    seen_.emplace(r.start_unix_ns, r.total_ns, r.verb);
  }
}

void RingSampler::Poll() {
  for (const obs::TraceRecord& r : ring_->Recent(1u << 20)) {
    if (seen_.emplace(r.start_unix_ns, r.total_ns, r.verb).second) {
      records_.push_back(r);
    }
  }
}

std::uint64_t RingSampler::pushed_since_start() const {
  return ring_->pushed() - pushed_at_start_;
}

void ReportServerStages(Results& results, const std::string& verb_name,
                        std::uint8_t verb,
                        const std::vector<obs::TraceRecord>& records) {
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    Samples v;
    for (const auto& r : records) {
      if (r.verb == verb) v.Add(static_cast<double>(r.stage_ns[s]) / 1e3);
    }
    const std::string base = "server." + verb_name + "." +
                             obs::StageName(static_cast<obs::Stage>(s));
    if (v.empty()) continue;
    results.Layer(base + "_p50_us", v.Quantile(0.5), "us", v.count());
    results.Layer(base + "_p99_us", v.Quantile(0.99), "us", v.count());
  }
}

ServerView CaptureServer(const communix::CommunixServer& server,
                         const communix::net::TcpServer& tcp) {
  ServerView v;
  v.snap = server.metrics()->Snapshot();
  v.stats = server.GetStats();
  v.tcp = tcp.GetStats();
  v.cache = server.read_cache_stats();
  v.db_size = server.db_size();
  return v;
}

obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      const std::string& name) {
  obs::HistogramSnapshot out;
  const obs::HistogramSnapshot* a = after.FindHistogram(name);
  if (a == nullptr) return out;
  out = *a;
  if (const obs::HistogramSnapshot* b = before.FindHistogram(name)) {
    out.count -= b->count;
    out.sum_ns -= b->sum_ns;
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] -= b->buckets[i];
    }
  }
  return out;
}

void ReportStore(Results& results, const ServerView& before,
                 const ServerView& after) {
  for (const char* path : {"cache_hit", "cache_extend", "cold_scan"}) {
    const obs::HistogramSnapshot h = HistogramDelta(
        before.snap, after.snap, std::string("server.get.") + path + "_ns");
    const std::string base = std::string("store.get.") + path + "_ns";
    if (h.count > 0) {
      results.Layer(base + ".p50", static_cast<double>(h.ApproxQuantile(0.5)),
                    "ns", h.count);
      results.Layer(base + ".p99", static_cast<double>(h.ApproxQuantile(0.99)),
                    "ns", h.count);
    }
    results.Layer(base + ".count", static_cast<double>(h.count), "count",
                  h.count);
  }
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  if (hits + misses > 0) {
    results.Layer("store.cache_hit_ratio", hits / (hits + misses), "ratio",
                  static_cast<std::uint64_t>(hits + misses));
  }
  results.Layer("store.cache_evictions",
                static_cast<double>(after.cache.evictions -
                                    before.cache.evictions),
                "count", 1);
  results.Layer("store.db_size.start", static_cast<double>(before.db_size),
                "count", 1);
  results.Layer("store.db_size.end", static_cast<double>(after.db_size),
                "count", 1);
}

void ReportNetServer(Results& results, const ServerView& before,
                     const ServerView& after) {
  const double shared = static_cast<double>(after.stats.reply_bytes_shared -
                                            before.stats.reply_bytes_shared);
  const double copied = static_cast<double>(after.stats.reply_bytes_copied -
                                            before.stats.reply_bytes_copied);
  if (shared + copied > 0) {
    results.Layer("net.bytes_shared_ratio", shared / (shared + copied),
                  "ratio", 1);
  }
  const double replies = static_cast<double>(
      (after.stats.gets_served - before.stats.gets_served) +
      (after.stats.repl_batches_applied - before.stats.repl_batches_applied) +
      (after.stats.repl_pulls_served - before.stats.repl_pulls_served));
  const double flushes =
      static_cast<double>(after.tcp.writev_flushes - before.tcp.writev_flushes);
  if (replies > 0) {
    results.Layer("net.writev_flushes_per_reply", flushes / replies, "count",
                  static_cast<std::uint64_t>(replies));
  }
  results.Layer("net.backpressure_stalls",
                static_cast<double>(after.tcp.backpressure_stalls -
                                    before.tcp.backpressure_stalls),
                "count", 1);
  results.Layer("net.peak_outbound_queue_bytes",
                static_cast<double>(after.tcp.peak_outbound_queue_bytes),
                "bytes", 1);
}

}  // namespace perfbench
