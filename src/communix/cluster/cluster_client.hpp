// Failover-aware client transport for a replicated deployment.
//
// One logical endpoint over a primary plus N follower replicas:
//
//   * Writes (ADD / ADD_BATCH) go to the primary — it alone assigns the
//     global log order.
//   * Reads (GET / PING / ISSUE_ID / REPL_PULL probes) fan out
//     round-robin across the replicas, falling back to the primary, and
//     fail over on connection loss: a transport error marks the endpoint
//     down, the next endpoint is tried within the same Call, and a later
//     success marks it up again (down endpoints are retried last, which
//     is how they heal after a restart).
//
// Cursor stability. GET(k) replies are byte-identical across replicas of
// the same epoch (the log-shipping invariant), so failing over can never
// rewrite history — but a lagging replica can answer with a shorter
// database. The client therefore tracks the highest committed length it
// has ever observed and, for GET requests that would *regress* below it
// (a fresh scan answered by a stale replica), retries the remaining
// endpoints until one covers the known length; replicas whose epoch
// provably differs from the primary's are skipped for reads outright.
// Incremental GET(k) cursors built on replies from this client are thus
// monotone: they never observe index i holding two different byte
// strings, and never see the stream shrink.
//
// Delta fetching. FetchSince keeps a client-side 2Q cache of decoded
// reply slices keyed by cursor. A cached fetch first issues a cheap
// kReplPull probe (epoch + committed length): if the length still
// matches the cached slice, the reply is served with zero data
// transfer; if the log grew, only the suffix [cached_upto, size) is
// fetched and spliced onto the cached prefix — O(new entries), not
// O(db), per poll. The splice is sound for the same reason failover
// is: same-epoch replies are byte-identical. The cache is invalidated
// (generation bump) whenever that reasoning could lapse: the probed
// epoch changes (compaction / lineage reset), an endpoint goes down
// mid-call, or a short read was served.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "communix/store/read_cache.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace communix::cluster {

class ClusterClient final : public net::ClientTransport {
 public:
  struct Endpoint {
    std::string name;
    net::ClientTransport* transport = nullptr;
  };

  struct Options {
    /// FetchSince slice-cache capacity (2Q resident slices); 0 disables
    /// delta fetching (every FetchSince is a full GET).
    std::size_t read_cache_slices = 64;
    /// Down-endpoint revival backoff: probe one down endpoint every Kth
    /// successful read, not every read. Probing a dead node costs a
    /// connect timeout over TCP, so an unthrottled probe-per-read taxes
    /// the whole read path for as long as a node stays dead. 1 restores
    /// the old probe-every-read behavior; 0 is treated as 1.
    std::size_t heal_probe_period = 8;
  };

  ClusterClient(Endpoint primary, std::vector<Endpoint> replicas)
      : ClusterClient(std::move(primary), std::move(replicas), Options{}) {}
  ClusterClient(Endpoint primary, std::vector<Endpoint> replicas,
                Options options);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Routes one request per the policy above. Transport-level failure is
  /// returned only when every eligible endpoint failed.
  Result<net::Response> Call(const net::Request& request) override;

  /// GET(from) convenience: serialized signatures with index >= from, in
  /// index order (the CommunixClient daemon codepath, minus the repo).
  /// Delta-fetching: see the header comment — repeat polls of the same
  /// cursor cost a probe plus the new suffix, not a full transfer.
  Result<std::vector<std::vector<std::uint8_t>>> FetchSince(
      std::uint64_t from);

  /// Highest committed length any reply has shown this client (the
  /// monotonic-read floor).
  std::uint64_t known_log_size() const {
    return known_log_size_.load(std::memory_order_acquire);
  }

  struct Stats {
    std::uint64_t writes_to_primary = 0;
    std::uint64_t reads_to_replicas = 0;
    std::uint64_t reads_to_primary = 0;
    std::uint64_t failovers = 0;          // endpoint marked down mid-call
    std::uint64_t stale_read_retries = 0; // regressing replies discarded
    /// Calls that had to settle for a reply below the known length
    /// (every live endpoint lagged — primary dead and replicas behind).
    std::uint64_t short_reads = 0;
    std::uint64_t epoch_skips = 0;        // replicas skipped: epoch mismatch
    std::uint64_t cache_hits = 0;         // FetchSince served a cached prefix
    std::uint64_t cache_delta_fetches = 0;  // of which: suffix GET issued
    std::uint64_t cache_invalidations = 0;  // client-side generation bumps
    /// Revival probes actually sent to down endpoints (throttled by
    /// Options::heal_probe_period).
    std::uint64_t heal_probes = 0;
    /// Gauge: endpoints not currently marked down.
    std::uint64_t endpoints_up = 0;

    template <typename Fn, typename... S>
    static void ForEach(Fn&& fn, S&&... s) {
      using enum obs::MetricKind;
      fn(kCounter, "writes_to_primary", s.writes_to_primary...);
      fn(kCounter, "reads_to_replicas", s.reads_to_replicas...);
      fn(kCounter, "reads_to_primary", s.reads_to_primary...);
      fn(kCounter, "failovers", s.failovers...);
      fn(kCounter, "stale_read_retries", s.stale_read_retries...);
      fn(kCounter, "short_reads", s.short_reads...);
      fn(kCounter, "epoch_skips", s.epoch_skips...);
      fn(kCounter, "cache_hits", s.cache_hits...);
      fn(kCounter, "cache_delta_fetches", s.cache_delta_fetches...);
      fn(kCounter, "cache_invalidations", s.cache_invalidations...);
      fn(kCounter, "heal_probes", s.heal_probes...);
      fn(kGauge, "endpoints_up", s.endpoints_up...);
    }
  };
  Stats GetStats() const;

  /// Registers a snapshot-time probe emitting every GetStats() field as
  /// cluster.client.<name>. Release the handle before destroying the
  /// client.
  [[nodiscard]] obs::ProbeHandle ExportStats(
      obs::MetricsRegistry& registry) const;

  /// Per-endpoint liveness snapshot (index 0 = primary).
  std::vector<bool> EndpointUp() const;

 private:
  struct Slot {
    Endpoint endpoint;
    bool down = false;
    /// Last epoch this endpoint reported (0 = unknown). Probed lazily
    /// via kReplPull; re-probed after the endpoint comes back up.
    std::uint64_t epoch = 0;
  };

  /// Calls `slot` (primary lock dropped during I/O is unnecessary here:
  /// transports are synchronous and callers already serialize on mu_).
  Result<net::Response> CallSlotLocked(Slot& slot,
                                       const net::Request& request);

  /// Ensures slot.epoch is known (kReplPull probe). Best-effort.
  void ProbeEpochLocked(Slot& slot);

  /// Opportunistic revival: probes one down endpoint (round-robin) so a
  /// restarted node rejoins the fan-out instead of staying excluded
  /// forever. Invoked from the read path every heal_probe_period-th
  /// successful read (see MaybeHealLocked).
  void HealOneDownEndpointLocked();

  /// Backoff gate in front of HealOneDownEndpointLocked: probes fire on
  /// every Kth successful read while something is down. The counter only
  /// advances while a down endpoint exists, so the first probe after a
  /// failure happens K reads later, then every K — never one per read.
  void MaybeHealLocked();

  /// Reply-derived committed length for a GET reply, if parseable.
  static bool GetCoverage(const net::Request& request,
                          const net::Response& resp, std::uint64_t* coverage,
                          std::uint64_t* from, std::uint32_t* count);

  /// Bumps the slice-cache generation (every cached slice dies on its
  /// next access). Caller holds mu_.
  void InvalidateCacheLocked();

  /// One routed GET(from) plus reply parse; on success appends the
  /// decoded signatures to `out` and returns the slice region
  /// (count-stripped payload) via `payload`/`count`.
  Status FetchRange(std::uint64_t from,
                    std::vector<std::vector<std::uint8_t>>* out,
                    std::vector<std::uint8_t>* payload, std::uint32_t* count);

  const std::size_t heal_probe_period_;

  mutable std::mutex mu_;
  std::vector<Slot> slots_;  // [0] = primary, [1..] = replicas
  std::size_t rr_ = 0;       // round-robin origin over replicas
  std::size_t heal_rr_ = 0;  // round-robin origin over down endpoints
  std::size_t reads_since_heal_ = 0;  // backoff counter (guarded by mu_)
  Stats stats_;  // guarded by mu_; GetStats fills in endpoints_up

  std::atomic<std::uint64_t> known_log_size_{0};

  // ---- FetchSince delta-fetch cache ----
  const bool cache_enabled_;
  mutable store::ReadCache cache_;        // internally locked
  std::uint64_t cache_generation_ = 1;    // guarded by mu_
  /// Primary lineage the current generation's slices were built under
  /// (0 = not yet observed).
  std::uint64_t cache_epoch_ = 0;         // guarded by mu_
};

}  // namespace communix::cluster
