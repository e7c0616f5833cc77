// Routing tier of the multi-tenant deployment (shard_map.hpp is the
// placement function; this is the machinery around it).
//
// ShardRouter — a version-gated cache of the current ShardMap. Install
// is accepted only for strictly newer versions, GroupFor is a pointer
// load plus the HRW computation; every client-side component shares one
// router so a single refresh heals all of them.
//
// MultiGroupClient — one logical client over G replicated primary
// groups. Each group keeps its own ClusterClient (failover, the
// monotonic-read floor and the delta-fetch cache all work per group,
// unchanged); this layer only decides WHICH group a request belongs to:
//
//   * CallFor(community, req) routes to the community's owner group
//     under the cached map. If the server bounces with kWrongGroup
//     (the client's map was stale), the client refreshes its map from
//     the bouncing group — which, by construction, holds the newer
//     version the hint names — and retries against the new owner. A
//     configuration change therefore needs no push: the first misrouted
//     write self-heals, and every later request uses the new map.
//   * FetchSince(community, from) runs the owning group's delta-fetch
//     read path. GETs carry no sender and are never bounced; reads
//     follow the map the writes keep fresh.
//   * TransportFor(community) is a net::ClientTransport view pinned to
//     one community, so single-tenant components (CommunixClient,
//     CommunixPlugin) run over the sharded tier unchanged.
//
// Per-tenant ADD/GET latency histograms (obs::Histogram, power-of-two
// buckets) hang off this layer because it is the one place that knows
// the tenant of every request — the DoS-containment check reads a
// victim's p99 here while a neighbor floods.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "communix/cluster/cluster_client.hpp"
#include "communix/cluster/shard_map.hpp"
#include "communix/ids.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace communix::cluster {

/// Version-gated shared cache of the current shard map. Thread-safe.
class ShardRouter {
 public:
  /// Adopts `map` iff it is valid and strictly newer. Returns whether it
  /// was adopted.
  bool Install(const ShardMap& map);

  /// Current map (nullptr before the first install).
  std::shared_ptr<const ShardMap> map() const;
  std::uint64_t version() const;

  /// Owner group id for `community` under the current map; 0 if no map
  /// is installed yet.
  std::uint64_t GroupFor(CommunityId community) const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ShardMap> map_;
};

class MultiGroupClient {
 public:
  struct Group {
    std::uint64_t group_id = 0;
    ClusterClient* client = nullptr;  // not owned
  };

  struct Options {
    /// kWrongGroup refresh+retry attempts per call before giving up.
    /// Each retry is preceded by a map refresh from the bouncing group,
    /// so under any finite sequence of map bumps the loop terminates.
    std::size_t max_bounce_retries = 3;
    /// Registry receiving the per-tenant histograms
    /// (router.tenant.<id>.{add,get}_ns) and routing counters
    /// (router.*); null gives the client a private registry.
    std::shared_ptr<obs::MetricsRegistry> metrics;
  };

  explicit MultiGroupClient(std::vector<Group> groups)
      : MultiGroupClient(std::move(groups), Options{}) {}
  MultiGroupClient(std::vector<Group> groups, Options options);

  MultiGroupClient(const MultiGroupClient&) = delete;
  MultiGroupClient& operator=(const MultiGroupClient&) = delete;

  /// Routes `request` on behalf of `community` (the tenant of the sender
  /// whose token the payload carries — tokens are opaque to clients, so
  /// the community must be stated). Self-heals across kWrongGroup
  /// bounces as described in the header comment.
  Result<net::Response> CallFor(CommunityId community,
                                const net::Request& request);

  /// Delta-fetching read of the community's signature stream (the owner
  /// group's ClusterClient::FetchSince).
  Result<std::vector<std::vector<std::uint8_t>>> FetchSince(
      CommunityId community, std::uint64_t from);

  /// Pulls the newest map any group will serve (version-gated install).
  /// Called lazily by CallFor when no map is cached yet; callable
  /// directly to pre-warm.
  Status RefreshShardMap();

  /// Out-of-band install (deployment bootstrap, tests). Version-gated.
  bool InstallShardMap(const ShardMap& map) { return router_.Install(map); }
  std::uint64_t map_version() const { return router_.version(); }
  const ShardRouter& router() const { return router_; }

  /// A ClientTransport pinned to `community`: Call(req) ==
  /// CallFor(community, req). Stable for the client's lifetime.
  net::ClientTransport& TransportFor(CommunityId community);

  struct Stats {
    std::uint64_t wrong_group_bounces = 0;  // kWrongGroup replies seen
    std::uint64_t map_refreshes = 0;        // kShardMap fetches issued
    std::uint64_t map_installs = 0;         // refreshes that adopted a map
    std::uint64_t routed_without_map = 0;   // calls sent before any map
    std::uint64_t map_version = 0;          // gauge: installed map version

    template <typename Fn, typename... S>
    static void ForEach(Fn&& fn, S&&... s) {
      using enum obs::MetricKind;
      fn(kCounter, "wrong_group_bounces", s.wrong_group_bounces...);
      fn(kCounter, "map_refreshes", s.map_refreshes...);
      fn(kCounter, "map_installs", s.map_installs...);
      fn(kCounter, "routed_without_map", s.routed_without_map...);
      fn(kGauge, "map_version", s.map_version...);
    }
  };
  Stats GetStats() const;

  /// Per-tenant latency distributions, registry-backed (created on first
  /// use as router.tenant.<id>.{add,get}_ns — one kStats snapshot shows
  /// every tenant a client touched). Pointers are stable for the
  /// registry's lifetime and never null.
  struct TenantLatency {
    obs::Histogram* add = nullptr;  // kAddSignature / kAddBatch round trips
    obs::Histogram* get = nullptr;  // kGetSignatures / FetchSince round trips
  };
  /// Snapshot handle; valid for the client's lifetime.
  const TenantLatency& TenantLatencyFor(CommunityId community);

  /// The registry the client reports into (never null).
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

 private:
  class CommunityTransport final : public net::ClientTransport {
   public:
    CommunityTransport(MultiGroupClient* parent, CommunityId community)
        : parent_(parent), community_(community) {}
    Result<net::Response> Call(const net::Request& request) override {
      return parent_->CallFor(community_, request);
    }

   private:
    MultiGroupClient* parent_;
    CommunityId community_;
  };

  /// Group for `community` under the cached map; falls back to the first
  /// group when no map is installed (single-group deployments work with
  /// no map at all).
  ClusterClient* PickGroup(CommunityId community, std::uint64_t* group_id);
  ClusterClient* ClientForGroup(std::uint64_t group_id);
  /// kShardMap round trip against one group's client; installs on
  /// success. Returns whether a strictly newer map was adopted.
  bool RefreshFromGroup(ClusterClient& client);
  TenantLatency& TenantSlot(CommunityId community);

  const std::vector<Group> groups_;
  const Options options_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  ShardRouter router_;

  mutable std::mutex mu_;  // stats + lazily-built per-community state
  Stats stats_;  // GetStats fills in map_version
  std::unordered_map<CommunityId, std::unique_ptr<CommunityTransport>>
      transports_;
  std::unordered_map<CommunityId, TenantLatency> latency_;
  /// Snapshot-time export of Stats (router.*); declared after the state
  /// it reads so it is released first.
  obs::ProbeHandle stats_probe_;
};

}  // namespace communix::cluster
