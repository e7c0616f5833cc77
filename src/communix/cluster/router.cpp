#include "communix/cluster/router.hpp"

#include <chrono>

namespace communix::cluster {

namespace {

std::uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

bool ShardRouter::Install(const ShardMap& map) {
  if (!map.Valid()) return false;
  std::lock_guard lock(mu_);
  if (map_ && map.version <= map_->version) return false;
  map_ = std::make_shared<const ShardMap>(map);
  return true;
}

std::shared_ptr<const ShardMap> ShardRouter::map() const {
  std::lock_guard lock(mu_);
  return map_;
}

std::uint64_t ShardRouter::version() const {
  std::lock_guard lock(mu_);
  return map_ ? map_->version : 0;
}

std::uint64_t ShardRouter::GroupFor(CommunityId community) const {
  const auto m = map();
  return m ? m->GroupFor(community) : 0;
}

MultiGroupClient::MultiGroupClient(std::vector<Group> groups, Options options)
    : groups_(std::move(groups)),
      options_(options),
      metrics_(options.metrics ? options.metrics
                               : std::make_shared<obs::MetricsRegistry>()) {
  stats_probe_ = metrics_->RegisterProbe([this](obs::ProbeSink& sink) {
    obs::EmitStats(sink, "router.", GetStats());
  });
}

ClusterClient* MultiGroupClient::ClientForGroup(std::uint64_t group_id) {
  for (const Group& g : groups_) {
    if (g.group_id == group_id) return g.client;
  }
  return nullptr;
}

ClusterClient* MultiGroupClient::PickGroup(CommunityId community,
                                           std::uint64_t* group_id) {
  const std::uint64_t owner = router_.GroupFor(community);
  if (owner != 0) {
    if (ClusterClient* c = ClientForGroup(owner)) {
      *group_id = owner;
      return c;
    }
  }
  // No map yet (or the map names a group this client has no endpoints
  // for — a deployment skew the first bounce will correct): fall back to
  // the first group rather than failing outright.
  if (groups_.empty()) return nullptr;
  if (owner == 0) {
    std::lock_guard lock(mu_);
    ++stats_.routed_without_map;
  }
  *group_id = groups_.front().group_id;
  return groups_.front().client;
}

bool MultiGroupClient::RefreshFromGroup(ClusterClient& client) {
  {
    std::lock_guard lock(mu_);
    ++stats_.map_refreshes;
  }
  auto result = client.Call(BuildShardMapRequest(router_.version()));
  if (!result.ok() || !result.value().ok()) return false;
  const auto reply = ParseShardMapReply(result.value());
  if (!reply || !reply->map.has_value()) return false;
  if (!router_.Install(*reply->map)) return false;
  std::lock_guard lock(mu_);
  ++stats_.map_installs;
  return true;
}

Status MultiGroupClient::RefreshShardMap() {
  if (groups_.empty()) {
    return Status::Error(ErrorCode::kFailedPrecondition, "no groups");
  }
  const std::uint64_t before = router_.version();
  for (const Group& g : groups_) {
    if (RefreshFromGroup(*g.client)) return Status::Ok();
  }
  // Every group answered "nothing newer than yours" — that is success
  // too, as long as somebody answered at all and we hold a map.
  if (router_.version() >= before && router_.version() != 0) {
    return Status::Ok();
  }
  return Status::Error(ErrorCode::kUnavailable, "no group served a shard map");
}

Result<net::Response> MultiGroupClient::CallFor(CommunityId community,
                                                const net::Request& request) {
  const bool is_add = request.type == net::MsgType::kAddSignature ||
                      request.type == net::MsgType::kAddBatch;
  const bool is_get = request.type == net::MsgType::kGetSignatures;
  const auto start = std::chrono::steady_clock::now();

  // Lazy bootstrap: the first call of a fresh client pulls a map before
  // routing (best-effort — a mapless single group still works).
  if (router_.version() == 0 && groups_.size() > 1) {
    (void)RefreshShardMap();
  }

  Result<net::Response> result =
      Status::Error(ErrorCode::kUnavailable, "no route");
  for (std::size_t attempt = 0;; ++attempt) {
    std::uint64_t group_id = 0;
    ClusterClient* client = PickGroup(community, &group_id);
    if (client == nullptr) {
      return Status::Error(ErrorCode::kFailedPrecondition,
                           "multi-group client has no groups");
    }
    result = client->Call(request);
    if (!result.ok()) break;
    const auto hint = ParseWrongGroupHint(result.value());
    if (!hint) break;  // not a bounce: done (success or ordinary error)
    {
      std::lock_guard lock(mu_);
      ++stats_.wrong_group_bounces;
    }
    if (attempt >= options_.max_bounce_retries) break;
    // The bouncing group holds a map at least as new as the hint's
    // version, so refresh from it specifically — guaranteed progress
    // (our version strictly grows) rather than asking a possibly-stale
    // bystander. If even that fails (raced another bump, group went
    // down), the next attempt re-picks under whatever map we have.
    if (!RefreshFromGroup(*client) &&
        router_.version() < hint->map_version) {
      (void)RefreshShardMap();
    }
  }

  if (result.ok()) {
    TenantLatency& lat = TenantSlot(community);
    if (is_add) lat.add->Report(NanosSince(start));
    if (is_get) lat.get->Report(NanosSince(start));
  }
  return result;
}

Result<std::vector<std::vector<std::uint8_t>>> MultiGroupClient::FetchSince(
    CommunityId community, std::uint64_t from) {
  if (router_.version() == 0 && groups_.size() > 1) {
    (void)RefreshShardMap();
  }
  std::uint64_t group_id = 0;
  ClusterClient* client = PickGroup(community, &group_id);
  if (client == nullptr) {
    return Status::Error(ErrorCode::kFailedPrecondition,
                         "multi-group client has no groups");
  }
  const auto start = std::chrono::steady_clock::now();
  auto result = client->FetchSince(from);
  if (result.ok()) {
    TenantSlot(community).get->Report(NanosSince(start));
  }
  return result;
}

net::ClientTransport& MultiGroupClient::TransportFor(CommunityId community) {
  std::lock_guard lock(mu_);
  auto& slot = transports_[community];
  if (!slot) slot = std::make_unique<CommunityTransport>(this, community);
  return *slot;
}

MultiGroupClient::TenantLatency& MultiGroupClient::TenantSlot(
    CommunityId community) {
  std::lock_guard lock(mu_);
  TenantLatency& slot = latency_[community];
  if (slot.add == nullptr) {
    const std::string prefix =
        "router.tenant." + std::to_string(community) + ".";
    slot.add = metrics_->GetHistogram(prefix + "add_ns");
    slot.get = metrics_->GetHistogram(prefix + "get_ns");
  }
  return slot;
}

const MultiGroupClient::TenantLatency& MultiGroupClient::TenantLatencyFor(
    CommunityId community) {
  return TenantSlot(community);
}

MultiGroupClient::Stats MultiGroupClient::GetStats() const {
  std::lock_guard lock(mu_);
  Stats out = stats_;
  out.map_version = router_.version();  // the router's own leaf lock
  return out;
}

}  // namespace communix::cluster
