#include "communix/cluster/cluster_client.hpp"

#include <algorithm>

#include "util/serde.hpp"

namespace communix::cluster {

namespace {

bool IsWrite(net::MsgType type) {
  return type == net::MsgType::kAddSignature ||
         type == net::MsgType::kAddBatch ||
         type == net::MsgType::kReplBatch ||
         type == net::MsgType::kMarkSuperseded;
}

}  // namespace

ClusterClient::ClusterClient(Endpoint primary, std::vector<Endpoint> replicas,
                             Options options)
    : heal_probe_period_(std::max<std::size_t>(options.heal_probe_period, 1)),
      cache_enabled_(options.read_cache_slices > 0),
      cache_(std::max<std::size_t>(options.read_cache_slices, 1)) {
  slots_.push_back(Slot{std::move(primary), false, 0});
  for (Endpoint& e : replicas) {
    slots_.push_back(Slot{std::move(e), false, 0});
  }
}

void ClusterClient::InvalidateCacheLocked() {
  if (!cache_enabled_) return;
  ++cache_generation_;
  ++stats_.cache_invalidations;
}

Result<net::Response> ClusterClient::CallSlotLocked(
    Slot& slot, const net::Request& request) {
  auto result = slot.endpoint.transport->Call(request);
  if (!result.ok()) {
    if (!slot.down) {
      ++stats_.failovers;  // count down-transitions, not retries
      // A failover mid-fetch voids any splice in flight: the endpoint
      // that built a cached prefix may be gone, and the conservative
      // move is to rebuild from a full reply.
      InvalidateCacheLocked();
    }
    slot.down = true;
    slot.epoch = 0;  // a node that comes back may have a new lineage
  } else if (slot.down) {
    slot.down = false;
  }
  return result;
}

void ClusterClient::ProbeEpochLocked(Slot& slot) {
  // A down endpoint is not re-probed here — over TCP each probe of a
  // dead node is a connect timeout, and the read path must not pay one
  // per call while a node stays dead. HealOneDownEndpointLocked owns
  // revival (bounded: one down endpoint per successful read).
  if (slot.epoch != 0 || slot.down) return;
  auto result = CallSlotLocked(
      slot, net::BuildReplPullRequest(net::ReplPullRequest{0, 0, 0}));
  if (!result.ok() || !result.value().ok()) return;
  const auto reply = net::ParseReplPullReply(result.value());
  if (reply) slot.epoch = reply->epoch;
}

void ClusterClient::HealOneDownEndpointLocked() {
  const std::size_t n = slots_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots_[(heal_rr_ + i) % n];
    if (!slot.down) continue;
    heal_rr_ = (heal_rr_ + i + 1) % n;
    // Probe the transport directly: a heal attempt against a
    // still-dead node is not a new failover event, and success both
    // clears the mark and refreshes the (possibly new) epoch.
    ++stats_.heal_probes;
    auto result = slot.endpoint.transport->Call(
        net::BuildReplPullRequest(net::ReplPullRequest{0, 0, 0}));
    if (result.ok() && result.value().ok()) {
      slot.down = false;
      const auto reply = net::ParseReplPullReply(result.value());
      slot.epoch = reply ? reply->epoch : 0;
    }
    return;
  }
}

void ClusterClient::MaybeHealLocked() {
  bool any_down = false;
  for (const Slot& s : slots_) any_down = any_down || s.down;
  if (!any_down) {
    reads_since_heal_ = 0;
    return;
  }
  if (++reads_since_heal_ < heal_probe_period_) return;
  reads_since_heal_ = 0;
  HealOneDownEndpointLocked();
}

bool ClusterClient::GetCoverage(const net::Request& request,
                                const net::Response& resp,
                                std::uint64_t* coverage, std::uint64_t* from,
                                std::uint32_t* count) {
  if (request.type != net::MsgType::kGetSignatures || !resp.ok()) {
    return false;
  }
  BinaryReader req_r(std::span<const std::uint8_t>(request.payload.data(),
                                                   request.payload.size()));
  *from = req_r.ReadU64();
  if (!req_r.AtEnd()) return false;
  BinaryReader resp_r(std::span<const std::uint8_t>(resp.payload.data(),
                                                    resp.payload.size()));
  *count = resp_r.ReadU32();
  if (!resp_r.ok()) return false;
  *coverage = *from + *count;
  return true;
}

Result<net::Response> ClusterClient::Call(const net::Request& request) {
  std::lock_guard lock(mu_);

  if (IsWrite(request.type)) {
    // The primary alone assigns the global log order; a write that
    // cannot reach it fails rather than silently landing elsewhere
    // (followers would refuse it anyway).
    auto result = CallSlotLocked(slots_[0], request);
    if (result.ok()) ++stats_.writes_to_primary;
    return result;
  }

  // Read fan-out order: up replicas round-robin, then the primary, then
  // down endpoints last (their success is what heals them).
  const std::size_t n_rep = slots_.size() - 1;
  std::vector<std::size_t> order;
  order.reserve(slots_.size() + n_rep + 1);
  for (std::size_t i = 0; i < n_rep; ++i) {
    const std::size_t idx = 1 + (rr_ + i) % n_rep;
    if (!slots_[idx].down) order.push_back(idx);
  }
  if (n_rep > 0) ++rr_;
  if (!slots_[0].down) order.push_back(0);
  for (std::size_t i = 0; i < n_rep; ++i) {
    const std::size_t idx = 1 + (rr_ + i) % n_rep;
    if (slots_[idx].down) order.push_back(idx);
  }
  if (slots_[0].down) order.push_back(0);

  const bool is_get = request.type == net::MsgType::kGetSignatures;
  std::optional<net::Response> best;   // highest-coverage regressing reply
  std::uint64_t best_coverage = 0;
  Status last_error =
      Status::Error(ErrorCode::kUnavailable, "no cluster endpoint reachable");

  for (const std::size_t idx : order) {
    Slot& slot = slots_[idx];
    if (is_get && idx != 0) {
      // Byte-stability guard: a replica on another lineage would serve a
      // *different* log — never read the database from it.
      ProbeEpochLocked(slots_[0]);
      ProbeEpochLocked(slot);
      if (slot.epoch != 0 && slots_[0].epoch != 0 &&
          slot.epoch != slots_[0].epoch) {
        // The cached epoch may predate a catch-up reset that adopted the
        // primary's lineage; re-probe once before writing the replica off.
        slot.epoch = 0;
        ProbeEpochLocked(slot);
        if (slot.epoch == 0 || slot.epoch != slots_[0].epoch) {
          ++stats_.epoch_skips;
          continue;
        }
      }
      if (slot.down) continue;  // the probe just failed; nothing to read
    }
    auto result = CallSlotLocked(slot, request);
    if (!result.ok()) {
      last_error = result.status();
      continue;
    }
    std::uint64_t coverage = 0;
    std::uint64_t from = 0;
    std::uint32_t count = 0;
    if (is_get &&
        GetCoverage(request, result.value(), &coverage, &from, &count)) {
      const std::uint64_t known =
          known_log_size_.load(std::memory_order_relaxed);
      if (from < known && coverage < known) {
        // This endpoint lags behind what we've already shown the caller:
        // a fresh scan served from it would regress. Keep it as a last
        // resort and try the next endpoint.
        ++stats_.stale_read_retries;
        if (!best || coverage > best_coverage) {
          best = result.value();
          best_coverage = coverage;
        }
        continue;
      }
      // Advance the floor only on non-empty replies: count > 0 proves
      // the server's committed length really is `coverage`, whereas an
      // empty reply to GET(from) past the log's end would inflate the
      // floor to a length no endpoint holds (e.g. a daemon polling with
      // a pre-reset cursor after a lineage rebuild shrank the log).
      if (count > 0 && coverage > known) {
        known_log_size_.store(coverage, std::memory_order_release);
      }
    }
    ++(idx == 0 ? stats_.reads_to_primary : stats_.reads_to_replicas);
    MaybeHealLocked();
    return result;
  }

  if (best) {
    // Every live endpoint lagged (primary dead, replicas behind): serve
    // the longest prefix available rather than failing, and record that
    // the monotonic floor was not met. The floor itself is untouched.
    // The delta-fetch cache is dropped too: a short read means cluster
    // state is degraded enough that splicing onto cached prefixes is no
    // longer worth reasoning about.
    ++stats_.short_reads;
    InvalidateCacheLocked();
    return *best;
  }
  return last_error;
}

Status ClusterClient::FetchRange(std::uint64_t from,
                                 std::vector<std::vector<std::uint8_t>>* out,
                                 std::vector<std::uint8_t>* payload,
                                 std::uint32_t* count) {
  net::Request request;
  request.type = net::MsgType::kGetSignatures;
  BinaryWriter w;
  w.WriteU64(from);
  request.payload = w.take();

  auto result = Call(request);
  if (!result.ok()) return result.status();
  const net::Response& resp = result.value();
  if (!resp.ok()) return Status::Error(resp.code, resp.error);

  BinaryReader r(std::span<const std::uint8_t>(resp.payload.data(),
                                               resp.payload.size()));
  *count = r.ReadU32();
  for (std::uint32_t i = 0; i < *count; ++i) {
    out->push_back(r.ReadBytes());
    if (!r.ok()) {
      return Status::Error(ErrorCode::kDataLoss, "corrupt GET reply");
    }
  }
  // The slice region is everything after the u32 count — byte-identical
  // to what any same-epoch replica would serve for [from, from+count).
  payload->assign(resp.payload.begin() + sizeof(std::uint32_t),
                  resp.payload.end());
  return Status::Ok();
}

Result<std::vector<std::vector<std::uint8_t>>> ClusterClient::FetchSince(
    std::uint64_t from) {
  std::vector<std::vector<std::uint8_t>> sigs;
  std::vector<std::uint8_t> payload;
  std::uint32_t count = 0;

  if (!cache_enabled_) {
    if (Status s = FetchRange(from, &sigs, &payload, &count); !s.ok()) {
      return s;
    }
    return sigs;
  }

  // Probe the cluster's (epoch, length) first. The epoch drives
  // invalidation — a lineage change means cached indexes name different
  // bytes — and the length lets an up-to-date poll be answered from the
  // cache with no data transfer at all.
  bool probed = false;
  std::uint64_t probe_size = 0;
  {
    auto result = Call(net::BuildReplPullRequest(net::ReplPullRequest{0, 0, 0}));
    if (result.ok() && result.value().ok()) {
      if (const auto reply = net::ParseReplPullReply(result.value())) {
        probed = true;
        probe_size = reply->log_size;
        std::lock_guard lock(mu_);
        if (reply->epoch != cache_epoch_) {
          if (cache_epoch_ != 0) InvalidateCacheLocked();
          cache_epoch_ = reply->epoch;
        }
      }
    }
  }

  std::uint64_t gen = 0;
  {
    std::lock_guard lock(mu_);
    gen = cache_generation_;
  }

  if (probed) {
    if (auto slice = cache_.Lookup(gen, from)) {
      // Monotonic-read floor: the probe may have been answered by a
      // lagging replica, so its length alone cannot authorize a pure
      // cache hit — the cached slice must also cover everything this
      // client has ever shown a caller. A shorter slice delta-fetches,
      // and the routed GET inside FetchRange re-applies the floor
      // (retrying lagging endpoints) exactly as an uncached scan would.
      const std::uint64_t known =
          known_log_size_.load(std::memory_order_acquire);
      if (probe_size <= slice->upto && slice->upto >= known) {
        // Nothing new past the cached prefix: serve the poll without
        // touching the wire again.
        BinaryReader r(std::span<const std::uint8_t>(slice->payload.data(),
                                                     slice->payload.size()));
        sigs.reserve(slice->count);
        for (std::uint32_t i = 0; i < slice->count; ++i) {
          sigs.push_back(r.ReadBytes());
        }
        std::lock_guard lock(mu_);
        ++stats_.cache_hits;
        return sigs;
      }
      // Delta fetch: reuse the cached prefix, transfer only the suffix.
      sigs.reserve(slice->count);
      BinaryReader r(std::span<const std::uint8_t>(slice->payload.data(),
                                                   slice->payload.size()));
      for (std::uint32_t i = 0; i < slice->count; ++i) {
        sigs.push_back(r.ReadBytes());
      }
      std::vector<std::uint8_t> delta_payload;
      std::uint32_t delta_count = 0;
      if (Status s =
              FetchRange(slice->upto, &sigs, &delta_payload, &delta_count);
          !s.ok()) {
        return s;
      }
      auto merged = std::make_shared<store::CachedSlice>();
      merged->from = from;
      merged->upto = slice->upto + delta_count;
      merged->count = slice->count + delta_count;
      merged->payload = slice->payload;
      merged->payload.insert(merged->payload.end(), delta_payload.begin(),
                             delta_payload.end());
      {
        std::lock_guard lock(mu_);
        ++stats_.cache_hits;
        ++stats_.cache_delta_fetches;
      }
      // Insert under the generation the prefix was read at: if an
      // invalidation raced the delta fetch, ReadCache discards this
      // stale-generation insert on its own.
      cache_.Insert(gen, std::move(merged));
      return sigs;
    }
  }

  // Cold path: full fetch, then admit the slice (2Q probation decides
  // whether this cursor is actually hot).
  if (Status s = FetchRange(from, &sigs, &payload, &count); !s.ok()) {
    return s;
  }
  if (probed && count > 0) {
    auto slice = std::make_shared<store::CachedSlice>();
    slice->from = from;
    slice->upto = from + count;
    slice->count = count;
    slice->payload = std::move(payload);
    cache_.Insert(gen, std::move(slice));
  }
  return sigs;
}

ClusterClient::Stats ClusterClient::GetStats() const {
  std::lock_guard lock(mu_);
  Stats out = stats_;
  for (const Slot& s : slots_) out.endpoints_up += s.down ? 0 : 1;
  return out;
}

std::vector<bool> ClusterClient::EndpointUp() const {
  std::lock_guard lock(mu_);
  std::vector<bool> up;
  up.reserve(slots_.size());
  for (const Slot& s : slots_) up.push_back(!s.down);
  return up;
}

obs::ProbeHandle ClusterClient::ExportStats(
    obs::MetricsRegistry& registry) const {
  return registry.RegisterProbe([this](obs::ProbeSink& sink) {
    obs::EmitStats(sink, "cluster.client.", GetStats());
  });
}

}  // namespace communix::cluster
