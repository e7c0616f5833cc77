// StatsNames: every tier's counters, checked by registry name.
//
// One in-process deployment under light traffic — a Dimmunix runtime, a
// primary and a follower each behind a TcpServer, a LogShipper, a
// ClusterClient and a MultiGroupClient — then two checks per registry:
//
//   * the sorted (kind, name) set of the snapshot equals a recorded
//     list, so a dropped or renamed counter fails here (perfbench's
//     per-layer rows and communix_stats users read these names);
//   * every GetStats() field equals the snapshot value under its
//     registry name, so a counter exported from the wrong field fails
//     here too.
//
// The primary side (runtime, primary, its transport, the shipper and
// both clients) shares one registry; the follower and its transport get
// their own, as in a two-process deployment — two servers in one
// registry would merge their server.* counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../testutil.hpp"
#include "communix/cluster/cluster_client.hpp"
#include "communix/cluster/log_shipper.hpp"
#include "communix/cluster/router.hpp"
#include "communix/server.hpp"
#include "dimmunix/runtime.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "sim/workload.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("sn.A", 6, F("sn.A", "s1", 100 + salt)),
              ChainStack("sn.A", 6, F("sn.A", "i1", 9100 + salt)),
              ChainStack("sn.B", 6, F("sn.B", "s2", 20300 + salt)),
              ChainStack("sn.B", 6, F("sn.B", "i2", 31400 + salt)));
}

net::Request AddRequest(const UserToken& token, const Signature& sig) {
  net::Request req;
  req.type = net::MsgType::kAddSignature;
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token.data(), token.size()));
  const auto bytes = sig.ToBytes();
  w.WriteRaw(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  req.payload = w.take();
  return req;
}

using Names = std::vector<std::pair<std::string, std::string>>;

Names KindNames(const obs::MetricsSnapshot& snap) {
  Names out;
  for (const auto& [name, v] : snap.counters) out.emplace_back("counter", name);
  for (const auto& [name, v] : snap.gauges) out.emplace_back("gauge", name);
  for (const auto& [name, h] : snap.histograms) {
    out.emplace_back("histogram", name);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Names Expected(const std::string& kind, const std::string& prefix,
               const std::vector<std::string>& names) {
  Names out;
  for (const std::string& n : names) out.emplace_back(kind, prefix + n);
  return out;
}

const std::vector<std::string> kRuntimeCounters = {
    "acquisitions",           "contended_acquisitions",
    "avoidance_suspensions",  "yield_cycle_overrides",
    "deadlocks_detected",     "signatures_learned",
    "local_generalizations",  "false_positives_flagged",
    "fast_path_acquisitions", "fast_path_releases",
    "slow_path_entries",      "wait_rounds",
    "handoffs",               "barges_prevented",
    "instantiation_scans",    "scans_skipped",
    "sampled_verification_scans", "adaptive_gate_mismatches",
    "index_republishes",      "threads_reaped"};
const std::vector<std::string> kRuntimeGauges = {"occupancy_buckets",
                                                 "occupancy_key_collisions"};
const std::vector<std::string> kServerCounters = {
    "adds_accepted",          "adds_duplicate",
    "rejected_bad_token",     "rejected_rate_limited",
    "rejected_adjacent",      "rejected_malformed",
    "rejected_tenant_quota",  "adds_processed",
    "gets_served",            "reply_bytes_copied",
    "reply_bytes_shared",     "rejected_not_primary",
    "repl_pulls_served",      "repl_batches_applied",
    "repl_entries_applied",   "repl_entries_skipped",
    "repl_resets",            "checkpoints_installed",
    "checkpoint_entries_installed", "checkpoints_refused",
    "wrong_group_bounces",    "shard_maps_served",
    "superseded_from_fp",     "stats_served"};
const std::vector<std::string> kServerHistograms = {
    "get.cache_hit_ns", "get.cache_extend_ns", "get.cold_scan_ns",
    "checkpoint.build_ns", "checkpoint.install_ns"};
const std::vector<std::string> kCacheCounters = {
    "hits", "misses", "admissions", "promotions", "evictions",
    "invalidations"};
const std::vector<std::string> kStoreGauges = {"db_size", "epoch",
                                              "superseded"};
const std::vector<std::string> kNetCounters = {
    "writev_flushes", "backpressure_stalls", "slow_client_disconnects",
    "wake_pipe_full_wakes"};
const std::vector<std::string> kNetGauges = {"peak_outbound_queue_bytes"};
const std::vector<std::string> kShipperCounters = {
    "entries_shipped", "handshakes", "resets", "drops",
    "checkpoints_shipped"};
const std::vector<std::string> kShipperGauges = {
    "followers", "active_feed_cursors", "total_lag"};
const std::vector<std::string> kClientCounters = {
    "writes_to_primary",  "reads_to_replicas",   "reads_to_primary",
    "failovers",          "stale_read_retries",  "short_reads",
    "epoch_skips",        "cache_hits",          "cache_delta_fetches",
    "cache_invalidations", "heal_probes"};
const std::vector<std::string> kRouterCounters = {
    "wrong_group_bounces", "map_refreshes", "map_installs",
    "routed_without_map"};

/// The (kind, name) set of a server process's registry: server, store
/// and net tiers.
Names ServerNames() {
  Names n;
  for (Names part :
       {Expected("counter", "server.", kServerCounters),
        Expected("histogram", "server.", kServerHistograms),
        Expected("counter", "store.cache.", kCacheCounters),
        Expected("gauge", "store.", kStoreGauges),
        Expected("counter", "net.", kNetCounters),
        Expected("gauge", "net.", kNetGauges)}) {
    n.insert(n.end(), part.begin(), part.end());
  }
  return n;
}

Names Sorted(Names n) {
  std::sort(n.begin(), n.end());
  return n;
}

/// Field-by-field check of one GetStats() against the snapshot. Written
/// out by hand on purpose: it is the independent record of which field
/// each registry name carries.
void ExpectServerFields(const obs::MetricsSnapshot& snap,
                        const CommunixServer& server,
                        const net::TcpServer& tcp) {
  const CommunixServer::Stats s = server.GetStats();
  const std::vector<std::pair<const char*, std::uint64_t>> fields = {
      {"server.adds_accepted", s.adds_accepted},
      {"server.adds_duplicate", s.adds_duplicate},
      {"server.rejected_bad_token", s.rejected_bad_token},
      {"server.rejected_rate_limited", s.rejected_rate_limited},
      {"server.rejected_adjacent", s.rejected_adjacent},
      {"server.rejected_malformed", s.rejected_malformed},
      {"server.rejected_tenant_quota", s.rejected_tenant_quota},
      {"server.adds_processed", s.adds_processed},
      {"server.gets_served", s.gets_served},
      {"server.reply_bytes_copied", s.reply_bytes_copied},
      {"server.reply_bytes_shared", s.reply_bytes_shared},
      {"server.rejected_not_primary", s.rejected_not_primary},
      {"server.repl_pulls_served", s.repl_pulls_served},
      {"server.repl_batches_applied", s.repl_batches_applied},
      {"server.repl_entries_applied", s.repl_entries_applied},
      {"server.repl_entries_skipped", s.repl_entries_skipped},
      {"server.repl_resets", s.repl_resets},
      {"server.checkpoints_installed", s.checkpoints_installed},
      {"server.checkpoint_entries_installed", s.checkpoint_entries_installed},
      {"server.checkpoints_refused", s.checkpoints_refused},
      {"server.wrong_group_bounces", s.wrong_group_bounces},
      {"server.shard_maps_served", s.shard_maps_served},
      {"server.superseded_from_fp", s.superseded_from_fp},
      {"server.stats_served", s.stats_served},
  };
  const store::ReadCache::Stats c = server.read_cache_stats();
  const net::TcpServer::Stats t = tcp.GetStats();
  std::vector<std::pair<const char*, std::uint64_t>> more = {
      {"store.cache.hits", c.hits},
      {"store.cache.misses", c.misses},
      {"store.cache.admissions", c.admissions},
      {"store.cache.promotions", c.promotions},
      {"store.cache.evictions", c.evictions},
      {"store.cache.invalidations", c.invalidations},
      {"store.db_size", server.db_size()},
      {"net.writev_flushes", t.writev_flushes},
      {"net.backpressure_stalls", t.backpressure_stalls},
      {"net.slow_client_disconnects", t.slow_client_disconnects},
      {"net.peak_outbound_queue_bytes", t.peak_outbound_queue_bytes},
      {"net.wake_pipe_full_wakes", t.wake_pipe_full_wakes},
  };
  more.insert(more.begin(), fields.begin(), fields.end());
  for (const auto& [name, value] : more) {
    EXPECT_TRUE(snap.Has(name)) << name;
    EXPECT_EQ(snap.Value(name), value) << name;
  }
}

void ExpectRuntimeFields(const obs::MetricsSnapshot& snap,
                         const dimmunix::DimmunixRuntime& rt) {
  const dimmunix::DimmunixRuntime::Stats s = rt.GetStats();
  const std::vector<std::pair<const char*, std::uint64_t>> fields = {
      {"dimmunix.acquisitions", s.acquisitions},
      {"dimmunix.contended_acquisitions", s.contended_acquisitions},
      {"dimmunix.avoidance_suspensions", s.avoidance_suspensions},
      {"dimmunix.yield_cycle_overrides", s.yield_cycle_overrides},
      {"dimmunix.deadlocks_detected", s.deadlocks_detected},
      {"dimmunix.signatures_learned", s.signatures_learned},
      {"dimmunix.local_generalizations", s.local_generalizations},
      {"dimmunix.false_positives_flagged", s.false_positives_flagged},
      {"dimmunix.fast_path_acquisitions", s.fast_path_acquisitions},
      {"dimmunix.fast_path_releases", s.fast_path_releases},
      {"dimmunix.slow_path_entries", s.slow_path_entries},
      {"dimmunix.wait_rounds", s.wait_rounds},
      {"dimmunix.handoffs", s.handoffs},
      {"dimmunix.barges_prevented", s.barges_prevented},
      {"dimmunix.instantiation_scans", s.instantiation_scans},
      {"dimmunix.scans_skipped", s.scans_skipped},
      {"dimmunix.sampled_verification_scans", s.sampled_verification_scans},
      {"dimmunix.adaptive_gate_mismatches", s.adaptive_gate_mismatches},
      {"dimmunix.index_republishes", s.index_republishes},
      {"dimmunix.threads_reaped", s.threads_reaped},
      {"dimmunix.occupancy_buckets", s.occupancy_buckets},
      {"dimmunix.occupancy_key_collisions", s.occupancy_key_collisions},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_TRUE(snap.Has(name)) << name;
    EXPECT_EQ(snap.Value(name), value) << name;
  }
}

void ExpectClientFields(const obs::MetricsSnapshot& snap,
                        const cluster::ClusterClient& client,
                        const cluster::MultiGroupClient& router) {
  const cluster::ClusterClient::Stats c = client.GetStats();
  const cluster::MultiGroupClient::Stats r = router.GetStats();
  std::uint64_t up = 0;
  for (const bool b : client.EndpointUp()) up += b ? 1 : 0;
  const std::vector<std::pair<const char*, std::uint64_t>> fields = {
      {"cluster.client.writes_to_primary", c.writes_to_primary},
      {"cluster.client.reads_to_replicas", c.reads_to_replicas},
      {"cluster.client.reads_to_primary", c.reads_to_primary},
      {"cluster.client.failovers", c.failovers},
      {"cluster.client.stale_read_retries", c.stale_read_retries},
      {"cluster.client.short_reads", c.short_reads},
      {"cluster.client.epoch_skips", c.epoch_skips},
      {"cluster.client.cache_hits", c.cache_hits},
      {"cluster.client.cache_delta_fetches", c.cache_delta_fetches},
      {"cluster.client.cache_invalidations", c.cache_invalidations},
      {"cluster.client.heal_probes", c.heal_probes},
      {"cluster.client.endpoints_up", up},
      {"router.wrong_group_bounces", r.wrong_group_bounces},
      {"router.map_refreshes", r.map_refreshes},
      {"router.map_installs", r.map_installs},
      {"router.routed_without_map", r.routed_without_map},
      {"router.map_version", router.map_version()},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_TRUE(snap.Has(name)) << name;
    EXPECT_EQ(snap.Value(name), value) << name;
  }
}

void ExpectShipperFields(const obs::MetricsSnapshot& snap,
                         const cluster::LogShipper& shipper) {
  const cluster::LogShipper::FollowerStatus f = shipper.GetFollowerStatus(0);
  const std::vector<std::pair<const char*, std::uint64_t>> fields = {
      {"cluster.shipper.entries_shipped", f.entries_shipped},
      {"cluster.shipper.handshakes", f.handshakes},
      {"cluster.shipper.resets", f.resets},
      {"cluster.shipper.drops", f.drops},
      {"cluster.shipper.checkpoints_shipped", f.checkpoints_shipped},
      {"cluster.shipper.followers", shipper.follower_count()},
      {"cluster.shipper.active_feed_cursors", shipper.active_feed_cursors()},
      {"cluster.shipper.total_lag", f.lag},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_TRUE(snap.Has(name)) << name;
    EXPECT_EQ(snap.Value(name), value) << name;
  }
}

/// Two snapshots taken back to back agree: the transports' worker
/// threads have finished the counter bumps of the last reply.
bool Settled(const obs::MetricsRegistry& reg) {
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot a = reg.Snapshot();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const obs::MetricsSnapshot b = reg.Snapshot();
    if (a.counters == b.counters && a.gauges == b.gauges) return true;
  }
  return false;
}

TEST(StatsNames, EveryTierExportsItsRecordedNamesAndFieldValues) {
  SystemClock clock;
  const auto primary_reg = std::make_shared<obs::MetricsRegistry>();
  const auto follower_reg = std::make_shared<obs::MetricsRegistry>();

  dimmunix::DimmunixRuntime runtime(clock);
  obs::ProbeHandle runtime_probe = runtime.ExportStats(*primary_reg);

  CommunixServer::Options popts;
  popts.metrics = primary_reg;
  CommunixServer primary(clock, popts);
  CommunixServer::Options fopts;
  fopts.role = ServerRole::kFollower;
  fopts.metrics = follower_reg;
  CommunixServer follower(clock, fopts);

  net::TcpServer::Options ptcp;
  ptcp.worker_threads = 1;
  ptcp.metrics = primary_reg;
  net::TcpServer primary_tcp(primary, ptcp);
  net::TcpServer::Options ftcp;
  ftcp.worker_threads = 1;
  ftcp.metrics = follower_reg;
  net::TcpServer follower_tcp(follower, ftcp);
  ASSERT_TRUE(primary_tcp.Start().ok());
  ASSERT_TRUE(follower_tcp.Start().ok());

  net::ReconnectingTcpClient ship_link("127.0.0.1", follower_tcp.port());
  cluster::LogShipper shipper(primary);
  shipper.AddFollower("follower", ship_link);
  obs::ProbeHandle shipper_probe = shipper.ExportStats(*primary_reg);

  net::ReconnectingTcpClient to_primary("127.0.0.1", primary_tcp.port());
  net::ReconnectingTcpClient to_follower("127.0.0.1", follower_tcp.port());
  cluster::ClusterClient client({"primary", &to_primary},
                                {{"follower", &to_follower}});
  obs::ProbeHandle client_probe = client.ExportStats(*primary_reg);
  cluster::MultiGroupClient::Options ropts;
  ropts.metrics = primary_reg;
  cluster::MultiGroupClient router({{0, &client}}, ropts);

  // Light traffic through every tier.
  sim::AbbaWorkload(4).Run(runtime);
  constexpr std::uint32_t kAdds = 4;
  for (std::uint32_t i = 0; i < kAdds; ++i) {
    const UserId user = 500 + i;
    auto resp = router.CallFor(CommunityOf(user),
                               AddRequest(primary.IssueToken(user),
                                          MakeSig(1000 * i)));
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp.value().ok()) << resp.value().error;
  }
  EXPECT_FALSE(primary.AddSignature(UserToken{}, MakeSig(77'000)).ok());
  EXPECT_FALSE(
      follower.AddSignature(follower.IssueToken(9), MakeSig(78'000)).ok());
  ASSERT_TRUE(shipper.PumpUntilSynced());
  for (int poll = 0; poll < 3; ++poll) {
    auto fetched = router.FetchSince(CommunityOf(500), 0);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value().size(), kAdds);
  }
  ASSERT_TRUE(Settled(*primary_reg));
  ASSERT_TRUE(Settled(*follower_reg));

  // The recorded (kind, name) sets.
  Names primary_names = ServerNames();
  for (Names part :
       {Expected("counter", "dimmunix.", kRuntimeCounters),
        Expected("gauge", "dimmunix.", kRuntimeGauges),
        Expected("counter", "cluster.shipper.", kShipperCounters),
        Expected("gauge", "cluster.shipper.", kShipperGauges),
        Expected("counter", "cluster.client.", kClientCounters),
        Expected("gauge", "cluster.client.", {"endpoints_up"}),
        Expected("counter", "router.", kRouterCounters),
        Expected("gauge", "router.", {"map_version"}),
        Expected("histogram", "router.tenant.",
                 {std::to_string(CommunityOf(500)) + ".add_ns",
                  std::to_string(CommunityOf(500)) + ".get_ns"})}) {
    primary_names.insert(primary_names.end(), part.begin(), part.end());
  }
  const obs::MetricsSnapshot psnap = primary_reg->Snapshot();
  const obs::MetricsSnapshot fsnap = follower_reg->Snapshot();
  EXPECT_EQ(KindNames(psnap), Sorted(primary_names));
  EXPECT_EQ(KindNames(fsnap), Sorted(ServerNames()));

  // Every GetStats() field under its registry name.
  ExpectRuntimeFields(psnap, runtime);
  ExpectServerFields(psnap, primary, primary_tcp);
  ExpectServerFields(fsnap, follower, follower_tcp);
  ExpectShipperFields(psnap, shipper);
  ExpectClientFields(psnap, client, router);

  // The traffic reached each tier, and each server's counters stayed in
  // its own registry.
  EXPECT_GT(psnap.Value("dimmunix.acquisitions"), 0u);
  EXPECT_EQ(psnap.Value("server.adds_accepted"), kAdds);
  EXPECT_EQ(psnap.Value("server.rejected_bad_token"), 1u);
  EXPECT_EQ(fsnap.Value("server.adds_accepted"), 0u);
  EXPECT_EQ(fsnap.Value("server.rejected_not_primary"), 1u);
  EXPECT_GT(fsnap.Value("server.repl_batches_applied"), 0u);
  EXPECT_EQ(fsnap.Value("server.repl_entries_applied"), kAdds);
  EXPECT_EQ(psnap.Value("cluster.shipper.entries_shipped"), kAdds);
  EXPECT_EQ(psnap.Value("cluster.client.writes_to_primary"), kAdds);
  EXPECT_GT(psnap.Value("cluster.client.reads_to_replicas"), 0u);
  EXPECT_GT(psnap.Value("net.writev_flushes"), 0u);
  EXPECT_GT(fsnap.Value("net.writev_flushes"), 0u);
  EXPECT_GT(psnap.Value("router.routed_without_map"), 0u);

  client_probe.Release();
  shipper_probe.Release();
  runtime_probe.Release();
  follower_tcp.Stop();
  primary_tcp.Stop();
}

}  // namespace
}  // namespace communix
