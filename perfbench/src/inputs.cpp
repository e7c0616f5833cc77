#include "inputs.hpp"

#include <algorithm>

#include "params.hpp"
#include "sim/attacker.hpp"
#include "sim/stacks.hpp"
#include "util/fnv.hpp"
#include "util/serde.hpp"
#include "util/sha256.hpp"

namespace perfbench {

using communix::Rng;
using communix::UserId;
using communix::dimmunix::CallStack;
using communix::dimmunix::Frame;
using communix::dimmunix::Signature;
using communix::dimmunix::SignatureEntry;

Rng StreamRng(std::uint64_t seed, std::string_view label, std::uint64_t index) {
  std::uint64_t h = communix::Fnv1a(label);
  h = communix::Fnv1aU64(seed, h);
  h = communix::Fnv1aU64(index, h);
  return Rng(h);
}

namespace {

constexpr std::size_t kFrameworkFrames = 48;

Frame FrameworkFrame(std::size_t k) {
  static const char* kPackages[] = {"org.apache.catalina.core",
                                    "org.jboss.invocation",
                                    "java.util.concurrent",
                                    "org.hibernate.engine"};
  Frame f(std::string(kPackages[k % 4]) + ".Stage" + std::to_string(k),
          "invoke" + std::to_string(k % 7),
          static_cast<std::uint32_t>(40 + k * 3));
  return f;
}

/// A frame carrying a class-hash attachment. Servers store the hash
/// without checking it (only agents compare it with their bytecode), so
/// fleet signatures use a cheap stand-in digest: generating inputs must
/// cost the load generator far less than the server spends on them.
Frame HashedFrame(std::string cls, std::string method, std::uint32_t line) {
  Frame f(cls, std::move(method), line);
  communix::Sha256Digest digest{};
  std::uint64_t h = communix::Fnv1a(cls);
  for (std::size_t i = 0; i < digest.size(); ++i) {
    if (i % 8 == 0) h = communix::Fnv1aU64(i, h);
    digest[i] = static_cast<std::uint8_t>(h >> (8 * (i % 8)));
  }
  f.class_hash = digest;
  return f;
}

/// One thread's entry: framework frames, then the site-specific top.
SignatureEntry MakeEntry(Rng& rng, std::size_t depth, const Frame& outer_top,
                         const Frame& inner_top) {
  std::vector<Frame> outer;
  outer.reserve(depth);
  for (std::size_t i = 0; i + 1 < depth; ++i) {
    outer.push_back(FrameworkFrame(rng.NextBounded(kFrameworkFrames)));
  }
  outer.push_back(outer_top);
  std::vector<Frame> inner = outer;
  inner.push_back(inner_top);
  return SignatureEntry{CallStack(std::move(outer)),
                        CallStack(std::move(inner))};
}

Frame SiteFrame(std::uint64_t salt, const char* role, int thread) {
  return HashedFrame("org.fleet.app.m" + std::to_string(salt % 97) + ".Site" +
                         std::to_string(salt),
                     std::string(role) + std::to_string(thread),
                     static_cast<std::uint32_t>(100 + thread));
}

}  // namespace

Signature FleetSignature(std::uint64_t seed, std::uint64_t salt) {
  Rng rng = StreamRng(seed, "fleet-sig", salt);
  std::vector<SignatureEntry> entries;
  for (int t = 0; t < 2; ++t) {
    const std::size_t depth = 5 + rng.NextBounded(2);
    entries.push_back(MakeEntry(rng, depth, SiteFrame(salt, "lock", t),
                                SiteFrame(salt, "inner", t)));
  }
  return Signature(std::move(entries));
}

std::vector<std::uint8_t> AddPayload(const communix::UserToken& token,
                                     const std::vector<std::uint8_t>& sig) {
  std::vector<std::uint8_t> out;
  out.reserve(token.size() + sig.size());
  out.insert(out.end(), token.begin(), token.end());
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

ArrivalSchedule::ArrivalSchedule(std::uint64_t seed, std::string_view label)
    : rng_(StreamRng(seed, label)) {}

std::int64_t ArrivalSchedule::Next(std::int64_t prev_ns, double rate_per_s) {
  const double gap_s = rng_.NextExponential(1.0) / rate_per_s;
  return prev_ns + std::max<std::int64_t>(
                       1, static_cast<std::int64_t>(gap_s * 1e9));
}

FleetInputs MakeFleetInputs(std::uint64_t seed) {
  FleetInputs in;
  std::uint64_t salt = 0;
  for (std::size_t u = 0; u < params::kSyncPreloadUsers; ++u) {
    PreloadBatch b;
    b.user = communix::MakeUserId(1, u + 1);
    for (std::uint32_t j = 0; j < TrickleAdds::kDailyLimit; ++j) {
      b.sigs.push_back(FleetSignature(seed, salt++));
    }
    in.preload_size += b.sigs.size();
    in.preload.push_back(std::move(b));
  }
  return in;
}

TrickleAdds::TrickleAdds(std::uint64_t seed, std::uint32_t community,
                         std::uint64_t salt0)
    : seed_(seed), community_(community), next_salt_(salt0) {}

std::vector<std::uint8_t> TrickleAdds::Next() {
  if (sent_ >= kDailyLimit) {
    token_ = authority_.Issue(communix::MakeUserId(community_, ++users_));
    sent_ = 0;
  }
  ++sent_;
  return AddPayload(token_, FleetSignature(seed_, next_salt_++).ToBytes());
}

PollLags::PollLags(std::uint64_t seed, const std::string& label,
                   std::uint64_t adds_per_day)
    : rng_(StreamRng(seed, "poll-lags:" + label)),
      adds_per_day_(static_cast<double>(adds_per_day)) {}

std::uint64_t PollLags::Next() {
  const double today = rng_.NextDouble(), yesterday = rng_.NextDouble();
  return static_cast<std::uint64_t>(adds_per_day_ * (1 + today - yesterday));
}

AppInputs MakeAppInputs(const communix::bytecode::SyntheticApp& app,
                        std::uint64_t seed) {
  constexpr std::size_t kLoopSites = 16;
  AppInputs in;
  Rng rng = StreamRng(seed, "app-sites");
  std::vector<std::int32_t> nested = app.nested_sites;
  for (std::size_t i = nested.size(); i > 1; --i) {
    std::swap(nested[i - 1], nested[rng.NextBounded(i)]);
  }
  if (nested.size() < 2 * kLoopSites) return in;
  in.loop_sites.assign(nested.begin(), nested.begin() + kLoopSites);
  const std::vector<std::int32_t> other(nested.begin() + kLoopSites,
                                        nested.end());
  // Depths spread evenly over 10..30 frames, assigned to sites in a
  // seeded order: every seed runs the same total path length, so seeds
  // differ in which sites are deep, not in how much work a loop does.
  for (std::size_t i = 0; i < kLoopSites; ++i) {
    in.depths.push_back(10 + (i * 20 + kLoopSites / 2) / (kLoopSites - 1));
  }
  for (std::size_t i = in.depths.size(); i > 1; --i) {
    std::swap(in.depths[i - 1], in.depths[rng.NextBounded(i)]);
  }
  auto& repo = in.repository;
  // On visited sites: each paired with an unvisited site (candidate hits
  // whose instantiation can never complete), and one pair of two visited
  // sites (real avoidance when both are entered at once).
  for (std::size_t i = 0; i < 8; ++i) {
    repo.push_back(communix::sim::MakeCriticalPathSignature(
                       app, in.loop_sites[i], other[i], 5 + i % 3)
                       .ToBytes());
  }
  repo.push_back(communix::sim::MakeCriticalPathSignature(
                     app, in.loop_sites[14], in.loop_sites[15], 6)
                     .ToBytes());
  // The rest: valid signatures elsewhere in the app (outer depths 5..8
  // in rotation), and foreign fakes that fail the hash check.
  while (repo.size() < params::kAppRepository) {
    if (repo.size() % 2 == 0) {
      const auto a = other[rng.NextBounded(other.size())];
      const auto b = other[rng.NextBounded(other.size())];
      if (a == b) continue;
      repo.push_back(communix::sim::MakeCriticalPathSignature(
                         app, a, b, 5 + (repo.size() / 2) % 4)
                         .ToBytes());
    } else {
      repo.push_back(communix::sim::MakeRandomFakeSignature(rng).ToBytes());
    }
  }
  return in;
}

SitePairs::SitePairs(const communix::bytecode::SyntheticApp& app,
                     std::uint64_t seed)
    : sites_(app.nested_sites) {
  Rng rng = StreamRng(seed, "immunity-sites");
  for (std::size_t i = sites_.size(); i > 1; --i) {
    std::swap(sites_[i - 1], sites_[rng.NextBounded(i)]);
  }
}

std::pair<std::int32_t, std::int32_t> SitePairs::Pair(std::uint64_t k) const {
  // Pair i with i + d for offsets d up to (n-1)/2: every unordered pair
  // appears at most once across k < n * (n-1)/2.
  const std::size_t n = sites_.size();
  const std::size_t d = 1 + (k / n) % ((n - 1) / 2);
  return {sites_[k % n], sites_[(k % n + d) % n]};
}

std::uint64_t SitePairs::count() const {
  const std::size_t n = sites_.size();
  return n * ((n - 1) / 2);
}

}  // namespace perfbench
