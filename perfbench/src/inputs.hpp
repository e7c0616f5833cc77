// Deterministic input generation. Every workload input — signatures,
// users, tokens, request schedules, poll lags — is a pure function of the
// run's --seed and a stream label, so the same seed gives the same inputs
// and the program under test only ever sees these generated values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/synthetic.hpp"
#include "communix/ids.hpp"
#include "dimmunix/signature.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace perfbench {

/// Independent RNG stream for (seed, label): streams never share state,
/// so adding draws to one stream cannot shift another's inputs.
communix::Rng StreamRng(std::uint64_t seed, std::string_view label,
                        std::uint64_t index = 0);

/// A community signature with a unique pair of outer and inner top
/// frames per `salt` (so any two differ in every top frame and one user
/// may send several without adjacency), two threads, shared framework
/// frames below the tops and per-frame class hashes on the upper frames,
/// about 1 KiB serialized.
communix::dimmunix::Signature FleetSignature(std::uint64_t seed,
                                             std::uint64_t salt);

/// ADD wire payload: 16-byte token + serialized signature.
std::vector<std::uint8_t> AddPayload(const communix::UserToken& token,
                                     const std::vector<std::uint8_t>& sig);

/// Open-loop arrival times: a Poisson process of unit rate, scaled by the
/// offered rate at use. The i-th gap is fixed by the seed, so a schedule
/// at a different rate is the same sequence compressed or stretched.
class ArrivalSchedule {
 public:
  ArrivalSchedule(std::uint64_t seed, std::string_view label);
  /// Next arrival time in ns after `prev_ns` at `rate_per_s`.
  std::int64_t Next(std::int64_t prev_ns, double rate_per_s);

 private:
  communix::Rng rng_;
};

/// One user's set-up ADDs (applied in-process before the run).
struct PreloadBatch {
  communix::UserId user = 0;
  std::vector<communix::dimmunix::Signature> sigs;
};

/// fleet_sync set-up: the preload, applied in-process before the run.
struct FleetInputs {
  std::vector<PreloadBatch> preload;
  std::size_t preload_size = 0;
};
FleetInputs MakeFleetInputs(std::uint64_t seed);

/// Fresh signatures for the fleet_sync ADD trickle: honest users, each
/// sending its daily quota of distinct signatures, so every ADD must be
/// accepted.
class TrickleAdds {
 public:
  /// Users come from community `community`; signature salts start at
  /// `salt0` (above every preload salt).
  TrickleAdds(std::uint64_t seed, std::uint32_t community, std::uint64_t salt0);
  /// The next kAddSignature payload (token + signature).
  std::vector<std::uint8_t> Next();

  /// Per-user daily quota of the server's default limits.
  static constexpr std::uint32_t kDailyLimit = 10;

 private:
  std::uint64_t seed_;
  std::uint32_t community_;
  std::uint64_t next_salt_;
  communix::IdAuthority authority_;
  std::uint64_t users_ = 0;
  std::uint32_t sent_ = kDailyLimit;  // by the current user
  communix::UserToken token_{};
};

/// Lags of fleet_sync polls, in log entries. Every daemon polls once per
/// day, the client daemon's poll period, at a time of day drawn anew each
/// day, and its cursor is the log length its previous poll reached. With
/// ADDs arriving at a steady rate, a poll's lag is the ADDs between two
/// uniform times a day apart: adds_per_day x (1 + u1 - u2), from 0 to 2
/// days of ADDs. The distribution does not depend on the poll rate, so a
/// higher offered rate stands for a larger fleet with the same habits.
class PollLags {
 public:
  PollLags(std::uint64_t seed, const std::string& label,
           std::uint64_t adds_per_day);
  std::uint64_t Next();

 private:
  communix::Rng rng_;
  double adds_per_day_;
};

/// app_locks inputs: the nested sites the loop visits, the padded depth
/// of each site's call path, and the community repository the agent
/// processes at start.
struct AppInputs {
  std::vector<std::int32_t> loop_sites;
  std::vector<std::size_t> depths;  // 10..30 frames per loop site
  std::vector<std::vector<std::uint8_t>> repository;
};
AppInputs MakeAppInputs(const communix::bytecode::SyntheticApp& app,
                        std::uint64_t seed);

/// immunity inputs: the k-th propagation's pair of nested sites. Every
/// unordered pair appears at most once across k < count(), so no
/// propagation before that repeats an earlier signature.
class SitePairs {
 public:
  SitePairs(const communix::bytecode::SyntheticApp& app, std::uint64_t seed);
  std::pair<std::int32_t, std::int32_t> Pair(std::uint64_t k) const;
  /// Propagations before a pair repeats.
  std::uint64_t count() const;

 private:
  std::vector<std::int32_t> sites_;
};

}  // namespace perfbench
