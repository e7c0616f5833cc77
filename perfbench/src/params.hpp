// Fixed workload parameters. Offered rates and latency limits are
// absolute numbers: they are never derived from a run's own capacity, so
// two commits are always offered the same load.
#pragma once

#include <cstddef>

namespace perfbench::params {

/// Set-up runs per run; setup_s is their median. Workloads whose set-up
/// takes a few milliseconds repeat it kQuickSetupRuns times instead.
inline constexpr int kSetupRuns = 9;
inline constexpr int kQuickSetupRuns = 41;

// ---- fleet_sync: daemons poll a follower; new members bootstrap -------
// Time runs compressed: one simulated day lasts kSyncDaySeconds. Each
// daemon polls once per simulated day, the client daemon's poll period
// (communix/client.hpp, "once a day"), at a time of day drawn anew each
// day, so a poll's lag is 0 to 2 days of ADDs (PollLags) and about
// 2 x kSyncAddsPerDay distinct cursors are in use at once.
inline constexpr double kSyncDaySeconds = 2.0;
inline constexpr std::size_t kSyncDaemons = 4000;
/// GET(k) / s offered: every daemon once per simulated day. The capacity
/// and search phases offer more, standing for a larger fleet.
inline constexpr double kSyncPollRate = kSyncDaemons / kSyncDaySeconds;
/// Signatures the community adds per simulated day. Twice this (the
/// cursors in use) exceeds the server's 64-slice read cache, while the
/// log grows by only a few percent of the preload in a measured phase.
inline constexpr double kSyncAddsPerDay = 80;
inline constexpr double kSyncAddRate = kSyncAddsPerDay / kSyncDaySeconds;
/// New members per simulated day, each bootstrapping with GET(0).
inline constexpr double kSyncBootstrapsPerDay = 10;
inline constexpr double kSyncBootstrapRate =
    kSyncBootstrapsPerDay / kSyncDaySeconds;
inline constexpr std::size_t kSyncPreloadUsers = 500;  // x 10 sigs each
inline constexpr double kSyncPollLimitUs = 5000;       // poll p90 limit

// ---- app_locks: the client runtime inside a lock-heavy application ----
/// Generator threads: one per core, at most four.
unsigned AppThreads();
inline constexpr std::size_t kAppRepository = 2000;  // sigs at agent start

// ---- immunity: one propagation at a time through every layer ----------
/// Users A and B restart (fresh runtimes) every this many propagations.
inline constexpr std::size_t kImmunityRecycle = 16;

// ---- fleet_sync load search ---------------------------------------------
// Requests each poll lane keeps outstanding in the capacity phase.
inline constexpr std::size_t kCapacityWindow = 32;
// The SLO search stops once the bracket is narrower than this factor,
// well inside the metric's regression bound.
inline constexpr double kSearchResolution = 1.03;
// An open-loop phase whose generator ran this late, or let this many
// requests fall due at once, did not offer the scheduled load.
inline constexpr double kMaxLateP99Us = 10000;
inline constexpr unsigned kMaxBacklog = 256;

}  // namespace perfbench::params
