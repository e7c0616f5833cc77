// The in-process replicated deployment the fleet and immunity workloads
// run against: a primary and one follower, each a CommunixServer behind
// its own TcpServer on a loopback port, and a LogShipper streaming the
// primary's log to the follower over TCP. Servers run on a virtual
// clock so the per-user daily quota day never rolls over mid-run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "communix/cluster/log_shipper.hpp"
#include "communix/ids.hpp"
#include "communix/server.hpp"
#include "inputs.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace perfbench {

/// CPUs a deployment's threads are confined to; -1 leaves them on the
/// CPUs of the thread that starts the deployment.
struct ServerPlacement {
  int follower_cpu = -1;
  int primary_cpu = -1;  // primary and shipper
};

class Deployment {
 public:
  Deployment() = default;
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Starts both servers, ADDs `preload` on the primary (in-process
  /// AddBatch per user; every signature must be accepted) and ships it
  /// to the follower. `background_shipping` starts the shipper's own
  /// daemon; otherwise the caller drives ShipRound.
  bool Start(const std::vector<PreloadBatch>& preload,
             bool background_shipping, std::string* error,
             ServerPlacement placement = {});
  void Stop();

  communix::CommunixServer& primary() { return *primary_; }
  communix::CommunixServer& follower() { return *follower_; }
  communix::net::TcpServer& primary_tcp() { return *primary_tcp_; }
  communix::net::TcpServer& follower_tcp() { return *follower_tcp_; }
  communix::cluster::LogShipper& shipper() { return *shipper_; }
  const std::shared_ptr<communix::obs::MetricsRegistry>& primary_metrics() {
    return primary_reg_;
  }
  const std::shared_ptr<communix::obs::MetricsRegistry>& follower_metrics() {
    return follower_reg_;
  }

  /// Days after the epoch the virtual server clock starts at.
  static constexpr communix::TimePoint kStartDay = 20'000;

 private:
  communix::VirtualClock clock_{kStartDay * communix::kNanosPerDay};
  std::shared_ptr<communix::obs::MetricsRegistry> primary_reg_;
  std::shared_ptr<communix::obs::MetricsRegistry> follower_reg_;
  std::unique_ptr<communix::CommunixServer> primary_;
  std::unique_ptr<communix::CommunixServer> follower_;
  std::unique_ptr<communix::net::TcpServer> primary_tcp_;
  std::unique_ptr<communix::net::TcpServer> follower_tcp_;
  std::unique_ptr<communix::net::ReconnectingTcpClient> ship_link_;
  std::unique_ptr<communix::cluster::LogShipper> shipper_;
  communix::obs::ProbeHandle shipper_probe_;
};

}  // namespace perfbench
