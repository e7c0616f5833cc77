#include "deploy.hpp"

#include <sched.h>

#include "report.hpp"

namespace perfbench {

namespace {

/// Confines the calling thread, and the threads it starts meanwhile, to
/// one CPU (cpu < 0: no change); the destructor restores its CPUs.
class StartOn {
 public:
  explicit StartOn(int cpu) : cpu_(cpu) {
    if (cpu_ < 0) return;
    ::sched_getaffinity(0, sizeof(saved_), &saved_);
    PinThisThread(static_cast<unsigned>(cpu_));
  }
  ~StartOn() {
    if (cpu_ >= 0) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  StartOn(const StartOn&) = delete;
  StartOn& operator=(const StartOn&) = delete;

 private:
  int cpu_;
  cpu_set_t saved_{};
};

}  // namespace

using communix::CommunixServer;
using communix::ServerRole;

Deployment::~Deployment() { Stop(); }

bool Deployment::Start(const std::vector<PreloadBatch>& preload,
                       bool background_shipping, std::string* error,
                       ServerPlacement placement) {
  primary_reg_ = std::make_shared<communix::obs::MetricsRegistry>();
  follower_reg_ = std::make_shared<communix::obs::MetricsRegistry>();
  CommunixServer::Options popts;
  popts.metrics = primary_reg_;
  primary_ = std::make_unique<CommunixServer>(clock_, popts);
  CommunixServer::Options fopts;
  fopts.role = ServerRole::kFollower;
  fopts.metrics = follower_reg_;
  follower_ = std::make_unique<CommunixServer>(clock_, fopts);

  communix::net::TcpServer::Options ptcp;
  ptcp.metrics = primary_reg_;
  primary_tcp_ = std::make_unique<communix::net::TcpServer>(*primary_, ptcp);
  communix::net::TcpServer::Options ftcp;
  ftcp.metrics = follower_reg_;
  follower_tcp_ = std::make_unique<communix::net::TcpServer>(*follower_, ftcp);
  {
    const StartOn on(placement.primary_cpu);
    if (auto s = primary_tcp_->Start(); !s.ok()) {
      *error = "primary listen: " + s.ToString();
      return false;
    }
  }
  {
    const StartOn on(placement.follower_cpu);
    if (auto s = follower_tcp_->Start(); !s.ok()) {
      *error = "follower listen: " + s.ToString();
      return false;
    }
  }

  for (const PreloadBatch& b : preload) {
    const auto statuses =
        primary_->AddBatch(primary_->IssueToken(b.user), b.sigs);
    for (const auto& st : statuses) {
      if (!st.ok()) {
        *error = "preload ADD refused: " + st.ToString();
        return false;
      }
    }
  }

  ship_link_ = std::make_unique<communix::net::ReconnectingTcpClient>(
      "127.0.0.1", follower_tcp_->port());
  shipper_ = std::make_unique<communix::cluster::LogShipper>(*primary_);
  shipper_->AddFollower("follower", *ship_link_);
  shipper_probe_ = shipper_->ExportStats(*primary_reg_);
  if (!shipper_->PumpUntilSynced()) {
    *error = "follower did not sync the preload";
    return false;
  }
  if (background_shipping) {
    const StartOn on(placement.primary_cpu);
    shipper_->Start();
  }
  return true;
}

void Deployment::Stop() {
  if (shipper_) shipper_->Stop();
  shipper_probe_.Release();
  if (follower_tcp_) follower_tcp_->Stop();
  if (primary_tcp_) primary_tcp_->Stop();
}

}  // namespace perfbench
