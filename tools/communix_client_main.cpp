// communix_client — the per-machine Communix client daemon (§III-B).
//
// Periodically performs an incremental GET against the server and appends
// new signatures to a file-backed local repository that agents on this
// machine inspect at application start.
//
//   communix_client [--host H] [--port N] [--repo PATH]
//                   [--period-seconds S] [--once] [--upload HISTORY]
//
// --upload first sends every signature of a Dimmunix history file (e.g.
// the one examples/quickstart saves) to the server as ADDs, under a token
// the server issues for user id 1 — a way to feed a deployment from the
// shell.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "communix/client.hpp"
#include "dimmunix/history.hpp"
#include "net/tcp.hpp"
#include "util/serde.hpp"
#include "util/clock.hpp"
#include "util/logging.hpp"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

/// Sends every signature of the history at `path` as an ADD; returns the
/// number the server accepted, or -1 if nothing could be sent.
int UploadHistory(const std::string& host, std::uint16_t port,
                  const std::string& path) {
  namespace net = communix::net;
  auto history = communix::dimmunix::History::LoadFromFile(path);
  if (!history.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                 history.status().ToString().c_str());
    return -1;
  }
  net::TcpClient transport;
  if (auto s = transport.Connect(host, port); !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return -1;
  }
  communix::BinaryWriter iw;
  iw.WriteU64(1);
  net::Request issue;
  issue.type = net::MsgType::kIssueId;
  issue.payload = iw.take();
  auto token = transport.Call(issue);
  if (!token.ok() || !token.value().ok()) {
    std::fprintf(stderr, "token request failed\n");
    return -1;
  }
  int accepted = 0;
  for (const auto& rec : history.value().records()) {
    communix::BinaryWriter w;
    w.WriteRaw(std::span<const std::uint8_t>(token.value().payload.data(),
                                             token.value().payload.size()));
    rec.sig.Serialize(w);
    net::Request add;
    add.type = net::MsgType::kAddSignature;
    add.payload = w.take();
    auto reply = transport.Call(add);
    if (reply.ok() && reply.value().ok()) ++accepted;
  }
  std::printf("uploaded %d/%zu signature(s) from %s\n", accepted,
              history.value().size(), path.c_str());
  return accepted;
}
}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7411;
  std::string repo_path = "communix_repo.db";
  long period_seconds = 86'400;  // the paper's once-a-day default
  bool once = false;
  std::string upload_path;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = need_value("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<std::uint16_t>(std::atoi(need_value("--port")));
    } else if (std::strcmp(argv[i], "--repo") == 0) {
      repo_path = need_value("--repo");
    } else if (std::strcmp(argv[i], "--period-seconds") == 0) {
      period_seconds = std::atol(need_value("--period-seconds"));
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--upload") == 0) {
      upload_path = need_value("--upload");
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host H] [--port N] [--repo PATH] "
                   "[--period-seconds S] [--once] [--upload HISTORY]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!upload_path.empty() && UploadHistory(host, port, upload_path) < 0) {
    return 1;
  }

  communix::SetLogLevel(communix::LogLevel::kInfo);
  communix::LocalRepository repo;
  if (std::filesystem::exists(repo_path)) {
    if (auto s = communix::LocalRepository::LoadFromFile(repo_path, repo);
        !s.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", repo_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }
  std::printf("repository %s: %zu signatures (next server index %llu)\n",
              repo_path.c_str(), repo.size(),
              static_cast<unsigned long long>(repo.next_server_index()));

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  do {
    communix::net::TcpClient transport;
    if (auto s = transport.Connect(host, port); !s.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    } else {
      communix::CommunixClient client(communix::SystemClock::Instance(),
                                      transport, repo);
      auto fetched = client.PollOnce();
      if (fetched.ok()) {
        std::printf("fetched %zu new signature(s); repository now %zu\n",
                    fetched.value(), repo.size());
        if (fetched.value() > 0) {
          if (auto s = repo.SaveToFile(repo_path); !s.ok()) {
            std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
          }
        }
      } else {
        std::fprintf(stderr, "poll failed: %s\n",
                     fetched.status().ToString().c_str());
      }
    }
    if (once) break;
    for (long waited = 0; waited < period_seconds && !g_stop; ++waited) {
      communix::SystemClock::Instance().SleepFor(1'000'000'000);
    }
  } while (!g_stop);

  return 0;
}
