#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>

#include "inputs.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
constexpr std::size_t kMaxReplyFrame = 512u * 1024u * 1024u;

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

struct OpenLoop::Lane {
  struct Pending {
    std::uint64_t tag = 0;
    std::int64_t due_ns = 0;
    std::int64_t sent_ns = 0;
    std::uint64_t end_byte = 0;  // stream offset just past this frame
    std::uint64_t span_id = 0;
  };

  LaneConfig cfg;
  ArrivalSchedule schedule;
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::uint64_t appended = 0;  // stream bytes queued since connect
  std::uint64_t written = 0;   // stream bytes handed to the kernel
  std::size_t first_unsent = 0;  // index into inflight
  std::deque<Pending> inflight;
  std::vector<std::uint8_t> in;
  std::size_t in_len = 0;
  std::vector<std::uint8_t> request;  // scratch
  std::int64_t next_due = kNever;
  LaneResult result;

  explicit Lane(LaneConfig c)
      : cfg(std::move(c)), schedule(cfg.seed, "arrivals:" + cfg.name) {}

  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  /// Transport failure: every outstanding request is lost.
  void Break() {
    result.lost += inflight.size();
    inflight.clear();
    first_unsent = 0;
    out.clear();
    out_off = 0;
    in_len = 0;
    Close();
  }
};

OpenLoop::OpenLoop(std::vector<LaneConfig> lanes) {
  for (auto& c : lanes) {
    threads_ = std::max(threads_, c.thread + 1);
    lanes_.push_back(std::make_unique<Lane>(std::move(c)));
  }
}

OpenLoop::~OpenLoop() {
  for (auto& l : lanes_) l->Close();
}

bool OpenLoop::Connect(std::string* error) {
  for (auto& l : lanes_) {
    if (l->fd >= 0) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(l->cfg.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = "connect " + l->cfg.name + ": " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    l->fd = fd;
    l->appended = l->written = 0;
  }
  return true;
}

std::vector<LaneResult> OpenLoop::RunPhase(
    double seconds, double rate_scale, double unscaled_scale, double drain_s,
    std::size_t max_outstanding, std::size_t closed_window, SpanLog* spans,
    const SpanNames& names, const std::function<void()>& on_tick) {
  for (auto& l : lanes_) l->result = LaneResult{};
  std::string ignored;
  Connect(&ignored);  // re-establishes lanes a failure closed
  const std::int64_t start_ns = NowNs() + 1'000'000;  // threads spin up
  std::atomic<std::size_t> running{threads_};
  std::vector<std::thread> threads;
  threads.reserve(threads_);
  for (std::size_t t = 0; t < threads_; ++t) {
    threads.emplace_back([&, t] {
      ThreadLoop(t, seconds, rate_scale, unscaled_scale, drain_s,
                 max_outstanding,
                 closed_window, start_ns, spans, names);
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    if (on_tick) on_tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& th : threads) th.join();
  std::vector<LaneResult> out;
  out.reserve(lanes_.size());
  for (auto& l : lanes_) out.push_back(std::move(l->result));
  return out;
}

void OpenLoop::ThreadLoop(std::size_t thread, double seconds,
                          double rate_scale, double unscaled_scale,
                          double drain_s,
                          std::size_t max_outstanding,
                          std::size_t closed_window, std::int64_t start_ns,
                          SpanLog* spans,
                          const SpanNames& names) {
  // Wake-ups land within ~1 us of the requested time instead of the
  // default 50 us timer slack, so lateness reflects load, not slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  // The generator is the measuring instrument: raised priority keeps its
  // own scheduling delays out of the server latency it reports. Best
  // effort; without the privilege the thread runs at normal priority.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10);
  PinThisThread(static_cast<unsigned>(thread) % GeneratorCpus());
  std::vector<Lane*> mine;
  for (auto& l : lanes_) {
    if (l->cfg.thread == thread) mine.push_back(l.get());
  }
  SpanLog::ThreadBuffer* buf = spans != nullptr ? &spans->Buffer() : nullptr;
  const std::int64_t end_ns =
      start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_deadline =
      end_ns + static_cast<std::int64_t>(drain_s * 1e9);
  auto closed = [&](const Lane& l) {
    return closed_window > 0 && l.cfg.scaled && l.cfg.rate > 0;
  };
  for (Lane* l : mine) {
    const double rate =
        l->cfg.rate * (l->cfg.scaled ? rate_scale : unscaled_scale);
    l->next_due = rate > 0 ? l->schedule.Next(start_ns, rate) : kNever;
  }

  auto flush = [&](Lane& l) {
    while (l.fd >= 0 && l.out_off < l.out.size()) {
      const std::int64_t w0 = NowNs();
      const ssize_t n = ::send(l.fd, l.out.data() + l.out_off,
                               l.out.size() - l.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        l.Break();
        return;
      }
      const std::int64_t w1 = NowNs();
      l.out_off += static_cast<std::size_t>(n);
      l.written += static_cast<std::uint64_t>(n);
      while (l.first_unsent < l.inflight.size() &&
             l.inflight[l.first_unsent].end_byte <= l.written) {
        Lane::Pending& p = l.inflight[l.first_unsent++];
        p.sent_ns = w1;
        if (buf != nullptr) {
          SpanLog::Record(*buf, names.send, buf->NewId(), p.span_id, p.tag,
                          w0, w1);
        }
      }
    }
    if (l.out_off == l.out.size()) {
      l.out.clear();
      l.out_off = 0;
    }
  };

  auto read_all = [&](Lane& l) {
    for (;;) {
      if (l.fd < 0) return;
      // Size the buffer for the whole pending frame once its header is in.
      std::size_t want = l.in_len + 64 * 1024;
      if (l.in_len >= 4) {
        want = std::max<std::size_t>(want, 4 + GetU32(l.in.data()) + 4);
      }
      if (l.in.size() < want) l.in.resize(want);
      const ssize_t n =
          ::recv(l.fd, l.in.data() + l.in_len, l.in.size() - l.in_len, 0);
      if (n == 0) {
        l.Break();
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        l.Break();
        return;
      }
      const std::int64_t recv_ns = NowNs();
      l.in_len += static_cast<std::size_t>(n);
      std::size_t pos = 0;
      while (l.in_len - pos >= 4) {
        const std::uint32_t len = GetU32(l.in.data() + pos);
        if (len > kMaxReplyFrame || l.inflight.empty()) {
          l.result.wrong += 1;
          l.Break();
          return;
        }
        if (l.in_len - pos < 4 + static_cast<std::size_t>(len)) break;
        Lane::Pending p = l.inflight.front();
        l.inflight.pop_front();
        if (l.first_unsent > 0) --l.first_unsent;
        if (p.sent_ns == 0) p.sent_ns = recv_ns;
        ReplyInfo info;
        info.tag = p.tag;
        info.due_ns = p.due_ns;
        info.sent_ns = p.sent_ns;
        info.recv_ns = recv_ns;
        info.body = std::span<const std::uint8_t>(l.in.data() + pos + 4, len);
        if (!l.cfg.logic->OnReply(info)) ++l.result.wrong;
        ++l.result.replied;
        if (buf != nullptr) {
          SpanLog::Record(*buf, names.request, p.span_id, 0, p.tag, p.due_ns,
                          recv_ns);
          SpanLog::Record(*buf, names.wait, buf->NewId(), p.span_id, p.tag,
                          p.sent_ns, recv_ns);
        }
        pos += 4 + len;
      }
      if (pos > 0) {
        std::memmove(l.in.data(), l.in.data() + pos, l.in_len - pos);
        l.in_len -= pos;
      }
    }
  };

  std::vector<pollfd> pfds;
  for (;;) {
    const std::int64_t now = NowNs();
    std::int64_t next_wake = kNever;
    for (Lane* lp : mine) {
      Lane& l = *lp;
      if (l.fd < 0) continue;
      if (max_outstanding > 0 && l.inflight.size() > max_outstanding) {
        l.result.overloaded = true;
        l.next_due = kNever;
      }
      auto enqueue = [&](std::int64_t due) {
        l.request.clear();
        const std::uint64_t tag = l.cfg.logic->Build(&l.request);
        PutU32(l.out, static_cast<std::uint32_t>(l.request.size()));
        l.out.insert(l.out.end(), l.request.begin(), l.request.end());
        l.appended += 4 + l.request.size();
        Lane::Pending p;
        p.tag = tag;
        p.due_ns = due;
        p.end_byte = l.appended;
        p.span_id = buf != nullptr ? buf->NewId() : 0;
        l.inflight.push_back(p);
        l.result.late_us.Add(static_cast<double>(now - due) / 1e3);
        ++l.result.sent;
      };
      if (closed(l)) {
        // Closed loop: a request is due whenever the window has room.
        while (now < end_ns && l.inflight.size() < closed_window) enqueue(now);
      } else {
        std::uint64_t due_now = 0;
        while (l.next_due <= now && l.next_due < end_ns) {
          enqueue(l.next_due);
          ++due_now;
          l.next_due = l.schedule.Next(
              l.next_due,
              l.cfg.rate * (l.cfg.scaled ? rate_scale : unscaled_scale));
        }
        l.result.backlog_max = std::max(l.result.backlog_max, due_now);
        if (l.next_due < end_ns) next_wake = std::min(next_wake, l.next_due);
      }
      flush(l);
    }
    if (now >= end_ns) {
      bool idle = true;
      for (Lane* l : mine) idle = idle && l->inflight.empty();
      if (idle) break;
      if (now >= drain_deadline) {
        for (Lane* l : mine) {
          if (!l->inflight.empty()) l->Break();
        }
        break;
      }
    }
    pfds.clear();
    for (Lane* l : mine) {
      if (l->fd < 0) continue;
      short ev = POLLIN;
      if (l->out_off < l->out.size()) ev |= POLLOUT;
      pfds.push_back(pollfd{l->fd, ev, 0});
    }
    if (pfds.empty()) break;
    std::int64_t wait_ns = 5'000'000;
    if (next_wake != kNever) wait_ns = std::min(wait_ns, next_wake - NowNs());
    if (now < end_ns) wait_ns = std::min(wait_ns, end_ns - NowNs());
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (rc <= 0) continue;
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      for (Lane* l : mine) {
        if (l->fd != p.fd) continue;
        if (p.revents & (POLLIN | POLLHUP | POLLERR)) read_all(*l);
        if (p.revents & POLLOUT) flush(*l);
      }
    }
  }
}

}  // namespace perfbench
