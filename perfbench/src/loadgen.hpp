// Open-loop load generator over loopback TCP.
//
// A Lane is one client connection with its own arrival schedule and
// reply handling. Requests are sent when due, whether or not earlier
// replies have arrived (pipelined on the connection; the server answers
// in order), and each request is timed from when it was *due*, so a
// stall also charges the requests queued behind it. One generator thread
// serves one or more lanes from a non-blocking poll loop; the engine
// never runs more threads or connections than it is given lanes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplyInfo {
  std::uint64_t tag = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::span<const std::uint8_t> body;  // serialized net::Response
};

/// One connection's traffic. Build/OnReply run on the lane's generator
/// thread only.
class LaneLogic {
 public:
  virtual ~LaneLogic() = default;
  /// Fills the serialized net::Request for the next due request and
  /// returns its tag (handed back with the reply).
  virtual std::uint64_t Build(std::vector<std::uint8_t>* request) = 0;
  /// A reply arrived (in request order). Return false if it is wrong.
  virtual bool OnReply(const ReplyInfo& reply) = 0;
};

/// Per-lane counters of one phase.
struct LaneResult {
  std::uint64_t sent = 0;
  std::uint64_t replied = 0;
  std::uint64_t wrong = 0;       // OnReply returned false
  std::uint64_t lost = 0;        // transport errors and drain timeouts
  std::uint64_t backlog_max = 0; // most requests due at once but unsent
  bool overloaded = false;       // stopped sending: too many outstanding
  Samples late_us;               // send time minus due time
};

class OpenLoop {
 public:
  struct LaneConfig {
    std::string name;
    std::uint16_t port = 0;
    std::size_t thread = 0;  // generator thread index
    double rate = 0;         // requests/s at rate scale 1
    bool scaled = true;      // which RunPhase scale applies
    std::uint64_t seed = 0;  // arrival schedule seed
    LaneLogic* logic = nullptr;
  };
  /// Span names recorded per request when a SpanLog is given.
  struct SpanNames {
    std::uint32_t request = 0;  // due -> reply received (root)
    std::uint32_t send = 0;     // the write call that carried it
    std::uint32_t wait = 0;     // sent -> reply received
  };

  /// Generator thread t runs pinned to CPU t % GeneratorCpus().
  explicit OpenLoop(std::vector<LaneConfig> lanes);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Connects every lane (blocking). False on failure.
  bool Connect(std::string* error);

  /// Runs one phase: every scaled lane sends at rate * `rate_scale` and
  /// every other lane at rate * `unscaled_scale` for `seconds`, then waits
  /// up to `drain_s` for outstanding replies.
  /// Lanes whose rate is 0 send nothing. A lane with more than
  /// `max_outstanding` requests unanswered (0 = no cap) stops sending for
  /// the rest of the phase and reports itself overloaded: its backlog is
  /// growing, and draining an unbounded one would take unbounded time.
  /// With `closed_window` > 0 the scaled lanes run closed-loop instead,
  /// keeping that many requests outstanding (a capacity measurement);
  /// unscaled lanes keep their open-loop schedule. The calling thread runs
  /// `on_tick` about once a millisecond until the phase ends (it is not a
  /// generator thread). Returns per-lane results.
  std::vector<LaneResult> RunPhase(double seconds, double rate_scale,
                                   double unscaled_scale, double drain_s,
                                   std::size_t max_outstanding,
                                   std::size_t closed_window, SpanLog* spans,
                                   const SpanNames& names,
                                   const std::function<void()>& on_tick = {});

  std::size_t threads() const { return threads_; }
  std::size_t lanes() const { return lanes_.size(); }

 private:
  struct Lane;
  void ThreadLoop(std::size_t thread, double seconds, double rate_scale,
                  double unscaled_scale, double drain_s,
                  std::size_t max_outstanding, std::size_t closed_window,
                  std::int64_t start_ns, SpanLog* spans,
                  const SpanNames& names);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::size_t threads_ = 0;
};

}  // namespace perfbench
