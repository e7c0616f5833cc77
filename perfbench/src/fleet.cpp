// fleet_sync: open-loop traffic from a fleet of client daemons against
// the replicated deployment, over loopback TCP.
//
// Most requests are incremental GET(k) polls against the follower, each
// from a daemon that polls once per simulated day (PollLags). The cursors
// in use spread over the last two days of the log, more of them than the
// 2Q read cache has slices, and a trickle of ADDs to the primary keeps
// moving the log head, so polls mix cache hits, extends and cold scans.
// A few GET(0) bootstraps of the MB-sized preload run on their own
// connection, so small replies never queue behind them.
#include "workloads.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "checks.hpp"
#include "deploy.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "net/message.hpp"
#include "params.hpp"
#include "util/serde.hpp"

namespace perfbench {

namespace {

using communix::ErrorCode;
using communix::net::MsgType;
using communix::net::Request;
namespace P = params;

std::vector<std::uint8_t> GetRequest(std::uint64_t from) {
  Request r;
  r.type = MsgType::kGetSignatures;
  communix::BinaryWriter w;
  w.WriteU64(from);
  r.payload = w.take();
  return r.Serialize();
}

/// GET(k) polls of daemons whose cursors lag the follower's log by
/// PollLags, or GET(0) bootstraps (no lags).
class PollLogic final : public LaneLogic {
 public:
  PollLogic(std::unique_ptr<PollLags> lags,
            const communix::CommunixServer& follower)
      : lags_(std::move(lags)), follower_(follower) {}

  // Tag: the cursor polled.
  std::uint64_t Build(std::vector<std::uint8_t>* request) override {
    std::uint64_t from = 0;
    if (lags_) {
      const std::uint64_t head = follower_.db_size();
      from = head - std::min(head, lags_->Next());
    }
    *request = GetRequest(from);
    return from;
  }

  bool OnReply(const ReplyInfo& r) override {
    const std::uint64_t from = r.tag;
    latency.Add(r.due_ns, static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
    auto rep = ParseGetReply(r.body);
    if (!rep || rep->code != ErrorCode::kOk) return false;
    const auto region = rep->region;
    records.push_back(PollRecord{from, rep->count, Digest(region)});
    if (lags_) {
      if (rep->count == 0) ++empty;
      if (++replies_ % 97 == 0 && sampled.size() < 32 && rep->count > 0) {
        sampled.push_back({from, rep->count,
                           std::vector<std::uint8_t>(region.begin(),
                                                     region.end())});
      }
    }
    return true;
  }

  /// Replies whose bytes are compared with the primary's GetSince.
  struct Sampled {
    std::uint64_t from;
    std::uint32_t count;
    std::vector<std::uint8_t> region;
  };
  TimedSamples latency;  // us, stamped with the due time
  std::vector<PollRecord> records;
  std::vector<Sampled> sampled;
  std::uint64_t empty = 0;  // polls that found nothing new

 private:
  std::unique_ptr<PollLags> lags_;
  const communix::CommunixServer& follower_;
  std::uint64_t replies_ = 0;
};

/// The ADD trickle: fresh signatures, each of which must be accepted.
class AddLogic final : public LaneLogic {
 public:
  AddLogic(TrickleAdds adds, communix::CommunixServer& primary)
      : adds_(std::move(adds)), primary_(primary) {}

  std::uint64_t Build(std::vector<std::uint8_t>* request) override {
    Request r;
    r.type = MsgType::kAddSignature;
    r.payload = adds_.Next();
    *request = r.Serialize();
    return 0;
  }

  bool OnReply(const ReplyInfo& r) override {
    latency.Add(r.due_ns, static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
    if (!AddReplyMatches(r.body, ErrorCode::kOk)) return false;
    ++accepted;
    if (track_acks) acks.push_back({r.recv_ns, primary_.db_size()});
    return true;
  }

  struct Ack {
    std::int64_t at_ns;
    std::uint64_t primary_size;  // the follower covers the ADD at this size
  };
  TimedSamples latency;  // us, stamped with the due time
  std::uint64_t accepted = 0;
  bool track_acks = false;
  std::vector<Ack> acks;

 private:
  TrickleAdds adds_;
  communix::CommunixServer& primary_;
};

TimedSamples Merge(const std::vector<const TimedSamples*>& parts) {
  TimedSamples all;
  for (const TimedSamples* s : parts) all.Append(*s);
  return all;
}

double MergedQuantile(const std::vector<const TimedSamples*>& parts, double q,
                      std::uint64_t* count) {
  const TimedSamples all = Merge(parts);
  *count = all.count();
  return all.Values().Quantile(q);
}

/// First time the follower covered `size` entries at or after `t_ns`.
double ReplLagMs(const std::vector<std::pair<std::int64_t, std::uint64_t>>&
                     follower_sizes,
                 std::int64_t t_ns, std::uint64_t size) {
  auto it = std::lower_bound(
      follower_sizes.begin(), follower_sizes.end(), t_ns,
      [](const auto& s, std::int64_t t) { return s.first < t; });
  for (; it != follower_sizes.end(); ++it) {
    if (it->second >= size) return static_cast<double>(it->first - t_ns) / 1e6;
  }
  return -1;
}

/// While alive, keeps every CPU busy at the lowest scheduling class
/// (SCHED_IDLE), which any other thread preempts at once. A vCPU that
/// halts when idle wakes through the hypervisor, with a delay that
/// follows the load of the host's other tenants; at the nominal rate
/// every request would pay that delay two or three times over.
class KeepCpusAwake {
 public:
  KeepCpusAwake() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < cpus; ++c) {
      threads_.emplace_back([this, c] {
        PinThisThread(c);
        sched_param sp{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &sp);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~KeepCpusAwake() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

int RunFleet(const RunOptions& opt, Results& res) {
  const std::uint64_t seed = opt.seed;
  const FleetInputs in = MakeFleetInputs(seed);

  // The servers run on the CPUs the generator leaves free (see
  // GeneratorCpus): the follower's threads on the last CPU, the
  // primary's and the shipper's on the one before. Left to float, the
  // follower's dispatcher and workers settle into a different placement
  // on every run, and so do the cross-CPU wake-ups each poll pays.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const ServerPlacement placement{static_cast<int>(cpus) - 1,
                                  cpus > 1 ? static_cast<int>(cpus) - 2 : 0};
  PinThisThreadToCpus(GeneratorCpus(), cpus - GeneratorCpus());

  // ---- set-up, repeated; the last deployment is the one measured ----
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < P::kSetupRuns; ++i) {
    dep.reset();
    // Hand the discarded deployment's memory back to the system, so each
    // set-up starts from the same state and peak RSS reflects one
    // deployment, not the allocator's leftovers from the earlier ones.
    ::malloc_trim(0);
    const std::int64_t t0 = NowNs();
    dep = std::make_unique<Deployment>();
    std::string err;
    if (!dep->Start(in.preload, /*background_shipping=*/true, &err,
                    placement)) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  res.Gate("setup_s", Median(setup_s), "s", setup_s.size());
  res.EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  PinThisThreadToCpus(0, 0);

  auto& primary = dep->primary();
  auto& follower = dep->follower();
  const std::uint64_t head = follower.db_size();
  res.Check(head == in.preload_size, "follower holds the preload");

  // ---- lanes (each a connection; thread index = generator thread) ----
  std::vector<std::unique_ptr<PollLogic>> polls;
  std::vector<OpenLoop::LaneConfig> lanes;
  const std::uint16_t fport = dep->follower_tcp().port();
  const std::uint16_t pport = dep->primary_tcp().port();
  for (int l = 0; l < 2; ++l) {
    const std::string name = "poll" + std::to_string(l);
    polls.push_back(std::make_unique<PollLogic>(
        std::make_unique<PollLags>(
            seed, name, static_cast<std::uint64_t>(P::kSyncAddsPerDay)),
        follower));
    lanes.push_back({name, fport, static_cast<std::size_t>(l),
                     P::kSyncPollRate / 2, true, seed, polls.back().get()});
  }
  AddLogic adds(TrickleAdds(seed, 2, in.preload_size), primary);
  lanes.push_back({"trickle", pport, 1, P::kSyncAddRate, false, seed, &adds});
  PollLogic boot(nullptr, follower);
  lanes.push_back({"bootstrap", fport, 2, P::kSyncBootstrapRate, false, seed,
                   &boot});
  OpenLoop gen(lanes);
  {
    std::string err;
    if (!gen.Connect(&err)) {
      std::fprintf(stderr, "connect failed: %s\n", err.c_str());
      return 1;
    }
  }
  res.Note("transport", "loopback TCP (127.0.0.1), in-process servers");
  res.Note("generator_threads", std::to_string(gen.threads()));
  res.Note("generator_connections", std::to_string(gen.lanes()));

  std::vector<const TimedSamples*> poll_latency;
  for (auto& p : polls) poll_latency.push_back(&p->latency);
  auto reset_samples = [&] {
    for (auto& p : polls) {
      p->latency.Clear();
      p->empty = 0;
    }
    adds.latency.Clear();
    boot.latency.Clear();
  };
  // A wrong reply always fails the run; a lost one (transport error or
  // drain timeout) too, except in SLO-search steps, which overload the
  // server on purpose and simply fail the step.
  std::uint64_t search_lost = 0;
  auto account = [&](const std::vector<LaneResult>& lr, bool overload_step) {
    for (std::size_t i = 0; i < lr.size(); ++i) {
      const std::uint64_t lost = overload_step ? 0 : lr[i].lost;
      if (overload_step) search_lost += lr[i].lost;
      res.CheckMany(lr[i].sent, lr[i].wrong + lost,
                    "lane " + lanes[i].name + " wrong or lost replies");
    }
  };
  auto generator_state = [&](const std::vector<LaneResult>& lr,
                             double* late_p99, std::uint64_t* backlog) {
    Samples late;
    *backlog = 0;
    for (const auto& r : lr) {
      late.Append(r.late_us);
      *backlog = std::max(*backlog, r.backlog_max);
    }
    *late_p99 = late.empty() ? 0 : late.Quantile(0.99);
  };
  auto empty_polls = [&] {
    std::uint64_t e = 0;
    for (auto& p : polls) e += p->empty;
    return e;
  };

  const double S = opt.seconds;
  const OpenLoop::SpanNames no_spans;
  const KeepCpusAwake awake;  // until the run ends
  res.Note("cpus", "follower on CPU " + std::to_string(placement.follower_cpu) +
                       ", primary and shipper on CPU " +
                       std::to_string(placement.primary_cpu) +
                       ", idle CPUs kept awake by SCHED_IDLE spinners");
  // Warm-up: caches fill, connections and pools settle.
  account(gen.RunPhase(0.1 * S, 1.0, 1.0, 5.0, 0, 0, nullptr, no_spans), false);
  reset_samples();

  // ---- nominal-rate phase (untraced) ----
  const double nominal_s = 0.4 * S;
  const ServerView nominal_before =
      CaptureServer(follower, dep->follower_tcp());
  const auto nominal =
      gen.RunPhase(nominal_s, 1.0, 1.0, 5.0, 0, 0, nullptr, no_spans);
  account(nominal, false);
  {
    // The share of each store read path behind the nominal-phase polls.
    const ServerView after = CaptureServer(follower, dep->follower_tcp());
    std::string mix;
    for (const char* path : {"cache_hit", "cache_extend", "cold_scan"}) {
      const auto h = HistogramDelta(nominal_before.snap, after.snap,
                                    std::string("server.get.") + path + "_ns");
      mix += std::string(mix.empty() ? "" : " ") + path + "=" +
             std::to_string(h.count) + " (p50 " +
             std::to_string(h.ApproxQuantile(0.5)) + " ns)";
    }
    res.Note("nominal_read_paths", mix);
  }
  {
    double late_p99 = 0;
    std::uint64_t backlog = 0;
    generator_state(nominal, &late_p99, &backlog);
    res.EndToEnd("gen.late_p99_us", late_p99, "us", 0);
    if (late_p99 > P::kMaxLateP99Us || backlog > P::kMaxBacklog) {
      res.Invalidate("generator fell behind in the nominal phase: late p99 " +
                     std::to_string(late_p99) + " us, backlog " +
                     std::to_string(backlog));
    }
  }
  std::uint64_t n = 0;
  for (const auto& [q, name] : {std::pair{0.5, "poll_p50_us"},
                                {0.9, "poll_p90_us"},
                                {0.99, "poll_p99_us"}}) {
    const double v = MergedQuantile(poll_latency, q, &n);
    res.EndToEnd(name, v, "us", n);
  }
  // Load from other tenants of a shared host only ever slows a stretch
  // of the run down, so the gated figures come from its quieter part:
  // latency is the lower quartile of the 0.25 s windows' p50s (capacity,
  // below, the upper quartile of its windows). A change that slows every
  // window still moves them; a burst of host load in a few windows does
  // not.
  const std::size_t lat_windows = static_cast<std::size_t>(nominal_s / 0.25);
  auto quiet_p50 = [&](const TimedSamples& t, std::string* windows) {
    Samples per_window;
    for (double v : t.WindowQuantiles(250'000'000, lat_windows, 0.5)) {
      per_window.Add(v);
      if (windows != nullptr) {
        *windows += (windows->empty() ? "" : " ") + std::to_string(v);
      }
    }
    return per_window.Quantile(0.25);
  };
  std::string windows;
  const double poll_p50 = quiet_p50(Merge(poll_latency), &windows);
  res.Note("poll_p50_windows_us", windows);
  res.Gate("lat_p50_us", poll_p50, "us", n);
  res.Note("poll_empty_share",
           std::to_string(static_cast<double>(empty_polls()) /
                          static_cast<double>(std::max<std::uint64_t>(n, 1))));
  {
    // The trickle's sample supports a p90, not a p99.
    Samples a = adds.latency.Values();
    res.EndToEnd("add_p50_us", a.Quantile(0.5), "us", a.count());
    res.EndToEnd("add_p90_us", a.Quantile(0.9), "us", a.count());
    Samples b = boot.latency.Values();
    res.EndToEnd("bootstrap_p50_ms", b.Quantile(0.5) / 1e3, "ms", b.count());
    res.EndToEnd("bootstrap_p90_ms", b.Quantile(0.9) / 1e3, "ms", b.count());
    res.EndToEnd("bootstrap_p99_ms", b.Quantile(0.99) / 1e3, "ms", b.count());
  }

  // Peak memory of set-up plus the nominal load (the capacity and search
  // phases offer more than the nominal load).
  res.Gate("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  res.EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB", 1);

  if (!opt.trace) {
    // ---- capacity: the poll lanes closed-loop, a fixed window each;
    // bootstraps and the ADD trickle keep their rates.
    reset_samples();
    const double cap_s = 0.15 * S;
    const auto cap = gen.RunPhase(cap_s, 1.0, 1.0, 5.0, 0, P::kCapacityWindow,
                                  nullptr, no_spans);
    account(cap, false);
    const std::size_t windows = static_cast<std::size_t>(cap_s / 0.25);
    Samples per_window;
    for (double c : Merge(poll_latency).WindowCounts(250'000'000, windows)) {
      per_window.Add(c / 0.25);
    }
    const double capacity = per_window.Quantile(0.75);
    res.EndToEnd("sync_capacity_per_s", capacity, "req/s", per_window.count());
    res.Gate("rate_per_s", capacity, "1/s", per_window.count());

    // ---- SLO search: highest offered rate whose p90 meets the limit ----
    // A lane with this many requests unanswered has a growing backlog:
    // within the latency limit a lane holds at most a few dozen.
    constexpr std::size_t kStepOutstanding = 256;
    const double budget_ns = 0.3 * S * 1e9;
    const double step_s = 0.5;
    const std::int64_t search_start = NowNs();
    // Ramp up from the nominal rate in 50% steps until a step misses the
    // limit, then bisect the last bracket. Ramping (instead of bisecting
    // from a guess) finds the first rate that fails, which is what a
    // fleet growing its load would meet.
    double lo = 0, hi = 0, scale = 1.0;
    int steps = 0;
    while (static_cast<double>(NowNs() - search_start) + step_s * 1e9 <=
           budget_ns) {
      reset_samples();
      const auto lr = gen.RunPhase(step_s, scale, 1.0, 10.0, kStepOutstanding,
                                   0, nullptr, no_spans);
      account(lr, true);
      ++steps;
      std::uint64_t cnt = 0;
      const double p90 = MergedQuantile(poll_latency, 0.9, &cnt);
      std::uint64_t lost = 0;
      bool overloaded = false;
      for (const auto& r : lr) {
        lost += r.lost + r.wrong;
        overloaded = overloaded || r.overloaded;
      }
      const bool pass = lost == 0 && !overloaded && cnt > 0 &&
                        p90 <= P::kSyncPollLimitUs;
      std::printf("# search step %d: offered %.0f/s p90 %.1f us -> %s\n",
                  steps, scale * P::kSyncPollRate, p90,
                  pass ? "meets limit" : "misses limit");
      if (pass) {
        lo = scale;
      } else {
        hi = scale;
      }
      if (hi > 0 && lo > 0 && hi / lo <= P::kSearchResolution) break;
      scale = hi == 0 ? scale * 1.5 : (lo == 0 ? hi / 2 : std::sqrt(lo * hi));
    }
    res.EndToEnd("sync_rps_at_slo", lo * P::kSyncPollRate, "req/s",
                 static_cast<std::uint64_t>(steps));
    res.Note("search_bracket",
             std::to_string(lo * P::kSyncPollRate) + " .. " +
                 (hi > 0 ? std::to_string(hi * P::kSyncPollRate)
                         : std::string("unbounded")));
    res.Note("search_lost_replies", std::to_string(search_lost));
  }

  if (opt.trace) {
    // ---- traced phase: spans + ring and size samplers ----
    reset_samples();
    SpanLog spans;
    OpenLoop::SpanNames names{spans.Name("request"),
                              spans.Name("net.client_send"),
                              spans.Name("net.client_wait")};
    adds.track_acks = true;
    RingSampler follower_ring(follower.trace_ring());
    RingSampler primary_ring(primary.trace_ring());
    std::vector<std::pair<std::int64_t, std::uint64_t>> follower_sizes;
    const ServerView fb = CaptureServer(follower, dep->follower_tcp());
    const auto pb = primary.GetStats();
    const auto traced = gen.RunPhase(nominal_s, 1.0, 1.0, 5.0, 0, 0, &spans,
                                     names, [&] {
      follower_ring.Poll();
      primary_ring.Poll();
      const std::uint64_t sz = follower.db_size();
      if (follower_sizes.empty() || follower_sizes.back().second != sz) {
        follower_sizes.emplace_back(NowNs(), sz);
      }
    });
    account(traced, false);
    follower_ring.Poll();
    primary_ring.Poll();
    const ServerView fa = CaptureServer(follower, dep->follower_tcp());
    const auto pa = primary.GetStats();

    const TimedSamples traced_latency = Merge(poll_latency);
    const std::uint64_t cnt = traced_latency.count();
    const double traced_p50 = quiet_p50(traced_latency, nullptr);
    res.Layer("trace.overhead_ratio", traced_p50 / poll_p50, "ratio", cnt);
    double late_p99 = 0;
    std::uint64_t backlog = 0;
    generator_state(traced, &late_p99, &backlog);
    res.Layer("gen.late_p99_us", late_p99, "us", 1);
    res.Layer("gen.backlog_max", static_cast<double>(backlog), "count", 1);
    res.Layer("store.get.empty_replies", static_cast<double>(empty_polls()),
              "count", cnt);

    const auto all = spans.Merged();
    Samples send_us, wait_us;
    for (const Span& s : all) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (s.name == names.send) send_us.Add(us);
      if (s.name == names.wait) wait_us.Add(us);
    }
    if (!send_us.empty()) {
      res.Layer("net.client_send_us", send_us.Quantile(0.5), "us",
                send_us.count());
      res.Layer("net.client_wait_us", wait_us.Quantile(0.5), "us",
                wait_us.count());
    }
    ReportServerStages(res, "get",
                       static_cast<std::uint8_t>(MsgType::kGetSignatures),
                       follower_ring.records());
    ReportServerStages(res, "repl_batch",
                       static_cast<std::uint8_t>(MsgType::kReplBatch),
                       follower_ring.records());
    ReportServerStages(res, "add",
                       static_cast<std::uint8_t>(MsgType::kAddSignature),
                       primary_ring.records());
    const double pushed = static_cast<double>(
        follower_ring.pushed_since_start() + primary_ring.pushed_since_start());
    if (pushed > 0) {
      res.Layer("server.trace_sample_ratio",
                static_cast<double>(follower_ring.records().size() +
                                    primary_ring.records().size()) /
                    pushed,
                "ratio", static_cast<std::uint64_t>(pushed));
    }
    const double processed =
        static_cast<double>(pa.adds_processed - pb.adds_processed);
    if (processed > 0) {
      res.Layer("server.add_accept_ratio",
                static_cast<double>(pa.adds_accepted - pb.adds_accepted) /
                    processed,
                "ratio", static_cast<std::uint64_t>(processed));
    }
    ReportStore(res, fb, fa);
    ReportNetServer(res, fb, fa);
    const double batches = static_cast<double>(
        fa.stats.repl_batches_applied - fb.stats.repl_batches_applied);
    if (batches > 0) {
      res.Layer("cluster.entries_per_batch",
                static_cast<double>(fa.stats.repl_entries_applied -
                                    fb.stats.repl_entries_applied) /
                    batches,
                "count", static_cast<std::uint64_t>(batches));
    }
    Samples lag_ms;
    for (const auto& ack : adds.acks) {
      const double lag = ReplLagMs(follower_sizes, ack.at_ns, ack.primary_size);
      if (lag >= 0) lag_ms.Add(lag);
    }
    if (!lag_ms.empty()) {
      res.Layer("cluster.repl_lag_ms", lag_ms.Quantile(0.5), "ms",
                lag_ms.count());
    }
    SaveSpans(spans, opt.out_dir, res);
  }

  // ---- correctness: replicas converge; every reply matches the log ----
  dep->shipper().Stop();
  res.Check(dep->shipper().PumpUntilSynced(), "final PumpUntilSynced");
  const auto ref_entries = primary.GetSince(0);
  res.Check(follower.GetSince(0) == ref_entries,
            "follower GET(0) stream byte-identical to the primary's");
  LogReference ref(ref_entries);
  std::uint64_t bad = 0, total = 0;
  auto check_records = [&](PollLogic& p) {
    for (const auto& rec : p.records) {
      ++total;
      if (!ref.Matches(rec)) ++bad;
    }
    for (const auto& s : p.sampled) {
      const auto direct = primary.GetSince(s.from);
      std::vector<std::vector<std::uint8_t>> first(
          direct.begin(),
          direct.begin() + std::min<std::size_t>(direct.size(), s.count));
      LogReference slice(first);
      res.Check(slice.size() == s.count &&
                    slice.MatchesBytes(0, s.count, s.region),
                "sampled poll reply byte-identical to primary GetSince");
    }
  };
  for (auto& p : polls) check_records(*p);
  check_records(boot);
  res.CheckMany(total, bad,
                "poll replies hold the primary's entries from their cursor");
  res.Check(primary.db_size() == in.preload_size + adds.accepted,
            "primary log grew by exactly the accepted ADDs");
  res.Note("db_size", std::to_string(in.preload_size) + " -> " +
                          std::to_string(primary.db_size()));

  SaveSnapshot(opt.out_dir, "primary", *dep->primary_metrics());
  SaveSnapshot(opt.out_dir, "follower", *dep->follower_metrics());
  dep->Stop();
  return 0;
}

}  // namespace perfbench
