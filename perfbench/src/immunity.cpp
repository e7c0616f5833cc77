// immunity: time-to-immunity, the paper's headline promise that one
// user's deadlock protects every other user.
//
// Each iteration deterministically deadlocks user A's runtime on a new
// pair of nested sites of the app: thread 1 holds the monitor of site a
// and blocks in a's helper on thread 2's monitor; once thread 1 is
// parked, thread 2 (holding b's monitor) requests thread 1's monitor.
// The clock starts at that Acquire, which closes the cycle and returns
// kDeadlock. The same thread then runs every hop back to back, each
// starting as soon as the previous returns: A's plugin uploads over TCP
// to the primary, the LogShipper ships one round to the follower, user
// B's client polls the follower, and B's agent validates and installs
// the signature. The clock stops when ProcessNewSignatures returns with
// the signature in B's history. There are no cadence sleeps, so the
// metric is the cost of the pipeline itself. A and B restart (fresh
// runtimes) every params::kImmunityRecycle iterations so history growth
// does not drift the metric.
#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bytecode/nesting.hpp"
#include "bytecode/synthetic.hpp"
#include "communix/agent.hpp"
#include "communix/client.hpp"
#include "communix/plugin.hpp"
#include "deploy.hpp"
#include "dimmunix/runtime.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "net/message.hpp"
#include "params.hpp"
#include "sim/stacks.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using communix::CommunixAgent;
using communix::CommunixClient;
using communix::CommunixPlugin;
using communix::LocalRepository;
using communix::dimmunix::DimmunixRuntime;
using communix::dimmunix::Frame;
using communix::dimmunix::Monitor;
using communix::dimmunix::Signature;
using communix::dimmunix::ThreadContext;
namespace bc = communix::bytecode;

/// Pushes a frame sequence for the lifetime of the object.
class Frames {
 public:
  Frames(ThreadContext& ctx, const std::vector<Frame>& frames)
      : ctx_(ctx), n_(frames.size()) {
    for (const Frame& f : frames) ctx_.PushFrame(f);
  }
  ~Frames() {
    for (std::size_t i = 0; i < n_; ++i) ctx_.PopFrame();
  }
  Frames(const Frames&) = delete;
  Frames& operator=(const Frames&) = delete;

 private:
  ThreadContext& ctx_;
  std::size_t n_;
};

/// A nested site's frames: canonical outer path and its helper frame.
struct SitePath {
  std::vector<Frame> outer;
  std::uint32_t enter_line = 0;
  Frame helper;
  std::uint32_t helper_line = 0;
};

SitePath PathOf(const bc::SyntheticApp& app, std::int32_t site) {
  SitePath p;
  p.outer = communix::sim::CanonicalStackFrames(app, site);
  p.enter_line = app.program.lock_site(site).line;
  const auto inner = communix::sim::FindInnerSite(app, site);
  p.helper = communix::sim::SiteFrame(app.program, inner.value_or(site));
  p.helper_line = p.helper.line;
  return p;
}

void WaitFor(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

/// Timestamps of one propagation (ns). Hops are contiguous.
struct Timeline {
  std::int64_t start = 0, detected = 0, uploaded = 0, shipped = 0,
               polled = 0, installed = 0;
  std::int64_t covered = 0;  // first seen: the follower holds the upload
  std::uint64_t empty_polls = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> polls;
  bool deadlock_returned = false;
  bool upload_ok = false;
  std::size_t accepted = 0;
  std::uint64_t content_id = 0;  // of the signature A uploaded
};

/// User B: a client daemon with its repository, a runtime and an agent.
struct UserB {
  UserB(const bc::SyntheticApp& app, const bc::NestingReport& nesting,
        communix::net::ClientTransport& link, LocalRepository& repo)
      : runtime(communix::SystemClock::Instance()),
        client(communix::SystemClock::Instance(), link, repo),
        agent(runtime, app.program, repo, nesting, CommunixAgent::Options{}) {}
  DimmunixRuntime runtime;
  CommunixClient client;
  CommunixAgent agent;
};

/// Replays A's lock order on B's runtime (outside the timed interval).
/// Thread 1 holds a's monitor and waits until thread 2, entering b's
/// monitor, is either parked (avoidance suspended it) or through; only
/// then does thread 1 request b's monitor. Avoided: no kDeadlock and a
/// suspension counted. Not avoided: thread 2 holds b's monitor, both
/// requests close a cycle, and one side gets kDeadlock.
bool ReplayIsAvoided(DimmunixRuntime& rt, const SitePath& a,
                     const SitePath& b) {
  Monitor m1("replay-a"), m2("replay-b");
  std::atomic<bool> held1{false}, held2{false}, failed{false};
  std::atomic<ThreadContext*> ctx2{nullptr};
  const auto before = rt.GetStats().avoidance_suspensions;
  auto side = [&](const SitePath& p, Monitor& mine, Monitor& theirs,
                  bool first) {
    ThreadContext& ctx = rt.AttachThread(first ? "replay1" : "replay2");
    if (!first) ctx2 = &ctx;
    {
      Frames f(ctx, p.outer);
      ctx.SetLine(p.enter_line);
      if (!first) WaitFor(held1);
      if (!rt.Acquire(ctx, mine).ok()) {
        failed = true;
      } else {
        if (first) {
          held1 = true;
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (!held2.load() && std::chrono::steady_clock::now() < deadline &&
                 !(ctx2.load() != nullptr &&
                   rt.IsQuiescentlyParkedForTest(*ctx2.load()))) {
            std::this_thread::yield();
          }
        } else {
          held2 = true;
        }
        ctx.PushFrame(p.helper);
        ctx.SetLine(p.helper_line);
        if (rt.Acquire(ctx, theirs).ok()) {
          rt.Release(ctx, theirs);
        } else {
          failed = true;
        }
        ctx.PopFrame();
        rt.Release(ctx, mine);
      }
    }
    rt.DetachThread(ctx);
  };
  std::thread t1(side, std::cref(a), std::ref(m1), std::ref(m2), true);
  std::thread t2(side, std::cref(b), std::ref(m2), std::ref(m1), false);
  t1.join();
  t2.join();
  return !failed && rt.GetStats().avoidance_suspensions > before;
}

}  // namespace

int RunImmunity(const RunOptions& opt, Results& res) {
  const double S = opt.seconds;

  // ---- set-up (repeated; median): app, nesting, deployment ----
  std::vector<double> setup_s;
  std::unique_ptr<bc::SyntheticApp> app;
  std::unique_ptr<bc::NestingReport> nesting;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < params::kQuickSetupRuns; ++i) {
    dep.reset();
    const std::int64_t t0 = NowNs();
    app = std::make_unique<bc::SyntheticApp>(
        bc::GenerateApp(bc::JBossProfile()));
    nesting = std::make_unique<bc::NestingReport>(
        bc::NestingAnalysis(app->program).AnalyzeAll());
    dep = std::make_unique<Deployment>();
    std::string err;
    if (!dep->Start({}, /*background_shipping=*/false, &err)) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  res.Gate("setup_s", Median(setup_s), "s", setup_s.size());
  res.EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  // Memory of set-up: each propagation later adds a signature to both
  // replicas and to B's repository, so the end-of-run peak would track
  // how many propagations a run completed.
  res.Gate("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  res.EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  res.Note("transport", "loopback TCP (127.0.0.1), in-process servers");

  // Once every pair of nested sites has deadlocked, the run goes on with
  // the same app under new class names (an "epoch"), so each signature
  // is still new to the community. Epochs start on a recycle.
  SitePairs pairs(*app, opt.seed);
  const std::uint64_t epoch_len =
      pairs.count() / params::kImmunityRecycle * params::kImmunityRecycle;

  communix::net::TcpClient a_link, b_link;
  if (!a_link.Connect("127.0.0.1", dep->primary_tcp().port()).ok() ||
      !b_link.Connect("127.0.0.1", dep->follower_tcp().port()).ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  communix::IdAuthority authority;
  LocalRepository repo_b;

  // ---- user A: two app threads driven one iteration at a time ----
  struct Job {
    SitePath a, b;
    std::uint64_t iteration = 0;
    std::uint64_t user = 0;
  };
  std::unique_ptr<DimmunixRuntime> rt_a;
  std::unique_ptr<UserB> user_b;
  std::mutex sig_mu;
  std::optional<Signature> detected;

  SpanLog spans;
  const std::uint32_t n_root = spans.Name("immunity");
  const std::uint32_t n_detect = spans.Name("dimmunix.detect");
  const std::uint32_t n_upload = spans.Name("plugin.upload");
  const std::uint32_t n_ship = spans.Name("cluster.ship_round");
  const std::uint32_t n_poll = spans.Name("client.poll");
  const std::uint32_t n_agent = spans.Name("agent.process");
  SpanLog::ThreadBuffer& buf = spans.Buffer();

  // Runs one propagation; returns its timeline. A's two threads are
  // fresh per iteration (thread start-up is outside the timed interval).
  auto propagate = [&](const Job& job) {
    Timeline tl;
    Monitor m1("a-site"), m2("b-site");
    std::atomic<bool> held1{false}, held2{false}, parked1{false};
    ThreadContext* ctx1 = nullptr;
    std::atomic<bool> ctx1_ready{false};
    std::thread t1([&] {
      PinThisThread(1);
      ThreadContext& ctx = rt_a->AttachThread("a-worker1");
      ctx1 = &ctx;
      ctx1_ready = true;
      {
        Frames f(ctx, job.a.outer);
        ctx.SetLine(job.a.enter_line);
        if (rt_a->Acquire(ctx, m1).ok()) {
          held1 = true;
          WaitFor(held2);
          ctx.PushFrame(job.a.helper);
          ctx.SetLine(job.a.helper_line);
          if (rt_a->Acquire(ctx, m2).ok()) rt_a->Release(ctx, m2);
          ctx.PopFrame();
          rt_a->Release(ctx, m1);
        }
      }
      rt_a->DetachThread(ctx);
    });
    std::thread t2([&] {
      PinThisThread(0);
      ThreadContext& ctx = rt_a->AttachThread("a-worker2");
      {
        Frames f(ctx, job.b.outer);
        ctx.SetLine(job.b.enter_line);
        WaitFor(held1);
        if (rt_a->Acquire(ctx, m2).ok()) {
          held2 = true;
          WaitFor(ctx1_ready);
          while (!rt_a->IsQuiescentlyParkedForTest(*ctx1)) {
            std::this_thread::yield();
          }
          parked1 = true;
          ctx.PushFrame(job.b.helper);
          ctx.SetLine(job.b.helper_line);
          tl.start = NowNs();
          const auto st = rt_a->Acquire(ctx, m1);
          tl.detected = NowNs();
          tl.deadlock_returned = !st.ok();
          if (st.ok()) rt_a->Release(ctx, m1);
          ctx.PopFrame();
          rt_a->Release(ctx, m2);  // unwind: A's thread 1 proceeds
          // The rest of the pipeline, hop after hop, on this thread.
          std::optional<Signature> sig;
          {
            std::lock_guard lock(sig_mu);
            sig.swap(detected);
          }
          if (sig) {
            CommunixPlugin plugin(*rt_a, app->program, a_link,
                                  authority.Issue(job.user));
            tl.upload_ok = plugin.UploadSignature(*sig).ok();
            tl.uploaded = NowNs();
            // Replication lag is sampled from outside: the follower's
            // size, read after every ship round (retries too), against
            // the primary's size at the upload ack.
            const std::uint64_t target = dep->primary().db_size();
            auto ship = [&] {
              dep->shipper().ShipRound();
              if (tl.covered == 0 && dep->follower().db_size() >= target) {
                tl.covered = NowNs();
              }
            };
            ship();
            tl.shipped = NowNs();
            for (int tries = 0; tries < 100; ++tries) {
              const std::int64_t p0 = NowNs();
              auto got = user_b->client.PollOnce();
              const std::int64_t p1 = NowNs();
              tl.polls.emplace_back(p0, p1);
              if (got.ok() && got.value() > 0) break;
              ++tl.empty_polls;
              if (tries % 4 == 3) ship();
            }
            tl.polled = NowNs();
            tl.accepted = user_b->agent.ProcessNewSignatures().accepted;
            tl.installed = NowNs();
            tl.content_id = plugin.AttachHashes(*sig).ContentId();
          }
        }
      }
      rt_a->DetachThread(ctx);
    });
    t1.join();
    t2.join();
    return tl;
  };

  auto recycle = [&] {
    user_b.reset();
    rt_a = std::make_unique<DimmunixRuntime>(communix::SystemClock::Instance());
    rt_a->SetNewSignatureCallback([&](const Signature& sig) {
      std::lock_guard lock(sig_mu);
      detected = sig;
    });
    user_b = std::make_unique<UserB>(*app, *nesting, b_link, repo_b);
  };

  TimedSamples untraced_us, traced_us;
  Samples detect_us, upload_us, ship_us, poll_us, agent_ms, lag_ms;
  std::uint64_t empty_polls = 0, replays = 0, replay_ok = 0;
  std::uint64_t iteration = 0;

  RingSampler* rings[2] = {nullptr, nullptr};  // primary, follower
  auto run_phase = [&](double seconds, bool traced, bool measured,
                       TimedSamples* out) {
    const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    while (NowNs() < end) {
      if (iteration > 0 && iteration % epoch_len == 0) {
        user_b.reset();  // it refers to the outgoing app
        bc::SyntheticSpec spec = bc::JBossProfile();
        spec.name += ".e" + std::to_string(iteration / epoch_len);
        app = std::make_unique<bc::SyntheticApp>(bc::GenerateApp(spec));
        nesting = std::make_unique<bc::NestingReport>(
            bc::NestingAnalysis(app->program).AnalyzeAll());
        pairs = SitePairs(*app, opt.seed);
      }
      if (iteration % params::kImmunityRecycle == 0) recycle();
      const auto [sa, sb] = pairs.Pair(iteration % epoch_len);
      Job job{PathOf(*app, sa), PathOf(*app, sb), iteration,
              communix::MakeUserId(4, iteration + 1)};
      const Timeline tl = propagate(job);
      const bool in_history =
          user_b->runtime.SnapshotHistory().ContainsContent(tl.content_id);
      res.Check(tl.deadlock_returned && tl.upload_ok && tl.accepted == 1 &&
                    in_history,
                "propagation " + std::to_string(iteration) +
                    ": B's history holds the signature A detected");
      if (measured) {
        out->Add(tl.start, static_cast<double>(tl.installed - tl.start) / 1e3);
      }
      if (traced) {
        const std::uint64_t root = buf.NewId();
        SpanLog::Record(buf, n_root, root, 0, iteration, tl.start,
                        tl.installed);
        SpanLog::Record(buf, n_detect, buf.NewId(), root, iteration, tl.start,
                        tl.detected);
        SpanLog::Record(buf, n_upload, buf.NewId(), root, iteration,
                        tl.detected, tl.uploaded);
        SpanLog::Record(buf, n_ship, buf.NewId(), root, iteration, tl.uploaded,
                        tl.shipped);
        for (const auto& [p0, p1] : tl.polls) {
          SpanLog::Record(buf, n_poll, buf.NewId(), root, iteration, p0, p1);
          poll_us.Add(static_cast<double>(p1 - p0) / 1e3);
        }
        SpanLog::Record(buf, n_agent, buf.NewId(), root, iteration, tl.polled,
                        tl.installed);
        detect_us.Add(static_cast<double>(tl.detected - tl.start) / 1e3);
        upload_us.Add(static_cast<double>(tl.uploaded - tl.detected) / 1e3);
        ship_us.Add(static_cast<double>(tl.shipped - tl.uploaded) / 1e3);
        agent_ms.Add(static_cast<double>(tl.installed - tl.polled) / 1e6);
        if (tl.covered != 0) {
          lag_ms.Add(static_cast<double>(tl.covered - tl.uploaded) / 1e6);
        }
        empty_polls += tl.empty_polls;
        for (RingSampler* r : rings) {
          if (r != nullptr) r->Poll();
        }
      }
      if (iteration % 8 == 5) {
        ++replays;
        if (ReplayIsAvoided(user_b->runtime, job.a, job.b)) ++replay_ok;
      }
      ++iteration;
    }
  };

  run_phase(0.1 * S, false, false, nullptr);  // warm-up
  run_phase(opt.trace ? 0.4 * S : 0.8 * S, false, true, &untraced_us);
  Samples u = untraced_us.Values();
  const double p50 = u.Quantile(0.5);
  res.EndToEnd("immunity_p50_us", p50, "us", u.count());
  res.EndToEnd("immunity_p90_us", u.Quantile(0.9), "us", u.count());
  res.EndToEnd("immunity_p99_us", u.Quantile(0.99), "us", u.count());
  res.Gate("lat_p50_us", p50, "us", u.count());
  // One propagation at a time, so throughput is the inverse of the mean
  // propagation time; the mean is taken over p10..p90, which keeps a
  // host scheduling stall in one iteration from setting the run's rate.
  double trimmed = 0;
  std::size_t kept = 0;
  const double lo = u.Quantile(0.1), hi = u.Quantile(0.9);
  for (double v : u.values()) {
    if (v >= lo && v <= hi) {
      trimmed += v;
      ++kept;
    }
  }
  const double rate = kept > 0 ? 1e6 * static_cast<double>(kept) / trimmed : 0;
  res.EndToEnd("propagations_per_s", rate, "1/s", kept);
  res.Gate("rate_per_s", rate, "1/s", u.count());

  if (opt.trace) {
    RingSampler primary_ring(dep->primary().trace_ring());
    RingSampler follower_ring(dep->follower().trace_ring());
    const ServerView fb = CaptureServer(dep->follower(), dep->follower_tcp());
    const auto pb = dep->primary().GetStats();
    rings[0] = &primary_ring;
    rings[1] = &follower_ring;
    run_phase(0.4 * S, true, true, &traced_us);
    rings[0] = rings[1] = nullptr;
    Samples t = traced_us.Values();
    res.Layer("trace.overhead_ratio", t.Quantile(0.5) / p50, "ratio",
              t.count());
    res.Layer("dimmunix.detect_us", detect_us.Quantile(0.5), "us",
              detect_us.count());
    res.Layer("plugin.upload_us", upload_us.Quantile(0.5), "us",
              upload_us.count());
    res.Layer("cluster.ship_round_us", ship_us.Quantile(0.5), "us",
              ship_us.count());
    if (!lag_ms.empty()) {
      res.Layer("cluster.repl_lag_ms", lag_ms.Quantile(0.5), "ms",
                lag_ms.count());
    }
    res.Layer("client.poll_us", poll_us.Quantile(0.5), "us", poll_us.count());
    res.Layer("client.empty_polls", static_cast<double>(empty_polls), "count",
              detect_us.count());
    res.Layer("agent.process_ms", agent_ms.Quantile(0.5), "ms",
              agent_ms.count());
    ReportServerStages(res, "add",
                       static_cast<std::uint8_t>(
                           communix::net::MsgType::kAddSignature),
                       primary_ring.records());
    ReportServerStages(res, "get",
                       static_cast<std::uint8_t>(
                           communix::net::MsgType::kGetSignatures),
                       follower_ring.records());
    ReportServerStages(res, "repl_batch",
                       static_cast<std::uint8_t>(
                           communix::net::MsgType::kReplBatch),
                       follower_ring.records());
    const ServerView fa = CaptureServer(dep->follower(), dep->follower_tcp());
    ReportStore(res, fb, fa);
    const double batches = static_cast<double>(fa.stats.repl_batches_applied -
                                               fb.stats.repl_batches_applied);
    if (batches > 0) {
      res.Layer("cluster.entries_per_batch",
                static_cast<double>(fa.stats.repl_entries_applied -
                                    fb.stats.repl_entries_applied) /
                    batches,
                "count", static_cast<std::uint64_t>(batches));
    }
    const auto pa = dep->primary().GetStats();
    if (pa.adds_processed > pb.adds_processed) {
      res.Layer("server.add_accept_ratio",
                static_cast<double>(pa.adds_accepted - pb.adds_accepted) /
                    static_cast<double>(pa.adds_processed - pb.adds_processed),
                "ratio", pa.adds_processed - pb.adds_processed);
    }
    SaveSpans(spans, opt.out_dir, res);
  }
  res.CheckMany(replays, replays - replay_ok,
                "replaying A's lock order on B was avoided, not deadlocked");
  res.Note("propagations", std::to_string(iteration));

  // Replicas converge and the follower serves what the primary holds.
  res.Check(dep->shipper().PumpUntilSynced(), "final PumpUntilSynced");
  res.Check(dep->follower().GetSince(0) == dep->primary().GetSince(0),
            "follower GET(0) stream byte-identical to the primary's");

  SaveSnapshot(opt.out_dir, "primary", *dep->primary_metrics());
  SaveSnapshot(opt.out_dir, "follower", *dep->follower_metrics());
  {
    communix::obs::MetricsRegistry ra, rb;
    communix::obs::ProbeHandle pa = rt_a->ExportStats(ra);
    communix::obs::ProbeHandle pb = user_b->runtime.ExportStats(rb);
    SaveSnapshot(opt.out_dir, "runtime_a", ra);
    SaveSnapshot(opt.out_dir, "runtime_b", rb);
  }
  user_b.reset();
  dep->Stop();
  return 0;
}

}  // namespace perfbench
