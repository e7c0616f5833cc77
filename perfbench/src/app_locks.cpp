// app_locks: the client runtime inside a lock-heavy application (the
// paper's Table II and Figure 4).
//
// A Table II synthetic application starts under Communix: its agent
// runs ProcessNewSignatures over a community-sized repository (valid
// signatures for this app, a few on sites the loop visits and most
// elsewhere, plus foreign fakes that fail the hash check). Then one
// thread per core loops through the app's canonical call paths, padded
// to Java-like depths, entering nested synchronized blocks via
// ScopedFrame + Acquire/Release. Critical sections do almost no work,
// so the runtime's own cost dominates. Most iterations use the thread's
// own monitors; every eighth uses monitors all threads share. Timed
// agent starts, each on a fresh runtime, alternate with stretches of the
// loop for the whole run.
#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "bytecode/nesting.hpp"
#include "bytecode/synthetic.hpp"
#include "communix/agent.hpp"
#include "communix/repository.hpp"
#include "dimmunix/runtime.hpp"
#include "inputs.hpp"
#include "params.hpp"
#include "sim/stacks.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

unsigned params::AppThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : std::min(n, 4u);
}

namespace {

using communix::CommunixAgent;
using communix::LocalRepository;
using communix::dimmunix::DimmunixRuntime;
using communix::dimmunix::Monitor;
using communix::dimmunix::ScopedFrame;
using communix::dimmunix::ThreadContext;
namespace bc = communix::bytecode;

constexpr unsigned kSharedEvery = 8;  // every 8th iteration shares monitors
constexpr unsigned kSampleEvery = 4;  // traced run: time every 4th iteration
// Rounds of agent-start passes and lock loop per run; the passes take
// kAgentShare of each round, and each stretch of the loop starts with
// kLoopWarmS of untimed iterations (its threads are new).
constexpr unsigned kRounds = 8;
constexpr double kAgentShare = 0.35;
constexpr double kLoopWarmS = 0.2;
constexpr double kSliceS = 0.25;  // app_ops_per_s is the median slice rate

struct FrameSpec {
  std::string cls;
  std::string method;
  std::uint32_t line = 0;
};

/// One lock site the loop visits: its padded canonical path and helper.
struct SiteRig {
  std::int32_t site = -1;
  std::vector<FrameSpec> path;  // outermost first; back() = host frame
  std::uint32_t enter_line = 0;
  bool has_helper = false;
  FrameSpec helper;
};

/// Thread-entry frames below an application's own call chain.
const char* const kPadClasses[] = {
    "java.lang.Thread", "java.util.concurrent.ThreadPoolExecutor$Worker",
    "java.util.concurrent.ThreadPoolExecutor", "org.jboss.threads.JBossThread",
    "org.jboss.as.ee.component.BasicComponentInstance",
    "org.jboss.invocation.InterceptorContext",
    "org.jboss.invocation.ChainedInterceptor",
    "org.jboss.as.ejb3.tx.CMTTxInterceptor"};

std::vector<SiteRig> BuildRigs(const bc::SyntheticApp& app,
                               const AppInputs& in) {
  std::vector<SiteRig> rigs;
  for (std::size_t i = 0; i < in.loop_sites.size(); ++i) {
    const std::int32_t site = in.loop_sites[i];
    SiteRig rig;
    rig.site = site;
    const auto canonical = communix::sim::CanonicalStackFrames(app, site);
    const std::size_t target = in.depths[i];
    for (std::size_t d = canonical.size(); d < target; ++d) {
      rig.path.push_back({kPadClasses[d % 8], "invoke" + std::to_string(d % 5),
                          static_cast<std::uint32_t>(100 + d)});
    }
    for (const auto& f : canonical) {
      rig.path.push_back({f.class_name, f.method, f.line});
    }
    rig.enter_line = app.program.lock_site(site).line;
    if (const auto inner = communix::sim::FindInnerSite(app, site)) {
      const auto hf = communix::sim::SiteFrame(app.program, *inner);
      rig.has_helper = true;
      rig.helper = {hf.class_name, hf.method, hf.line};
    }
    rigs.push_back(std::move(rig));
  }
  return rigs;
}

/// Monitors and entry counters of one monitor set (a thread's own, or
/// the shared one). Counters are updated inside the critical section
/// with a plain load + store, so a mutual-exclusion failure shows as a
/// lost update.
struct MonitorSet {
  explicit MonitorSet(std::size_t sites) {
    for (std::size_t i = 0; i < sites; ++i) {
      outer.push_back(std::make_unique<Monitor>("site" + std::to_string(i)));
      inner.push_back(std::make_unique<Monitor>("helper" + std::to_string(i)));
    }
    outer_entries = std::make_unique<std::atomic<std::uint64_t>[]>(sites);
    inner_entries = std::make_unique<std::atomic<std::uint64_t>[]>(sites);
  }
  std::vector<std::unique_ptr<Monitor>> outer, inner;
  std::unique_ptr<std::atomic<std::uint64_t>[]> outer_entries, inner_entries;
};

void Bump(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Pushes `path[i..]` as nested ScopedFrames, then runs `body`.
template <typename Body>
void Descend(ThreadContext& ctx, const std::vector<FrameSpec>& path,
             std::size_t i, const Body& body) {
  if (i == path.size()) {
    body();
    return;
  }
  ScopedFrame f(ctx, path[i].cls, path[i].method, path[i].line);
  Descend(ctx, path, i + 1, body);
}

struct LoopResult {
  std::vector<double> slice_rates;       // iterations/s per slice
  std::uint64_t iterations = 0;
  std::uint64_t deadlocks = 0;
  Samples pair_disjoint_ns, pair_shared_ns;
  bool counters_ok = true;
};

/// Runs the lock loop on `rt` for `seconds` (after `warm_s`), counting
/// iterations per `slice_s`. Traced: every kSampleEvery-th iteration's
/// Acquire+Release pairs are timed and recorded as spans.
LoopResult RunLoop(DimmunixRuntime& rt, const std::vector<SiteRig>& rigs,
                   unsigned threads, double warm_s, double seconds,
                   double slice_s, SpanLog* spans) {
  LoopResult out;
  MonitorSet shared(rigs.size());
  std::vector<std::unique_ptr<MonitorSet>> own;
  for (unsigned t = 0; t < threads; ++t) {
    own.push_back(std::make_unique<MonitorSet>(rigs.size()));
  }
  std::atomic<bool> stop{false};
  std::vector<std::atomic<std::uint64_t>> iters(threads);
  // expected[t][shared?][site][outer/inner]
  std::vector<std::vector<std::uint64_t>> expected_own(
      threads, std::vector<std::uint64_t>(rigs.size() * 2, 0));
  std::vector<std::vector<std::uint64_t>> expected_shared(
      threads, std::vector<std::uint64_t>(rigs.size() * 2, 0));
  std::vector<std::uint64_t> deadlocks(threads, 0);
  std::vector<Samples> disjoint(threads), shared_ns(threads);
  const std::uint32_t n_disjoint =
      spans ? spans->Name("dimmunix.pair.disjoint") : 0;
  const std::uint32_t n_shared =
      spans ? spans->Name("dimmunix.pair.shared") : 0;

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PinThisThread(t);
      ThreadContext& ctx = rt.AttachThread("app-worker" + std::to_string(t));
      SpanLog::ThreadBuffer* buf = spans ? &spans->Buffer() : nullptr;
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t s = (i * 7 + t * 3) % rigs.size();
        const SiteRig& rig = rigs[s];
        const bool is_shared = i % kSharedEvery == kSharedEvery - 1;
        MonitorSet& ms = is_shared ? shared : *own[t];
        auto& expected = is_shared ? expected_shared[t] : expected_own[t];
        const bool timed =
            buf != nullptr && i % kSampleEvery == kSampleEvery - 1;
        Descend(ctx, rig.path, 0, [&] {
          ctx.SetLine(rig.enter_line);
          const std::int64_t t0 = timed ? NowNs() : 0;
          if (!rt.Acquire(ctx, *ms.outer[s]).ok()) {
            ++deadlocks[t];
            return;
          }
          Bump(ms.outer_entries[s]);
          ++expected[2 * s];
          std::int64_t c0 = 0, c1 = 0;
          if (rig.has_helper) {
            ScopedFrame hf(ctx, rig.helper.cls, rig.helper.method,
                           rig.helper.line);
            c0 = timed ? NowNs() : 0;
            if (rt.Acquire(ctx, *ms.inner[s]).ok()) {
              Bump(ms.inner_entries[s]);
              ++expected[2 * s + 1];
              rt.Release(ctx, *ms.inner[s]);
            } else {
              ++deadlocks[t];
            }
            c1 = timed ? NowNs() : 0;
          }
          rt.Release(ctx, *ms.outer[s]);
          if (timed) {
            const std::int64_t t1 = NowNs();
            Samples& into = is_shared ? shared_ns[t] : disjoint[t];
            into.Add(static_cast<double>((t1 - t0) - (c1 - c0)));
            if (rig.has_helper) into.Add(static_cast<double>(c1 - c0));
            const std::uint64_t id = buf->NewId();
            const std::uint32_t name = is_shared ? n_shared : n_disjoint;
            SpanLog::Record(*buf, name, id, 0, i, t0, t1);
            if (rig.has_helper) {
              SpanLog::Record(*buf, name, buf->NewId(), id, i, c0, c1);
            }
          }
        });
        ++i;
        iters[t].store(i, std::memory_order_relaxed);
      }
      rt.DetachThread(ctx);
    });
  }
  auto total = [&] {
    std::uint64_t n = 0;
    for (auto& c : iters) n += c.load(std::memory_order_relaxed);
    return n;
  };
  std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t prev = total();
  std::int64_t prev_t = NowNs();
  while (prev_t < end) {
    std::this_thread::sleep_for(std::chrono::duration<double>(slice_s));
    const std::uint64_t now_n = total();
    const std::int64_t now_t = NowNs();
    out.slice_rates.push_back(static_cast<double>(now_n - prev) /
                              (static_cast<double>(now_t - prev_t) / 1e9));
    prev = now_n;
    prev_t = now_t;
  }
  stop.store(true);
  for (auto& th : pool) th.join();

  out.iterations = total();
  for (unsigned t = 0; t < threads; ++t) {
    out.deadlocks += deadlocks[t];
    out.pair_disjoint_ns.Append(disjoint[t]);
    out.pair_shared_ns.Append(shared_ns[t]);
  }
  for (std::size_t s = 0; s < rigs.size(); ++s) {
    std::uint64_t sh_outer = 0, sh_inner = 0;
    for (unsigned t = 0; t < threads; ++t) {
      sh_outer += expected_shared[t][2 * s];
      sh_inner += expected_shared[t][2 * s + 1];
      out.counters_ok =
          out.counters_ok &&
          own[t]->outer_entries[s].load() == expected_own[t][2 * s] &&
          own[t]->inner_entries[s].load() == expected_own[t][2 * s + 1];
    }
    out.counters_ok = out.counters_ok &&
                      shared.outer_entries[s].load() == sh_outer &&
                      shared.inner_entries[s].load() == sh_inner;
  }
  return out;
}

/// The std::mutex floor: the same loop shape with plain mutexes and no
/// shadow stack; every kSampleEvery-th pair is timed.
Samples VanillaPairs(const std::vector<SiteRig>& rigs, unsigned threads,
                     double seconds) {
  std::atomic<bool> stop{false};
  std::vector<Samples> ns(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PinThisThread(t);
      std::vector<std::mutex> outer(rigs.size()), inner(rigs.size());
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t s = (i * 7 + t * 3) % rigs.size();
        const bool timed = i % kSampleEvery == 0;
        const std::int64_t t0 = timed ? NowNs() : 0;
        outer[s].lock();
        if (rigs[s].has_helper) {
          inner[s].lock();
          inner[s].unlock();
        }
        outer[s].unlock();
        if (timed) ns[t].Add(static_cast<double>(NowNs() - t0));
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& th : pool) th.join();
  Samples all;
  for (auto& s : ns) all.Append(s);
  return all;
}

}  // namespace

int RunAppLocks(const RunOptions& opt, Results& res) {
  const unsigned threads = params::AppThreads();
  const double S = opt.seconds;

  // ---- set-up (repeated; median): generate the app, analyse nesting ----
  std::vector<double> setup_s;
  std::unique_ptr<bc::SyntheticApp> app;
  std::unique_ptr<bc::NestingReport> nesting;
  for (int i = 0; i < params::kQuickSetupRuns; ++i) {
    const std::int64_t t0 = NowNs();
    auto a = std::make_unique<bc::SyntheticApp>(
        bc::GenerateApp(bc::JBossProfile()));
    auto n = std::make_unique<bc::NestingReport>(
        bc::NestingAnalysis(a->program).AnalyzeAll());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    app = std::move(a);
    nesting = std::move(n);
  }
  res.Gate("setup_s", Median(setup_s), "s", setup_s.size());
  res.EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());

  // ---- inputs: loop sites, their depths, the community repository ----
  const AppInputs in = MakeAppInputs(*app, opt.seed);
  if (in.loop_sites.empty()) {
    std::fprintf(stderr, "app has too few nested sites\n");
    return 1;
  }
  const auto& repo_bytes = in.repository;

  // ---- agent start (fig4) and the lock loop, interleaved ----
  // Each agent-start pass gets a fresh runtime and repository. The first
  // (untimed, a warm-up) builds the runtime the lock loop runs on; later
  // passes are thrown away after timing. Rounds alternate a batch of
  // passes with a stretch of the loop, so both metrics sample the whole
  // run and a host that slows for a few seconds moves them alike.
  SpanLog spans;
  const std::uint32_t n_process = spans.Name("agent.process");
  SpanLog::ThreadBuffer& main_buf = spans.Buffer();
  Samples start_ms;
  CommunixAgent::ScanReport report;
  auto agent_pass = [&](std::unique_ptr<DimmunixRuntime>& rt,
                        std::unique_ptr<LocalRepository>& repo,
                        std::unique_ptr<CommunixAgent>& agent, bool timed) {
    agent.reset();
    rt = std::make_unique<DimmunixRuntime>(communix::SystemClock::Instance());
    repo = std::make_unique<LocalRepository>();
    repo->Append(repo_bytes);
    agent = std::make_unique<CommunixAgent>(*rt, app->program, *repo, *nesting,
                                            CommunixAgent::Options{});
    const std::int64_t t0 = NowNs();
    report = agent->ProcessNewSignatures();
    const std::int64_t t1 = NowNs();
    res.Check(report.examined == repo_bytes.size(),
              "agent examined every repository signature");
    res.Check(report.accepted > 0 && report.rejected_hash > 0,
              "agent accepted app signatures and refused foreign ones");
    if (!timed) return;
    start_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    if (opt.trace) {
      SpanLog::Record(main_buf, n_process, main_buf.NewId(), 0,
                      start_ms.count(), t0, t1);
    }
  };
  std::unique_ptr<DimmunixRuntime> rt;
  std::unique_ptr<LocalRepository> repo;
  std::unique_ptr<CommunixAgent> agent;
  agent_pass(rt, repo, agent, false);

  const auto rigs = BuildRigs(*app, in);
  // Warm-up: page in the loop's code and monitors before any timing.
  const LoopResult warm =
      RunLoop(*rt, rigs, threads, 0.05 * S, kSliceS, kSliceS, nullptr);
  const auto before = rt->GetStats();

  const double rounds_s = opt.trace ? 0.35 * S : 0.85 * S;
  const double round_s = rounds_s / kRounds;
  LoopResult loop = warm;
  loop.slice_rates.clear();
  for (unsigned r = 0; r < kRounds; ++r) {
    const std::int64_t passes_end =
        NowNs() + static_cast<std::int64_t>(kAgentShare * round_s * 1e9);
    do {
      std::unique_ptr<DimmunixRuntime> p_rt;
      std::unique_ptr<LocalRepository> p_repo;
      std::unique_ptr<CommunixAgent> p_agent;
      agent_pass(p_rt, p_repo, p_agent, true);
    } while (NowNs() < passes_end);
    const LoopResult part =
        RunLoop(*rt, rigs, threads, kLoopWarmS,
                std::max(kSliceS, (1 - kAgentShare) * round_s - kLoopWarmS),
                kSliceS, nullptr);
    loop.slice_rates.insert(loop.slice_rates.end(), part.slice_rates.begin(),
                            part.slice_rates.end());
    loop.iterations += part.iterations;
    loop.deadlocks += part.deadlocks;
    loop.counters_ok = loop.counters_ok && part.counters_ok;
  }
  const double agent_p50 = start_ms.Quantile(0.5);
  res.EndToEnd("agent_start_ms", agent_p50, "ms", start_ms.count());
  const auto after = rt->GetStats();
  Samples slices;
  for (double r : loop.slice_rates) slices.Add(r);
  const double ops = slices.Quantile(0.5);
  res.EndToEnd("app_ops_per_s", ops, "iterations/s", slices.count());
  res.Gate("rate_per_s", ops, "1/s", slices.count());
  res.Gate("lat_p50_us", agent_p50 * 1e3, "us", start_ms.count());
  res.CheckMany(loop.iterations, loop.deadlocks,
                "lock-loop acquisitions returned kDeadlock");
  res.Check(loop.counters_ok,
            "per-monitor entry counters match the iteration totals");
  res.Check(after.adaptive_gate_mismatches == 0,
            "adaptive_gate_mismatches == 0");
  res.Note("loop", std::to_string(threads) + " threads, " +
                       std::to_string(loop.iterations) + " iterations, " +
                       std::to_string(rigs.size()) + " sites, " +
                       std::to_string(kRounds) + " rounds");

  if (opt.trace) {
    const LoopResult traced =
        RunLoop(*rt, rigs, threads, 0.05 * S, 0.35 * S, 0.5, &spans);
    const auto end = rt->GetStats();
    res.CheckMany(traced.iterations, traced.deadlocks,
                  "traced lock loop returned kDeadlock");
    res.Check(traced.counters_ok, "traced loop entry counters match");
    Samples ts;
    for (double r : traced.slice_rates) ts.Add(r);
    res.Layer("trace.overhead_ratio", ops / ts.Quantile(0.5), "ratio",
              ts.count());
    Samples dj = traced.pair_disjoint_ns, sh = traced.pair_shared_ns;
    res.Layer("dimmunix.pair_ns.disjoint", dj.Quantile(0.5), "ns", dj.count());
    res.Layer("dimmunix.pair_ns.shared", sh.Quantile(0.5), "ns", sh.count());
    Samples vanilla = VanillaPairs(rigs, threads, 0.1 * S);
    res.Layer("dimmunix.vanilla_pair_ns", vanilla.Quantile(0.5), "ns",
              vanilla.count());
    const double acq =
        static_cast<double>(after.acquisitions - before.acquisitions);
    auto per_kacq = [&](std::uint64_t a, std::uint64_t b) {
      return acq > 0 ? static_cast<double>(a - b) * 1000.0 / acq : 0.0;
    };
    if (acq > 0) {
      res.Layer("dimmunix.fast_path_ratio",
                static_cast<double>(after.fast_path_acquisitions -
                                    before.fast_path_acquisitions) /
                    acq,
                "ratio", static_cast<std::uint64_t>(acq));
    }
    res.Layer("dimmunix.slow_path_per_kacq",
              per_kacq(after.slow_path_entries, before.slow_path_entries),
              "count", static_cast<std::uint64_t>(acq));
    res.Layer("dimmunix.handoffs_per_kacq",
              per_kacq(after.handoffs, before.handoffs), "count",
              static_cast<std::uint64_t>(acq));
    res.Layer("dimmunix.wait_rounds_per_kacq",
              per_kacq(after.wait_rounds, before.wait_rounds), "count",
              static_cast<std::uint64_t>(acq));
    const double scans = static_cast<double>(
        (after.scans_skipped - before.scans_skipped) +
        (after.instantiation_scans - before.instantiation_scans));
    if (scans > 0) {
      res.Layer("dimmunix.scan_skip_ratio",
                static_cast<double>(after.scans_skipped -
                                    before.scans_skipped) /
                    scans,
                "ratio", static_cast<std::uint64_t>(scans));
    }
    res.Layer("dimmunix.avoidance_suspensions",
              static_cast<double>(after.avoidance_suspensions -
                                  before.avoidance_suspensions),
              "count", 1);
    res.Layer("dimmunix.index_republishes",
              static_cast<double>(end.index_republishes), "count", 1);

    res.Layer("agent.process_ms", agent_p50, "ms", start_ms.count());
    const std::uint32_t n_validate = spans.Name("agent.validate");
    Samples validate_us;
    for (const auto& bytes : repo_bytes) {
      auto sig = communix::dimmunix::Signature::FromBytes(bytes);
      if (!sig) continue;
      const std::int64_t t0 = NowNs();
      (void)agent->ValidateAndTrim(*sig);
      const std::int64_t t1 = NowNs();
      validate_us.Add(static_cast<double>(t1 - t0) / 1e3);
      SpanLog::Record(main_buf, n_validate, main_buf.NewId(), 0,
                      validate_us.count(), t0, t1);
    }
    res.Layer("agent.validate_us", validate_us.Quantile(0.5), "us",
              validate_us.count());
    if (report.examined > 0) {
      res.Layer("agent.accept_ratio",
                static_cast<double>(report.accepted) /
                    static_cast<double>(report.examined),
                "ratio", report.examined);
    }
    if (report.accepted > 0) {
      res.Layer("agent.merge_ratio",
                static_cast<double>(report.merged) /
                    static_cast<double>(report.accepted),
                "ratio", report.accepted);
    }
    SaveSpans(spans, opt.out_dir, res);
  }

  communix::obs::MetricsRegistry registry;
  {
    communix::obs::ProbeHandle probe = rt->ExportStats(registry);
    SaveSnapshot(opt.out_dir, "runtime", registry);
  }
  res.Gate("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  res.EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  agent.reset();
  return 0;
}

}  // namespace perfbench
