#include "sim/workload.hpp"

#include <barrier>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "sim/stacks.hpp"
#include "util/stopwatch.hpp"

namespace communix::sim {

using dimmunix::CallStack;
using dimmunix::DimmunixRuntime;
using dimmunix::Frame;
using dimmunix::Monitor;
using dimmunix::ScopedFrame;
using dimmunix::SyncRegion;
using dimmunix::ThreadContext;

void BusyWork(std::uint32_t units) {
  volatile std::uint64_t acc = 0;
  for (std::uint32_t u = 0; u < units; ++u) {
    for (int i = 0; i < 64; ++i) {
      acc = acc + ((acc >> 3) ^ static_cast<std::uint64_t>(i) * 0x9e3779b9u);
    }
  }
}

namespace {

/// Pushes a frame sequence; pops on destruction (dynamic-depth version of
/// ScopedFrame).
class FrameSequence {
 public:
  FrameSequence(ThreadContext& ctx, const std::vector<Frame>& frames)
      : ctx_(ctx), count_(frames.size()) {
    for (const Frame& f : frames) ctx_.PushFrame(f);
  }
  ~FrameSequence() {
    for (std::size_t i = 0; i < count_; ++i) ctx_.PopFrame();
  }
  FrameSequence(const FrameSequence&) = delete;
  FrameSequence& operator=(const FrameSequence&) = delete;

 private:
  ThreadContext& ctx_;
  std::size_t count_;
};

/// Per-site data shared by the Dimmunix and vanilla runs.
struct SiteRig {
  std::int32_t site = -1;
  std::vector<Frame> frames;       // canonical path, top = lock statement
  std::vector<Frame> alt_frames;   // alternate path, same top frame only
  std::uint32_t enter_line = 0;    // monitorenter line
  Frame helper_frame;              // helper method frame (if nested)
  std::uint32_t helper_line = 0;
  int helper_index = -1;           // into helper monitor array, -1 if none
};

}  // namespace

ContendedWorkload::ContendedWorkload(const bytecode::SyntheticApp& app,
                                     ContendedConfig config)
    : app_(app), config_(config) {
  const std::size_t n = std::min<std::size_t>(
      static_cast<std::size_t>(config_.sites_used), app_.nested_sites.size());
  sites_.assign(app_.nested_sites.begin(), app_.nested_sites.begin() + n);
}

ContendedResult ContendedWorkload::Run(DimmunixRuntime& runtime,
                                       PairLatency* latency) const {
  // Build rigs + monitors.
  std::vector<SiteRig> rigs(sites_.size());
  std::vector<std::unique_ptr<Monitor>> site_monitors;
  std::vector<std::unique_ptr<Monitor>> helper_monitors;
  std::unordered_map<std::int32_t, int> helper_index;

  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SiteRig& rig = rigs[i];
    rig.site = sites_[i];
    rig.frames = CanonicalStackFrames(app_, rig.site);
    rig.enter_line = app_.program.lock_site(rig.site).line;
    // Alternate path: a different caller chain that ends at the very same
    // lock statement — shares only the top frame with the canonical path.
    rig.alt_frames.clear();
    const std::string alt_cls =
        rig.frames.back().class_name;  // same class, different entry chain
    for (std::size_t d = 0; d + 1 < rig.frames.size(); ++d) {
      rig.alt_frames.emplace_back(
          alt_cls, "altEntry" + std::to_string(d),
          static_cast<std::uint32_t>(900 + d));
    }
    rig.alt_frames.push_back(rig.frames.back());
    site_monitors.push_back(
        std::make_unique<Monitor>("site" + std::to_string(rig.site)));
    if (const auto inner = FindInnerSite(app_, rig.site)) {
      auto [it, fresh] = helper_index.try_emplace(
          *inner, static_cast<int>(helper_monitors.size()));
      if (fresh) {
        helper_monitors.push_back(
            std::make_unique<Monitor>("helper" + std::to_string(*inner)));
      }
      rig.helper_index = it->second;
      rig.helper_frame = SiteFrame(app_.program, *inner);
      rig.helper_line = app_.program.lock_site(*inner).line;
    }
  }

  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(config_.threads);
  for (int t = 0; t < config_.threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadContext& ctx = runtime.AttachThread("worker" + std::to_string(t));
      Rng rng(config_.seed * 1315423911u + static_cast<std::uint64_t>(t));
      for (int iter = 0; iter < config_.iterations_per_thread; ++iter) {
        BusyWork(config_.work_outside);
        if (!rng.NextBool(config_.critical_fraction) || rigs.empty()) {
          BusyWork(config_.work_inside + config_.work_inner);
          continue;
        }
        const SiteRig& rig = rigs[(static_cast<std::size_t>(iter) +
                                   static_cast<std::size_t>(t)) %
                                  rigs.size()];
        const bool alternate = rng.NextBool(config_.alternate_path_fraction);
        FrameSequence path(ctx, alternate ? rig.alt_frames : rig.frames);
        Monitor& outer_mon =
            *site_monitors[static_cast<std::size_t>(&rig - rigs.data())];
        auto run_inside = [&] {
          BusyWork(config_.work_inside);
          if (rig.helper_index >= 0) {
            ScopedFrame helper(ctx, rig.helper_frame.class_name,
                               rig.helper_frame.method, rig.helper_line);
            SyncRegion inner(
                runtime, ctx,
                *helper_monitors[static_cast<std::size_t>(rig.helper_index)],
                rig.helper_line);
            if (inner.ok()) BusyWork(config_.work_inner);
          } else {
            BusyWork(config_.work_inner);
          }
        };
        if (latency == nullptr) {
          SyncRegion outer(runtime, ctx, outer_mon, rig.enter_line);
          if (!outer.ok()) continue;  // deadlock victim: unwind and retry
          run_inside();
        } else {
          // Explicit acquire/release so each op is timed separately.
          using std::chrono::steady_clock;
          const auto nanos = [](steady_clock::duration d) {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                    .count());
          };
          ctx.SetLine(rig.enter_line);
          const auto t0 = steady_clock::now();
          const auto acquired = runtime.Acquire(ctx, outer_mon);
          latency->acquire.Report(nanos(steady_clock::now() - t0));
          if (!acquired.ok()) continue;
          run_inside();
          const auto t1 = steady_clock::now();
          runtime.Release(ctx, outer_mon);
          latency->release.Report(nanos(steady_clock::now() - t1));
        }
      }
      runtime.DetachThread(ctx);
    });
  }
  for (auto& th : threads) th.join();

  ContendedResult result;
  result.seconds = watch.ElapsedSeconds();
  result.stats = runtime.GetStats();
  return result;
}

double ContendedWorkload::RunVanilla() const {
  std::vector<std::mutex> site_mu(std::max<std::size_t>(sites_.size(), 1));
  std::unordered_map<std::int32_t, int> helper_index;
  std::vector<int> helper_of_site(sites_.size(), -1);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (const auto inner = FindInnerSite(app_, sites_[i])) {
      const auto it =
          helper_index.try_emplace(*inner, static_cast<int>(helper_index.size()))
              .first;
      helper_of_site[i] = it->second;
    }
  }
  std::vector<std::mutex> helper_mu(std::max<std::size_t>(helper_index.size(), 1));

  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(config_.threads);
  for (int t = 0; t < config_.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(config_.seed * 1315423911u + static_cast<std::uint64_t>(t));
      for (int iter = 0; iter < config_.iterations_per_thread; ++iter) {
        BusyWork(config_.work_outside);
        if (!rng.NextBool(config_.critical_fraction) || sites_.empty()) {
          BusyWork(config_.work_inside + config_.work_inner);
          continue;
        }
        const std::size_t i = (static_cast<std::size_t>(iter) +
                               static_cast<std::size_t>(t)) %
                              sites_.size();
        (void)rng.NextBool(config_.alternate_path_fraction);  // rng parity
        std::lock_guard outer(site_mu[i]);
        BusyWork(config_.work_inside);
        if (helper_of_site[i] >= 0) {
          std::lock_guard inner(
              helper_mu[static_cast<std::size_t>(helper_of_site[i])]);
          BusyWork(config_.work_inner);
        } else {
          BusyWork(config_.work_inner);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  return watch.ElapsedSeconds();
}

AbbaWorkload::Result AbbaWorkload::Run(DimmunixRuntime& runtime) const {
  Monitor lock_a("A");
  Monitor lock_b("B");
  std::atomic<bool> holds_a{false};
  std::atomic<bool> holds_b{false};
  std::atomic<bool> saw_deadlock{false};
  std::atomic<int> completed{0};
  std::barrier sync(2);

  auto spin_until = [](const std::atomic<bool>& flag) {
    // Best effort: align the two threads inside their first critical
    // sections so the unprotected run reliably deadlocks. Wall-clock
    // bounded so an avoidance-suspended peer cannot livelock us.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    while (!flag.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };

  auto body = [&](bool is_first) {
    ThreadContext& ctx =
        runtime.AttachThread(is_first ? "abba-t1" : "abba-t2");
    Monitor& first = is_first ? lock_a : lock_b;
    Monitor& second = is_first ? lock_b : lock_a;
    std::atomic<bool>& my_flag = is_first ? holds_a : holds_b;
    std::atomic<bool>& peer_flag = is_first ? holds_b : holds_a;

    for (int i = 0; i < iterations_; ++i) {
      sync.arrive_and_wait();
      if (is_first) {
        holds_a.store(false, std::memory_order_relaxed);
        holds_b.store(false, std::memory_order_relaxed);
      }
      sync.arrive_and_wait();
      {
        ScopedFrame outer_frame(ctx, is_first ? "app.Worker1" : "app.Worker2",
                                "run", 10);
        ScopedFrame step_frame(ctx, is_first ? "app.Worker1" : "app.Worker2",
                               "step", 20);
        SyncRegion outer(runtime, ctx, first, 30);
        if (outer.ok()) {
          my_flag.store(true, std::memory_order_release);
          spin_until(peer_flag);
          SyncRegion inner(runtime, ctx, second, 40);
          if (inner.ok()) {
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            saw_deadlock.store(true, std::memory_order_relaxed);
          }
        }
        my_flag.store(false, std::memory_order_release);
      }
    }
    runtime.DetachThread(ctx);
  };

  std::thread t1(body, true);
  std::thread t2(body, false);
  t1.join();
  t2.join();

  Result r;
  r.deadlocked = saw_deadlock.load();
  r.completed_pairs = completed.load();
  return r;
}

}  // namespace communix::sim
