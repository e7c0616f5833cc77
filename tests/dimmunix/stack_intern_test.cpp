// Interned shadow stacks (stack_node.hpp): a capture is a pointer into a
// thread's calling-context tree, so these tests pin it against the plain
// vector-of-frames stack it replaced — same frames, keys and class
// hashes, same matching — and pin the bytes detection produces from it.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dimmunix/runtime.hpp"
#include "util/clock.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace communix::dimmunix {
namespace {

/// The shadow stack as it was before interning: a vector of frames,
/// copied on capture. Test-local reference for the property test.
class VectorStack {
 public:
  void Push(Frame f) { frames_.push_back(std::move(f)); }
  void Pop() {
    if (!frames_.empty()) frames_.pop_back();
  }
  void SetLine(std::uint32_t line) {
    if (!frames_.empty()) {
      frames_.back().line = line;
      frames_.back().RecomputeKey();
    }
  }
  std::size_t depth() const { return frames_.size(); }
  CallStack Capture(std::size_t max_depth) const {
    if (frames_.size() <= max_depth) return CallStack(frames_);
    return CallStack(std::vector<Frame>(
        frames_.end() - static_cast<std::ptrdiff_t>(max_depth),
        frames_.end()));
  }

 private:
  std::vector<Frame> frames_;
};

void ExpectSameFrames(const CallStack& got, const CallStack& want) {
  ASSERT_EQ(got.depth(), want.depth());
  for (std::size_t i = 0; i < got.depth(); ++i) {
    const Frame& g = got.frames()[i];
    const Frame& w = want.frames()[i];
    EXPECT_EQ(g.class_name, w.class_name) << "frame " << i;
    EXPECT_EQ(g.method, w.method) << "frame " << i;
    EXPECT_EQ(g.line, w.line) << "frame " << i;
    EXPECT_EQ(g.location_key, w.location_key) << "frame " << i;
    EXPECT_EQ(g.class_hash, w.class_hash) << "frame " << i;
  }
}

class InternedStackPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(InternedStackPropertyTest, CaptureEqualsVectorCopyCapture) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  ThreadContext& ctx = rt.AttachThread("prop");
  VectorStack ref;

  // Small pools so interning hits often; the same names appear with and
  // without a class hash, which must stay distinct frames.
  const std::vector<std::string> classes = {
      "org.jboss.as.ee.component.BasicComponentInstance", "p.A", "p.B",
      "java.util.concurrent.ThreadPoolExecutor$Worker"};
  const std::vector<std::string> methods = {"run", "invoke0", "sync",
                                            "processInvocation"};
  const Sha256Digest hash_a = Sha256::Hash(std::string_view("bytecode-a"));
  const Sha256Digest hash_b = Sha256::Hash(std::string_view("bytecode-b"));
  const std::size_t max_depths[] = {1, 5, 16, 64};

  for (int op = 0; op < 3000; ++op) {
    const std::uint32_t kind = rng.NextBounded(100);
    const std::string& cls = classes[rng.NextBounded(4)];
    const std::string& mth = methods[rng.NextBounded(4)];
    const std::uint32_t line = 1 + rng.NextBounded(6);
    if (kind < 30 && ref.depth() < 90) {
      ctx.PushFrame(cls, mth, line);  // the ScopedFrame path
      ref.Push(Frame(cls, mth, line));
    } else if (kind < 45 && ref.depth() < 90) {
      std::optional<Sha256Digest> hash;
      if (rng.NextBool(0.5)) hash = rng.NextBool(0.5) ? hash_a : hash_b;
      const Frame f(cls, mth, line, hash);
      ctx.PushFrame(f);
      ref.Push(f);
    } else if (kind < 75) {
      ctx.PopFrame();
      ref.Pop();
    } else {
      ctx.SetLine(line);
      ref.SetLine(line);
    }
    ASSERT_EQ(ctx.stack_depth(), ref.depth()) << "op " << op;

    const std::size_t max_depth = max_depths[rng.NextBounded(4)];
    const CallStack want = ref.Capture(max_depth);
    const StackRef got = ctx.Capture(max_depth);
    ASSERT_EQ(got.depth(), want.depth()) << "op " << op;
    ASSERT_EQ(got.TopKey(), want.TopKey()) << "op " << op;
    ExpectSameFrames(got.Materialize(), want);
    ExpectSameFrames(ctx.CaptureStack(max_depth), want);

    // Matching against the chain agrees with matching against the copy,
    // for the capture's own top portions and for near misses.
    for (int probe = 0; probe < 3 && !want.empty(); ++probe) {
      CallStack abstract = want;
      abstract.TrimToDepth(1 + rng.NextBounded(
                                   static_cast<std::uint32_t>(want.depth())));
      if (probe == 1) {
        Frame& f = abstract.mutable_frames()[rng.NextBounded(
            static_cast<std::uint32_t>(abstract.depth()))];
        f.line += 1;
        f.RecomputeKey();
      } else if (probe == 2) {
        abstract.mutable_frames().insert(abstract.mutable_frames().begin(),
                                         Frame("p.Extra", "outer", 1));
      }
      EXPECT_EQ(abstract.MatchesSuffixOf(got), abstract.MatchesSuffixOf(want))
          << "op " << op << " probe " << probe;
    }
  }
  while (ctx.stack_depth() > 0) ctx.PopFrame();
  rt.DetachThread(ctx);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternedStackPropertyTest,
                         ::testing::Range(0, 8));

TEST(InternedStackTest, CaptureSurvivesLaterPushesPopsAndLineChanges) {
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  ThreadContext& ctx = rt.AttachThread("t");
  ctx.PushFrame("c.A", "run", 1);
  ctx.PushFrame("c.A", "sync", 7);
  const StackRef captured = ctx.Capture(64);
  const CallStack before = captured.Materialize();
  ctx.SetLine(9);
  ctx.PopFrame();
  ctx.PushFrame("c.B", "other", 3);
  ExpectSameFrames(captured.Materialize(), before);
  EXPECT_EQ(captured.TopKey(), Frame("c.A", "sync", 7).location_key);
  ctx.PopFrame();
  ctx.PopFrame();
  EXPECT_EQ(ctx.stack_depth(), 0u);
  rt.DetachThread(ctx);
}

// ABBA deadlock between two threads whose stacks are 30 frames deep when
// they block (27 ScopedFrames, one frame carrying a class hash, two more
// ScopedFrames, SetLine at each lock statement). Returns the one
// signature detection learned.
Signature RunAbbaAtDepth30() {
  VirtualClock clock;
  DimmunixRuntime::Options opts;
  opts.avoidance_enabled = false;  // let the deadlock happen
  DimmunixRuntime rt(clock, opts);
  Monitor a("A");
  Monitor b("B");
  std::mutex mu;
  std::vector<Signature> learned;
  rt.SetNewSignatureCallback([&](const Signature& s) {
    std::lock_guard lock(mu);
    learned.push_back(s);
  });
  std::atomic<int> holding{0};
  auto worker = [&](bool first) {
    ThreadContext& ctx = rt.AttachThread(first ? "t1" : "t2");
    const std::string cls = first ? "gold.app.Alpha" : "gold.app.Beta";
    {
      std::vector<std::unique_ptr<ScopedFrame>> frames;
      for (int d = 0; d < 27; ++d) {
        frames.push_back(std::make_unique<ScopedFrame>(
            ctx, "gold.lib.Layer" + std::to_string(d % 7),
            "call" + std::to_string(d % 5),
            static_cast<std::uint32_t>(100 + d)));
      }
      // A plugin-style frame that carries its class's bytecode hash.
      ctx.PushFrame(
          Frame(cls, "dispatch", 40, Sha256::Hash(std::string_view(cls))));
      {
        ScopedFrame body(ctx, cls, "withLocks", 50);
        ScopedFrame sync(ctx, cls, "sync", 60);
        ctx.SetLine(first ? 61 : 71);
        Monitor& mine = first ? a : b;
        Monitor& theirs = first ? b : a;
        EXPECT_TRUE(rt.Acquire(ctx, mine).ok());
        holding.fetch_add(1);
        while (holding.load() < 2) std::this_thread::yield();
        ctx.SetLine(first ? 62 : 72);
        if (rt.Acquire(ctx, theirs).ok()) rt.Release(ctx, theirs);
        rt.Release(ctx, mine);
      }
      ctx.PopFrame();
    }
    rt.DetachThread(ctx);
  };
  std::thread t1(worker, true);
  std::thread t2(worker, false);
  t1.join();
  t2.join();
  std::lock_guard lock(mu);
  EXPECT_EQ(learned.size(), 1u);
  return learned.empty() ? Signature() : learned.front();
}

TEST(InternedStackTest, DetectionBytesMatchTheVectorStackRuntime) {
  // Recorded from the runtime that kept vector-of-frames stacks (the
  // parent of the interning change) running this same scenario.
  constexpr std::size_t kGoldenSize = 4114;
  constexpr const char* kGoldenSha256 =
      "8a00f9120c5453bae6bc8376e3246cb3c7920a5213dc0018f8fb1818d571b4da";
  constexpr std::uint64_t kGoldenContentId = 0x9f9ae66fd9adaafdULL;

  const Signature sig = RunAbbaAtDepth30();
  ASSERT_EQ(sig.num_threads(), 2u);
  for (const SignatureEntry& e : sig.entries()) {
    EXPECT_EQ(e.outer.depth(), 30u);
    EXPECT_EQ(e.inner.depth(), 30u);
    EXPECT_TRUE(e.outer.frames()[27].class_hash.has_value());
  }
  const std::vector<std::uint8_t> bytes = sig.ToBytes();
  EXPECT_EQ(bytes.size(), kGoldenSize);
  EXPECT_EQ(ToHex(Sha256::Hash(bytes)), kGoldenSha256);
  EXPECT_EQ(sig.ContentId(), kGoldenContentId);
}

TEST(InternedStackTest, FramesPoppedAfterDetachKeepTheContextAlive) {
  // ScopedFrame guards routinely unwind after DetachThread. Their pops
  // read the context's interned nodes, so the reaper must keep the
  // context (and its FrameTable) until the stack is empty. Run under
  // ASan (tools/ci.sh --asan) this catches any early free.
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  Monitor m;
  ThreadContext& ctx = rt.AttachThread("late-pops");
  std::vector<std::unique_ptr<ScopedFrame>> frames;
  for (int d = 0; d < 20; ++d) {
    frames.push_back(std::make_unique<ScopedFrame>(
        ctx, "late.C" + std::to_string(d), "m", static_cast<std::uint32_t>(d)));
  }
  ctx.SetLine(99);
  ASSERT_TRUE(rt.Acquire(ctx, m).ok());
  rt.Release(ctx, m);
  rt.DetachThread(ctx);
  while (!frames.empty()) {
    // Every attach/detach runs a reap pass over the tombstone.
    ThreadContext& other = rt.AttachThread("reaper");
    rt.DetachThread(other);
    EXPECT_EQ(rt.ThreadRecordCount(), 1u) << "reaped with frames live";
    frames.pop_back();
  }
  ThreadContext& sweep = rt.AttachThread("sweep");
  rt.DetachThread(sweep);
  EXPECT_EQ(rt.ThreadRecordCount(), 0u);
}

}  // namespace
}  // namespace communix::dimmunix
