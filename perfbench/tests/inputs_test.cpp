// Per-seed determinism of every workload's schedule and inputs, the
// daemon fleet's poll cadence, and the ADD trickle against the real
// server.
#include <gtest/gtest.h>

#include <set>

#include "bytecode/synthetic.hpp"
#include "communix/server.hpp"
#include "communix/store/signature_store.hpp"
#include "inputs.hpp"
#include "util/clock.hpp"

namespace perfbench {
namespace {

using communix::store::Adjacent;
using communix::store::TopFrameSet;

TEST(Determinism, FleetSignaturesDependOnlyOnSeedAndSalt) {
  EXPECT_EQ(FleetSignature(3, 17).ToBytes(), FleetSignature(3, 17).ToBytes());
  EXPECT_NE(FleetSignature(3, 17).ToBytes(), FleetSignature(4, 17).ToBytes());
  EXPECT_NE(FleetSignature(3, 17).ToBytes(), FleetSignature(3, 18).ToBytes());
}

TEST(Determinism, FleetSignaturesAreAdjacencySafe) {
  const auto a = TopFrameSet(FleetSignature(1, 10));
  const auto b = TopFrameSet(FleetSignature(1, 11));
  EXPECT_FALSE(Adjacent(a, b));
  const auto bytes = FleetSignature(1, 10).ToBytes();
  EXPECT_GT(bytes.size(), 700u);  // about 1 KiB, like a real signature
  EXPECT_LT(bytes.size(), 1600u);
}

TEST(Determinism, ArrivalSchedulesRepeatAndScaleWithRate) {
  ArrivalSchedule a(7, "lane"), b(7, "lane"), c(8, "lane"), d(7, "lane");
  std::int64_t ta = 0, tb = 0, tc = 0, td = 0;
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    ta = a.Next(ta, 1000);
    tb = b.Next(tb, 1000);
    tc = c.Next(tc, 1000);
    td = d.Next(td, 2000);
    EXPECT_EQ(ta, tb);
    differs = differs || ta != tc;
  }
  EXPECT_TRUE(differs);
  // The same gaps at twice the rate: half the elapsed time (to rounding).
  EXPECT_NEAR(static_cast<double>(td), static_cast<double>(ta) / 2, 1000.0);
  // Poisson at 1000/s: 1000 arrivals take about a second.
  EXPECT_NEAR(static_cast<double>(ta) / 1e9, 1.0, 0.15);
}

TEST(Determinism, FleetInputsRepeatPerSeed) {
  const FleetInputs x = MakeFleetInputs(5);
  const FleetInputs y = MakeFleetInputs(5);
  const FleetInputs z = MakeFleetInputs(6);
  ASSERT_EQ(x.preload.size(), y.preload.size());
  EXPECT_EQ(x.preload_size, y.preload_size);
  for (std::size_t i = 0; i < x.preload.size(); ++i) {
    EXPECT_EQ(x.preload[i].user, y.preload[i].user);
    ASSERT_EQ(x.preload[i].sigs.size(), y.preload[i].sigs.size());
    for (std::size_t j = 0; j < x.preload[i].sigs.size(); ++j) {
      EXPECT_EQ(x.preload[i].sigs[j], y.preload[i].sigs[j]);
    }
  }
  EXPECT_NE(x.preload[0].sigs[0].ToBytes(), z.preload[0].sigs[0].ToBytes());
  TrickleAdds a(5, 2, 1000), b(5, 2, 1000), c(6, 2, 1000);
  for (int i = 0; i < 30; ++i) {
    const auto pa = a.Next();
    EXPECT_EQ(pa, b.Next());
    EXPECT_NE(pa, c.Next());
  }
}

TEST(PollLags, RepeatPerSeedAndSpreadOverTwoDaysOfAdds) {
  constexpr std::uint64_t kAddsPerDay = 80;
  PollLags x(5, "poll0", kAddsPerDay), y(5, "poll0", kAddsPerDay),
      z(6, "poll0", kAddsPerDay);
  std::set<std::uint64_t> distinct;
  bool differs = false;
  double sum = 0;
  constexpr int kPolls = 20000;
  std::size_t within_half_day = 0;
  for (int i = 0; i < kPolls; ++i) {
    const std::uint64_t lag = x.Next();
    EXPECT_EQ(lag, y.Next());
    differs = differs || lag != z.Next();
    EXPECT_LT(lag, 2 * kAddsPerDay);
    distinct.insert(lag);
    sum += static_cast<double>(lag);
    if (lag + kAddsPerDay / 2 >= kAddsPerDay &&
        lag < kAddsPerDay + kAddsPerDay / 2) {
      ++within_half_day;
    }
  }
  EXPECT_TRUE(differs);
  // Polls come from more distinct cursors than the server's read cache
  // (64 slices) holds.
  EXPECT_GT(distinct.size(), 64u);
  // Triangular over two days, peaked at one: mean a day of ADDs, and 3/4
  // of the polls within half a day of it.
  EXPECT_NEAR(sum / kPolls, kAddsPerDay - 0.5, 1.5);
  EXPECT_NEAR(static_cast<double>(within_half_day) / kPolls, 0.75, 0.02);
}

TEST(Determinism, AppAndImmunityInputsRepeatPerSeed) {
  const auto app = communix::bytecode::GenerateApp(
      communix::bytecode::JBossProfile());
  const AppInputs a = MakeAppInputs(app, 3), b = MakeAppInputs(app, 3),
                  c = MakeAppInputs(app, 4);
  EXPECT_EQ(a.loop_sites, b.loop_sites);
  EXPECT_EQ(a.depths, b.depths);
  EXPECT_EQ(a.repository, b.repository);
  EXPECT_NE(a.loop_sites, c.loop_sites);
  for (auto d : a.depths) {
    EXPECT_GE(d, 10u);
    EXPECT_LE(d, 30u);
  }
  const SitePairs p(app, 3), q(app, 3);
  std::set<std::pair<std::int32_t, std::int32_t>> unordered;
  ASSERT_GT(p.count(), 20'000u);
  for (std::uint64_t k = 0; k < p.count(); ++k) {
    const auto x = p.Pair(k);
    EXPECT_EQ(x, q.Pair(k));
    EXPECT_NE(x.first, x.second);
    EXPECT_TRUE(unordered.insert(std::minmax(x.first, x.second)).second)
        << "pair repeated at k=" << k;
  }
}

/// Every trickle ADD is one the server accepts: distinct signatures from
/// users within their daily quota.
TEST(TrickleAdds, TheServerAcceptsEveryOne) {
  const FleetInputs in = MakeFleetInputs(2);
  communix::VirtualClock clock(20'000 * communix::kNanosPerDay);
  communix::CommunixServer server(clock);
  for (const auto& b : in.preload) {
    for (const auto& st : server.AddBatch(server.IssueToken(b.user), b.sigs)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }
  TrickleAdds adds(2, 2, in.preload_size);
  for (int i = 0; i < 300; ++i) {
    const auto payload = adds.Next();
    communix::UserToken token{};
    std::copy_n(payload.begin(), token.size(), token.begin());
    const auto sig = communix::dimmunix::Signature::FromBytes(
        std::span<const std::uint8_t>(payload).subspan(token.size()));
    ASSERT_TRUE(sig.has_value());
    const auto status = server.AddSignature(token, *sig);
    ASSERT_TRUE(status.ok()) << "ADD " << i << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace perfbench
