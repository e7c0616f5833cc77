// Percentile math and sample counts at the edges.
#include <gtest/gtest.h>

#include <cmath>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
  Samples s;
  EXPECT_TRUE(std::isnan(s.Quantile(0.99)));
  EXPECT_EQ(s.count(), 0u);
}

TEST(Percentile, SingleSampleIsEveryQuantile) {
  const std::vector<double> one = {7.0};
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(Percentile(one, q), 7.0) << q;
  }
}

TEST(Percentile, NearestRankOnSmallSets) {
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_EQ(Percentile(two, 0.5), 1.0);   // ceil(1.0) = rank 1
  EXPECT_EQ(Percentile(two, 0.51), 2.0);  // ceil(1.02) = rank 2
  EXPECT_EQ(Percentile(two, 0.99), 2.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 0.5), 50.0);
  EXPECT_EQ(Percentile(hundred, 0.9), 90.0);
  EXPECT_EQ(Percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(Percentile(hundred, 1.0), 100.0);
  EXPECT_EQ(Percentile(hundred, 0.0), 1.0);
}

TEST(Percentile, ReportedValueIsAnObservedSample) {
  Samples s;
  for (double v : {5.5, 1.25, 9.0, 3.0}) s.Add(v);
  const double p = s.Quantile(0.9);
  EXPECT_TRUE(p == 5.5 || p == 1.25 || p == 9.0 || p == 3.0);
  EXPECT_EQ(p, 9.0);
  EXPECT_EQ(s.Quantile(0.5), 3.0);
}

TEST(Percentile, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  EXPECT_EQ(SamplesBeyond(1, 0.5), 0u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);  // p99 stands on 10 samples
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
}

TEST(Median, EvenAndOddCounts) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower middle
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(TimedSamples, WindowCountsSplitByTime) {
  TimedSamples t;
  EXPECT_EQ(t.WindowCounts(1000, 2), (std::vector<double>{0, 0}));
  for (int i = 0; i < 10; ++i) t.Add(500 + i, 1.0);   // window 0
  for (int i = 0; i < 4; ++i) t.Add(1600 + i, 1.0);   // window 1
  t.Add(9000, 1.0);                                    // past the last window
  EXPECT_EQ(t.WindowCounts(1000, 2), (std::vector<double>{10, 4}));
  EXPECT_EQ(t.Values().count(), 15u);
}

TEST(TimedSamples, WindowQuantilesSkipEmptyWindows) {
  TimedSamples t;
  EXPECT_TRUE(t.WindowQuantiles(1000, 3, 0.5).empty());
  for (int i = 0; i < 5; ++i) t.Add(100 + i, 10.0 + i);  // window 0
  for (int i = 0; i < 3; ++i) t.Add(2100 + i, 1.0 + i);  // window 2
  t.Add(9000, 99.0);                                     // past the last
  EXPECT_EQ(t.WindowQuantiles(1000, 3, 0.5), (std::vector<double>{12, 2}));
  EXPECT_EQ(t.WindowQuantiles(1000, 3, 1.0), (std::vector<double>{14, 3}));
}

TEST(SelfTimes, ChildIntervalsAreSubtractedOnce) {
  // Root 0..100 with overlapping children 10..40 and 30..50 and one
  // outside the parent (clipped away).
  std::vector<Span> spans = {
      {0, 1, 0, 7, 0, 100},
      {1, 2, 1, 7, 10, 40},
      {1, 3, 1, 7, 30, 50},
      {1, 4, 1, 7, 150, 160},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40);  // union of children inside = 10..50
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
}

TEST(SpanLog, KeepsSpansPerThreadAndCountsDrops) {
  SpanLog log(2);
  const auto n = log.Name("x");
  EXPECT_EQ(log.Name("x"), n);
  auto& buf = log.Buffer();
  for (int i = 0; i < 3; ++i) {
    SpanLog::Record(buf, n, buf.NewId(), 0, i, i, i + 1);
  }
  EXPECT_EQ(log.stored(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  const auto sum = log.Summarize();
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_EQ(sum[0].count, 2u);
  EXPECT_EQ(sum[0].total_ns, 2.0);
}

}  // namespace
}  // namespace perfbench
