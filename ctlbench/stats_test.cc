#include "stats.h"

#include <gtest/gtest.h>

namespace ctlbench {
namespace {

TEST(StatsTest, NearestRankUsesExactIntegerCeiling) {
  EXPECT_EQ(NearestRank(1000, kP99), 990u);
  EXPECT_EQ(NearestRank(1001, kP99), 991u);
  EXPECT_EQ(NearestRank(100, kP50), 50u);
  EXPECT_EQ(NearestRank(1, kP99), 1u);
  EXPECT_EQ(NearestRank(0, kP50), 1u);
}

TEST(StatsTest, TailQuantileLeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(TailQuantile(999).Name(), "p90");
  EXPECT_EQ(TailQuantile(1000).Name(), "p99");
  EXPECT_EQ(TailQuantile(10000).Name(), "p99.9");
  EXPECT_EQ(TailQuantile(1'000'000).Name(), "p99.999");
  EXPECT_EQ(TailQuantile(50).Name(), "p50");
  for (uint64_t n : {100u, 999u, 1000u, 12345u, 99999u, 100000u}) {
    EXPECT_GE(SamplesBeyond(n, TailQuantile(n)), 10u) << n;
  }
}

TEST(StatsTest, SummarizeRawSamples) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; i--) {
    v.push_back(i);
  }
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p25, 250.0);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail.Name(), "p99");
  EXPECT_EQ(s.tail_value, 990.0);
  EXPECT_EQ(s.p50_bucket, 0.0);

  std::vector<double> empty;
  EXPECT_EQ(Summarize(empty).count, 0u);
}

TEST(StatsTest, HistogramSummaryCarriesBucketWidth) {
  EXPECT_EQ(BucketWidth(10), 1u);
  EXPECT_EQ(BucketWidth(64), 1u);
  EXPECT_EQ(BucketWidth(128), 2u);
  EXPECT_EQ(BucketWidth(150'000), 2048u);

  atropos::LatencyHistogram hist;
  for (uint64_t i = 1; i <= 1000; i++) {
    hist.Record(i * 1000);  // 1 ms .. 1 s
  }
  const Summary s = Summarize(hist);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.tail.Name(), "p99");
  EXPECT_NEAR(s.p50, 500'000.0, s.p50_bucket);
  EXPECT_NEAR(s.tail_value, 990'000.0, s.tail_bucket);
  EXPECT_EQ(s.p50_bucket, static_cast<double>(BucketWidth(static_cast<uint64_t>(s.p50))));
  EXPECT_GT(s.tail_bucket, 0.0);
}

TEST(StatsTest, HistogramSummaryUsesNearestRank) {
  // Values below 128 get buckets one wide, so each sample is its own value.
  atropos::LatencyHistogram hist;
  std::vector<double> raw;
  for (uint64_t v = 1; v <= 100; v++) {
    hist.Record(v);
    raw.push_back(static_cast<double>(v));
  }
  const Summary h = Summarize(hist);
  const Summary r = Summarize(raw);
  EXPECT_EQ(h.tail.Name(), "p90");
  EXPECT_EQ(h.tail_value, 90.0);
  EXPECT_EQ(h.p25, r.p25);
  EXPECT_EQ(h.p50, r.p50);
  EXPECT_EQ(h.p99, r.p99);
  EXPECT_EQ(h.tail_value, r.tail_value);
  uint64_t beyond = 0;
  for (double v : raw) {
    beyond += v > h.tail_value ? 1 : 0;
  }
  EXPECT_GE(beyond, 10u);
}

TEST(StatsTest, InterpolatedPercentileResolvesWithinABucket) {
  atropos::LatencyHistogram hist;
  for (uint64_t v = 1000; v <= 2000; v++) {
    hist.Record(v);  // buckets are 16 wide here
  }
  // Nearest-rank p50 of 1001 samples is rank 501, the value 1500.
  EXPECT_EQ(BucketWidth(1500), 16u);
  EXPECT_NEAR(InterpolatedPercentile(hist, kP50), 1500.0, 1.0);
  EXPECT_NEAR(InterpolatedPercentile(hist, kP99), 1990.0, 1.0);

  // A shifted distribution moves the interpolated value even when the
  // bucket midpoint does not.
  atropos::LatencyHistogram shifted;
  for (uint64_t v = 1002; v <= 2002; v++) {
    shifted.Record(v);
  }
  EXPECT_EQ(shifted.P50(), hist.P50());
  EXPECT_NEAR(InterpolatedPercentile(shifted, kP50), 1502.0, 1.0);

  atropos::LatencyHistogram small;
  small.Record(7);
  EXPECT_EQ(InterpolatedPercentile(small, kP50), 7.0);
  EXPECT_EQ(InterpolatedPercentile(atropos::LatencyHistogram(), kP50), 0.0);
}

TEST(StatsTest, MedianOfReadings) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

}  // namespace
}  // namespace ctlbench
