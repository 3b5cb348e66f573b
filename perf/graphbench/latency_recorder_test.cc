#include "graphbench/latency_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/random.h"

namespace graphbench {
namespace perf {
namespace {

// The oracle: sort everything, take the ceil(p/100 * n)-th smallest.
double Oracle(std::vector<double> v, int p_permille) {
  std::sort(v.begin(), v.end());
  size_t rank = (size_t(p_permille) * v.size() + 999) / 1000;
  return v[std::max<size_t>(rank, 1) - 1];
}

TEST(LatencyRecorderTest, MatchesSortedOracleWithoutClipping) {
  Rng rng(17);
  std::vector<LatencyRecorder> threads(3);
  std::vector<double> all_ok;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over 0.1 us .. 100 s, so a large share of the samples
    // sits far above 131,072 us, where a bucketed histogram would clip.
    double us = std::pow(10.0, -1.0 + 9.0 * rng.NextDouble());
    threads[size_t(i) % threads.size()].Record(us, true);
    all_ok.push_back(us);
  }
  LatencyRecorder merged;
  for (const LatencyRecorder& t : threads) merged.Merge(t);
  ASSERT_EQ(merged.ok().size(), all_ok.size());
  ASSERT_GT(std::count_if(all_ok.begin(), all_ok.end(),
                          [](double us) { return us > 131072; }),
            100);
  for (int p_permille : {1, 100, 500, 900, 990, 999, 1000}) {
    EXPECT_EQ(merged.OkPercentile(p_permille / 10.0),
              Oracle(all_ok, p_permille))
        << "p=" << p_permille / 10.0;
  }
  EXPECT_EQ(merged.OkPercentile(100),
            *std::max_element(all_ok.begin(), all_ok.end()));
}

TEST(LatencyRecorderTest, FailedSamplesStayOutOfOkPercentiles) {
  LatencyRecorder r;
  std::vector<double> ok;
  for (int i = 1; i <= 100; ++i) {
    r.Record(1000.0 * i, true);
    ok.push_back(1000.0 * i);
    // Rejections return in ~3 us; mixed in, they would drag p50 down.
    r.Record(3.0, false);
  }
  EXPECT_EQ(r.ok().size(), 100u);
  EXPECT_EQ(r.failed().size(), 100u);
  EXPECT_EQ(r.OkPercentile(50), Oracle(ok, 500));
  EXPECT_EQ(r.OkPercentile(50), 50000.0);
  EXPECT_EQ(r.OkPercentile(99), 99000.0);
}

TEST(LatencyRecorderTest, NearestRankEdgeCases) {
  EXPECT_EQ(LatencyRecorder::NearestRank({}, 50), 0.0);
  EXPECT_EQ(LatencyRecorder::NearestRank({7.5}, 1), 7.5);
  EXPECT_EQ(LatencyRecorder::NearestRank({7.5}, 100), 7.5);
  std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(LatencyRecorder::NearestRank(ten, 50), 5.0);
  EXPECT_EQ(LatencyRecorder::NearestRank(ten, 51), 6.0);
  EXPECT_EQ(LatencyRecorder::NearestRank(ten, 99), 10.0);
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_EQ(LatencyRecorder::NearestRank(thousand, 99.9), 999.0);
}

}  // namespace
}  // namespace perf
}  // namespace graphbench
