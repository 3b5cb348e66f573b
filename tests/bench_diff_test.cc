// Unit tests for the bench_diff report comparator.

#include "benchlib/bench_diff.h"

#include <gtest/gtest.h>

#include "obs/report.h"
#include "util/histogram.h"

namespace graphbench {
namespace benchlib {
namespace {

Json SystemEntry(const char* name, double two_hop_ms, double p99_us) {
  Json entry = Json::Object();
  entry.Set("system", Json::Str(name));
  entry.Set("two_hop_ms", Json::Number(two_hop_ms));
  Json hist = Json::Object();
  hist.Set("count", Json::Int(100));
  hist.Set("mean_us", Json::Number(p99_us / 2));
  hist.Set("min_us", Json::Int(1));
  hist.Set("max_us", Json::Int(int64_t(p99_us * 2)));
  hist.Set("p50_us", Json::Number(p99_us / 2));
  hist.Set("p95_us", Json::Number(p99_us * 0.9));
  hist.Set("p99_us", Json::Number(p99_us));
  entry.Set("read_latency", std::move(hist));
  return entry;
}

Json Report(const char* bench, Json systems) {
  Json root = Json::Object();
  root.Set("schema_version", Json::Int(2));
  root.Set("bench", Json::Str(bench));
  root.Set("systems", std::move(systems));
  return root;
}

TEST(BenchDiffTest, FlagsRegressionBeyondThreshold) {
  Json before_systems = Json::Array();
  before_systems.Append(SystemEntry("neo4j", 10.0, 5000));
  Json after_systems = Json::Array();
  after_systems.Append(SystemEntry("neo4j", 13.0, 5000));  // +30%

  auto diff = DiffReports(Report("t2", std::move(before_systems)),
                          Report("t2", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->HasRegression());
  const MetricDelta* two_hop = nullptr;
  for (const auto& d : diff->deltas) {
    if (d.metric == "two_hop_ms") two_hop = &d;
  }
  ASSERT_NE(two_hop, nullptr);
  EXPECT_TRUE(two_hop->regressed);
  EXPECT_NEAR(two_hop->delta_pct, 30.0, 1e-9);
  // The histogram latencies did not move.
  for (const auto& d : diff->deltas) {
    if (d.metric != "two_hop_ms") {
      EXPECT_FALSE(d.regressed) << d.metric;
    }
  }
}

TEST(BenchDiffTest, ImprovementAndSmallDriftPass) {
  Json before_systems = Json::Array();
  before_systems.Append(SystemEntry("neo4j", 10.0, 5000));
  Json after_systems = Json::Array();
  after_systems.Append(SystemEntry("neo4j", 11.0, 2500));  // +10%, -50%

  auto diff = DiffReports(Report("t2", std::move(before_systems)),
                          Report("t2", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->HasRegression());
}

TEST(BenchDiffTest, ComparesHistogramLatencyFieldsOnly) {
  Json before_systems = Json::Array();
  before_systems.Append(SystemEntry("neo4j", 10.0, 5000));
  Json after_systems = Json::Array();
  // max_us doubles (ignored); p99 doubles (flagged).
  after_systems.Append(SystemEntry("neo4j", 10.0, 10000));

  auto diff = DiffReports(Report("t2", std::move(before_systems)),
                          Report("t2", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  bool saw_p99 = false;
  for (const auto& d : diff->deltas) {
    EXPECT_EQ(d.metric.find("max_us"), std::string::npos);
    EXPECT_EQ(d.metric.find("min_us"), std::string::npos);
    EXPECT_EQ(d.metric.find("count"), std::string::npos);
    if (d.metric == "read_latency.p99_us") {
      saw_p99 = true;
      EXPECT_TRUE(d.regressed);
    }
  }
  EXPECT_TRUE(saw_p99);
}

TEST(BenchDiffTest, SkipsKeysOnlyTheAfterReportHas) {
  // A newer report may add metrics (e.g. read_error_latency) that a
  // checked-in baseline lacks; those are not compared, not regressions.
  Json before_systems = Json::Array();
  before_systems.Append(SystemEntry("neo4j", 10.0, 5000));
  Json after_entry = SystemEntry("neo4j", 10.0, 5000);
  Json errors = Json::Object();
  errors.Set("p99_us", Json::Number(1e9));
  after_entry.Set("read_error_latency", std::move(errors));
  Json after_systems = Json::Array();
  after_systems.Append(std::move(after_entry));

  auto diff = DiffReports(Report("t2", std::move(before_systems)),
                          Report("t2", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->HasRegression());
  for (const auto& d : diff->deltas) {
    EXPECT_EQ(d.metric.find("read_error_latency"), std::string::npos);
  }
}

Json ThroughputEntry(const char* name, double reads_per_second,
                     double writes_per_second) {
  Json entry = Json::Object();
  entry.Set("system", Json::Str(name));
  entry.Set("reads_per_second", Json::Number(reads_per_second));
  entry.Set("writes_per_second", Json::Number(writes_per_second));
  return entry;
}

TEST(BenchDiffTest, FlagsThroughputDropBeyondThreshold) {
  Json before_systems = Json::Array();
  before_systems.Append(ThroughputEntry("neo4j", 1000.0, 200.0));
  Json after_systems = Json::Array();
  // Reads drop 30% (regression); writes grow 50% (improvement, not one).
  after_systems.Append(ThroughputEntry("neo4j", 700.0, 300.0));

  auto diff = DiffReports(Report("f3", std::move(before_systems)),
                          Report("f3", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->HasRegression());
  const MetricDelta* reads = nullptr;
  const MetricDelta* writes = nullptr;
  for (const auto& d : diff->deltas) {
    if (d.metric == "reads_per_second") reads = &d;
    if (d.metric == "writes_per_second") writes = &d;
  }
  ASSERT_NE(reads, nullptr);
  EXPECT_TRUE(reads->regressed);
  EXPECT_NEAR(reads->delta_pct, -30.0, 1e-9);
  ASSERT_NE(writes, nullptr);
  EXPECT_FALSE(writes->regressed);
}

TEST(BenchDiffTest, ThroughputDriftWithinThresholdPasses) {
  Json before_systems = Json::Array();
  before_systems.Append(ThroughputEntry("neo4j", 1000.0, 200.0));
  Json after_systems = Json::Array();
  after_systems.Append(ThroughputEntry("neo4j", 900.0, 195.0));  // -10%, -2.5%

  auto diff = DiffReports(Report("f3", std::move(before_systems)),
                          Report("f3", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->HasRegression());
}

TEST(BenchDiffTest, AcceptsShortPerSecSuffix) {
  Json before_systems = Json::Array();
  Json b = Json::Object();
  b.Set("system", Json::Str("neo4j"));
  b.Set("reads_per_sec", Json::Number(1000.0));
  before_systems.Append(std::move(b));
  Json after_systems = Json::Array();
  Json a = Json::Object();
  a.Set("system", Json::Str("neo4j"));
  a.Set("reads_per_sec", Json::Number(500.0));
  after_systems.Append(std::move(a));

  auto diff = DiffReports(Report("f3", std::move(before_systems)),
                          Report("f3", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->deltas.size(), 1u);
  EXPECT_EQ(diff->deltas[0].metric, "reads_per_sec");
  EXPECT_TRUE(diff->deltas[0].regressed);
}

TEST(BenchDiffTest, SkipsNonPositiveBaselines) {
  Json before_systems = Json::Array();
  before_systems.Append(SystemEntry("neo4j", -1.0, 5000));  // failed query
  Json after_systems = Json::Array();
  after_systems.Append(SystemEntry("neo4j", 100.0, 5000));

  auto diff = DiffReports(Report("t2", std::move(before_systems)),
                          Report("t2", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  for (const auto& d : diff->deltas) {
    EXPECT_NE(d.metric, "two_hop_ms");
  }
}

TEST(BenchDiffTest, ReportsSystemsPresentInOnlyOneReport) {
  Json before_systems = Json::Array();
  before_systems.Append(SystemEntry("neo4j", 10.0, 5000));
  before_systems.Append(SystemEntry("titan-c", 20.0, 9000));
  Json after_systems = Json::Array();
  after_systems.Append(SystemEntry("neo4j", 10.0, 5000));
  after_systems.Append(SystemEntry("sqlg", 30.0, 9000));

  auto diff = DiffReports(Report("t2", std::move(before_systems)),
                          Report("t2", std::move(after_systems)), 15.0);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->only_in_before.size(), 1u);
  EXPECT_EQ(diff->only_in_before[0], "titan-c");
  ASSERT_EQ(diff->only_in_after.size(), 1u);
  EXPECT_EQ(diff->only_in_after[0], "sqlg");
}

TEST(BenchDiffTest, RejectsMismatchedBenchNames) {
  auto diff = DiffReports(Report("t2", Json::Array()),
                          Report("t3", Json::Array()), 15.0);
  EXPECT_FALSE(diff.ok());
}

TEST(BenchDiffTest, RejectsReportsWithoutSystems) {
  Json no_systems = Json::Object();
  no_systems.Set("bench", Json::Str("t2"));
  auto diff =
      DiffReports(no_systems, Report("t2", Json::Array()), 15.0);
  EXPECT_FALSE(diff.ok());
}

TEST(BenchDiffTest, RoundTripsThroughRealSerialization) {
  obs::BenchReport report("roundtrip", "tiny");
  Histogram h;
  for (uint64_t us = 10; us <= 100; us += 10) h.Add(us);
  Json entry = Json::Object();
  entry.Set("two_hop_ms", Json::Number(1.25));
  entry.Set("read_latency", obs::HistogramJson(h));
  report.AddSystem("neo4j-cypher", std::move(entry));

  auto parsed = Json::Parse(report.ToJson().Serialize());
  ASSERT_TRUE(parsed.ok());
  auto diff = DiffReports(*parsed, *parsed, 15.0);
  ASSERT_TRUE(diff.ok());
  // two_hop_ms + mean/p50/p95/p99.
  EXPECT_EQ(diff->deltas.size(), 5u);
  EXPECT_FALSE(diff->HasRegression());
  for (const auto& d : diff->deltas) {
    EXPECT_EQ(d.delta_pct, 0.0) << d.metric;
  }
  std::string rendered = FormatDiff(*diff, 15.0);
  EXPECT_NE(rendered.find("two_hop_ms"), std::string::npos);
  EXPECT_NE(rendered.find("0 regressed"), std::string::npos);
}

}  // namespace
}  // namespace benchlib
}  // namespace graphbench
