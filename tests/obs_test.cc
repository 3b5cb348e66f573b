#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "util/json.h"

namespace graphbench {
namespace {

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      obs::Counter* c = registry.GetCounter("test.hits");
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("test.hits")->value(),
            uint64_t(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
}

TEST(MetricsRegistryTest, SnapshotAndReset) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  obs::MetricsRegistry registry;
  registry.GetCounter("c")->Increment(5);
  registry.GetGauge("g")->Set(-3);

  obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c");
  EXPECT_EQ(snap.counters[0].second, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -3);

  obs::Counter* c = registry.GetCounter("c");
  registry.Reset();
  EXPECT_EQ(c, registry.GetCounter("c"));  // pointers survive Reset
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(registry.GetGauge("g")->value(), 0);
}

TEST(HistogramJsonTest, PercentileEdges) {
  Json zero = obs::HistogramJson(Histogram());
  EXPECT_EQ(zero.Get("count").as_int(), 0);
  EXPECT_EQ(zero.Get("min_us").as_int(), 0);
  EXPECT_EQ(zero.Get("max_us").as_int(), 0);
  EXPECT_EQ(zero.Get("p50_us").as_number(), 0);
  EXPECT_EQ(zero.Get("p99_us").as_number(), 0);

  Histogram one;
  one.Add(250);
  Json single = obs::HistogramJson(one);
  EXPECT_EQ(single.Get("count").as_int(), 1);
  EXPECT_EQ(single.Get("min_us").as_int(), 250);
  EXPECT_EQ(single.Get("max_us").as_int(), 250);
  // All percentiles collapse to (the bucket of) the only sample.
  EXPECT_GE(single.Get("p99_us").as_number(),
            single.Get("p50_us").as_number());
  EXPECT_GE(single.Get("p50_us").as_number(), 250.0 / 2);

  Histogram many;
  for (uint64_t i = 1; i <= 1000; ++i) many.Add(i);
  Json stats = obs::HistogramJson(many);
  EXPECT_EQ(stats.Get("count").as_int(), 1000);
  EXPECT_EQ(stats.Get("min_us").as_int(), 1);
  EXPECT_EQ(stats.Get("max_us").as_int(), 1000);
  EXPECT_LE(stats.Get("p50_us").as_number(), stats.Get("p95_us").as_number());
  EXPECT_LE(stats.Get("p95_us").as_number(), stats.Get("p99_us").as_number());
  EXPECT_LE(stats.Get("p99_us").as_number(),
            double(stats.Get("max_us").as_int()) * 2);
}

TEST(BenchReportTest, WrittenFileParsesBackWithAllKeys) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  obs::MetricsRegistry registry;
  registry.GetCounter("mq.produced")->Increment(42);
  registry.GetGauge("mq.consumer.lag")->Set(7);

  obs::BenchReport report("obs_test", "unit");
  report.SetParam("reps", Json::Int(3));
  Json system = Json::Object();
  system.Set("reads_per_second", Json::Number(123.5));
  report.AddSystem("Neo4j (Cypher)", std::move(system));
  report.AttachRegistry(registry);

  Result<std::string> path = report.WriteFile(::testing::TempDir());
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_NE(path->find("BENCH_obs_test.json"), std::string::npos);

  std::FILE* f = std::fopen(path->c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path->c_str());

  Result<Json> parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = *parsed;
  for (const char* key :
       {"schema_version", "bench", "scale", "params", "systems", "metrics"}) {
    EXPECT_TRUE(doc.Has(key)) << "missing key " << key;
  }
  EXPECT_EQ(doc.Get("schema_version").as_int(),
            obs::BenchReport::kSchemaVersion);
  EXPECT_EQ(doc.Get("bench").as_string(), "obs_test");
  EXPECT_EQ(doc.Get("params").Get("reps").as_int(), 3);

  ASSERT_EQ(doc.Get("systems").size(), 1u);
  const Json& sys = doc.Get("systems").at(0);
  EXPECT_EQ(sys.Get("system").as_string(), "Neo4j (Cypher)");

  const Json& metrics = doc.Get("metrics");
  EXPECT_EQ(metrics.Get("counters").Get("mq.produced").as_int(), 42);
  EXPECT_EQ(metrics.Get("gauges").Get("mq.consumer.lag").as_int(), 7);
  EXPECT_FALSE(metrics.Has("histograms"));
}

}  // namespace
}  // namespace graphbench
