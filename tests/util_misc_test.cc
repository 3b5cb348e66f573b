#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "util/histogram.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace graphbench {
namespace {

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(50), 50, 5);
  EXPECT_NEAR(h.Percentile(99), 99, 10);
}

TEST(HistogramTest, MergeAndClear) {
  Histogram a, b;
  a.Add(10);
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 20u);
  a.Clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Percentile(50), 0.0);
}

TEST(HistogramTest, LargeValuesLandInTailBuckets) {
  Histogram h;
  h.Add(5'000'000);  // 5 seconds
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 5'000'000u);
  EXPECT_GT(h.Percentile(50), 0.0);
}

TEST(HistogramTest, PercentilesMatchSortedOracleOutToMinutes) {
  // Log-uniform samples from 1 us to 10 minutes: far past the old
  // 131,072 us ceiling where every tail percentile used to clip.
  constexpr double kMaxMicros = 600e6;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> log_us(0.0, std::log(kMaxMicros));
  Histogram h;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = uint64_t(std::exp(log_us(rng)));
    samples.push_back(v);
    h.Add(v);
  }
  h.Add(uint64_t(kMaxMicros));
  samples.push_back(uint64_t(kMaxMicros));
  std::sort(samples.begin(), samples.end());
  for (double p : {50.0, 95.0, 99.0, 100.0}) {
    // Nearest rank, rounded the way Percentile() rounds.
    size_t rank = std::max<size_t>(
        1, size_t(double(samples.size()) * p / 100.0 + 0.5));
    double truth = double(samples[rank - 1]);
    double got = h.Percentile(p);
    EXPECT_LE(std::abs(got - truth), truth / 16.0)
        << "p" << p << " got " << got << " truth " << truth;
    EXPECT_LE(got, double(h.max())) << "p" << p;
  }
  EXPECT_EQ(h.Percentile(100), kMaxMicros);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v : {1, 2, 3, 63}) h.Add(v);
  EXPECT_EQ(h.Percentile(25), 1.0);
  EXPECT_EQ(h.Percentile(50), 2.0);
  EXPECT_EQ(h.Percentile(100), 63.0);
}

TEST(StringUtilTest, SplitJoinTrim) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_TRUE(EqualsIgnoreCase("MATCH", "match"));
  EXPECT_FALSE(EqualsIgnoreCase("MATCH", "MATC"));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  std::string big(600, 'a');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 600u);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter++; }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, BoundedQueueRejectsOverflow) {
  ThreadPool pool(1, /*max_queue=*/2);
  std::atomic<bool> started{false}, release{false};
  ASSERT_TRUE(pool.Submit([&] {
    started = true;
    while (!release) std::this_thread::yield();
  }));
  while (!started) std::this_thread::yield();
  // The only worker is busy, so exactly the queue's two slots are taken.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += pool.Submit([] {});
  EXPECT_EQ(accepted, 2);
  release = true;
  pool.Shutdown();
}

// Bursts of 1 to kBursts tasks from several threads, each after the
// workers have used up their polls and parked, and each awaited by
// counting, not by Shutdown (whose notify_all would hide a lost wake-up).
// A lost wake-up hangs the test.
TEST(ThreadPoolTest, ParkedWorkersWakeForEveryBurst) {
  constexpr int kBursts = 40, kSubmitters = 4;
  ThreadPool pool(2);
  std::atomic<int> done{0};
  int submitted = 0;
  for (int burst = 1; burst <= kBursts; ++burst) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (int i = s; i < burst; i += kSubmitters) {
          ASSERT_TRUE(pool.Submit([&] { ++done; }));
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    submitted += burst;
    while (done.load() < submitted) std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kBursts * (kBursts + 1) / 2);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(TablePrinterTest, AlignedOutputAndCsv) {
  TablePrinter t("Table X");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22,2"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("Table X"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1"), std::string::npos);
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("\"22,2\""), std::string::npos);
}

}  // namespace
}  // namespace graphbench
