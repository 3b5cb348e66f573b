// Concurrency stress tests for the pieces the interactive workload (§4.3)
// and the concurrent-loading experiment (Appendix A) rely on.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>

#include "driver/driver.h"
#include "engines/relational/database.h"
#include "engines/titan/titan_graph.h"
#include "kv/btree_kv.h"
#include "kv/key_codec.h"
#include "kv/lsm_kv.h"
#include "mq/broker.h"
#include "numbered.h"
#include "obs/metrics.h"
#include "snb/datagen.h"
#include "sut/matrix_sut.h"

namespace graphbench {
namespace {

TEST(ConcurrencyTest, LsmConcurrentWritersLoseNothing) {
  LsmOptions options;
  options.memtable_bytes = 4096;  // force flush/compaction under load
  options.max_runs = 3;
  LsmKv kv(options);
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&kv, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = Numbered("t", t) + "-" + std::to_string(i);
        ASSERT_TRUE(kv.Put(key, "v").ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(kv.Count(), uint64_t(kThreads * kPerThread));
  std::string v;
  EXPECT_TRUE(kv.Get("t2-1999", &v).ok());
}

// A reader scans whole rows (one memtable shard plus the runs) while a
// writer appends columns to those rows and flushes and compacts under it.
// Every scan is sorted, duplicate-free, and holds at least every column
// acknowledged before it began.
TEST(ConcurrencyTest, LsmRowScansDuringAppendsAndFlushes) {
  LsmOptions options;
  options.memtable_bytes = 2048;
  options.max_runs = 3;
  LsmKv kv(options);
  constexpr uint64_t kRows = 4, kColumns = 600;
  auto row_key = [](uint64_t row) {
    std::string key;
    keycodec::AppendRowKey(&key, 'A', row);
    return key;
  };
  std::array<std::atomic<uint64_t>, kRows> acked{};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t c = 0; c < kColumns; ++c) {
      for (uint64_t r = 0; r < kRows; ++r) {
        std::string key = row_key(r);
        keycodec::AppendU64(&key, c);
        EXPECT_TRUE(kv.Put(key, std::to_string(c)).ok());
        acked[r].store(c + 1, std::memory_order_release);
      }
      if (c % 50 == 0) kv.Flush();
    }
    done = true;
  });
  std::vector<std::pair<std::string, std::string>> rows;
  auto scan_row = [&](uint64_t r) {
    const uint64_t floor = acked[r].load(std::memory_order_acquire);
    const std::string prefix = row_key(r);
    ASSERT_TRUE(kv.ScanPrefix(prefix, &rows).ok());
    ASSERT_GE(rows.size(), floor);
    std::vector<bool> seen(kColumns, false);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(rows[i - 1].first, rows[i].first);
      }
      std::string_view key(rows[i].first);
      ASSERT_EQ(key.substr(0, prefix.size()), prefix);
      key.remove_prefix(prefix.size());
      uint64_t c = 0;
      ASSERT_TRUE(keycodec::DecodeU64(&key, &c));
      ASSERT_LT(c, kColumns);
      ASSERT_EQ(rows[i].second, std::to_string(c));
      seen[c] = true;
    }
    for (uint64_t c = 0; c < floor; ++c) ASSERT_TRUE(seen[c]) << c;
  };
  for (uint64_t scans = 0; !HasFatalFailure() && (!done || scans < 100);
       ++scans) {
    scan_row(scans % kRows);
  }
  writer.join();
  EXPECT_GT(kv.compactions_run(), 0u);
}

TEST(ConcurrencyTest, BTreeReadersDuringSplits) {
  BTreeKv kv(/*fanout=*/8);
  std::atomic<bool> stop{false};
  std::atomic<int> read_failures{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(kv.Put("base" + std::to_string(i), "v").ok());
  }
  std::thread reader([&] {
    std::string v;
    while (!stop) {
      if (!kv.Get("base50", &v).ok() || v != "v") ++read_failures;
    }
  });
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(kv.Put("grow" + std::to_string(i), "w").ok());
  }
  stop = true;
  reader.join();
  EXPECT_EQ(read_failures.load(), 0);
}

TEST(ConcurrencyTest, TitanUniquenessUnderRacingInserts) {
  // Two threads race to create the same person id over the isolation-free
  // LSM backend; the lock manager must let exactly one win (the Titan
  // behaviour §4.3 discusses).
  for (int round = 0; round < 20; ++round) {
    TitanGraph titan(std::make_unique<LsmKv>());
    ASSERT_TRUE(titan.RegisterUniqueIndex("Person", "id").ok());
    std::atomic<int> created{0}, rejected{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        auto r = titan.AddVertex("Person", {{"id", Value(7)}});
        if (r.ok()) ++created;
        else if (r.status().IsAlreadyExists()) ++rejected;
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(created.load(), 1) << "round " << round;
    EXPECT_EQ(rejected.load(), 1) << "round " << round;
  }
}

TEST(ConcurrencyTest, DatabaseReadersWithConcurrentInserts) {
  Database db(StorageMode::kRow);
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"id", Value::Type::kInt},
                                               {"v", Value::Type::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateIndex("t", "id", true).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.InsertRow("t", {Value(i), Value(i * 2)}).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    while (!stop) {
      auto r = db.Execute("SELECT v FROM t WHERE id = 250");
      if (!r.ok() || r->rows.size() != 1 || r->rows[0][0].as_int() != 500) {
        ++bad;
      }
    }
  });
  for (int i = 500; i < 4000; ++i) {
    ASSERT_TRUE(db.InsertRow("t", {Value(i), Value(i * 2)}).ok());
  }
  stop = true;
  reader.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ConcurrencyTest, MqManyProducersOneConsumer) {
  mq::Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", 4).ok());
  constexpr int kProducers = 4, kEach = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&broker, p] {
      mq::Producer producer(&broker, "t");
      for (int i = 0; i < kEach; ++i) {
        ASSERT_TRUE(producer.Send(Numbered("k", p), "m").ok());
      }
    });
  }
  mq::Consumer consumer(&broker, "t");
  size_t got = 0;
  // Consume concurrently with production until all arrive.
  while (got < size_t(kProducers * kEach)) {
    auto batch = consumer.Poll(64);
    ASSERT_TRUE(batch.ok());
    got += batch->size();
    if (batch->empty()) std::this_thread::yield();
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(got, size_t(kProducers * kEach));
  EXPECT_TRUE(consumer.CaughtUp());
}

/// Matrix, except a point lookup of an odd person id fails fast, so the
/// driver's readers record both outcomes.
class OddLookupsFailSut : public MatrixSut {
 protected:
  Result<QueryResult> DoPointLookup(int64_t person_id) override {
    if (person_id % 2 != 0) return Status::Busy("odd id");
    return MatrixSut::DoPointLookup(person_id);
  }
};

// Each driver reader records into its own histograms and timeline, merged
// after the join; under TSan this proves the readers share nothing they
// write. No wall-clock drain assertion: TSan's slowdown would break it.
TEST(ConcurrencyTest, DriverReadersRecordPerThreadAndMergeExactly) {
  snb::DatagenOptions gen;
  gen.num_persons = 60;
  gen.seed = 5;
  snb::Dataset data = snb::Generate(gen);
  OddLookupsFailSut sut;
  ASSERT_TRUE(sut.Load(data).ok());
  mq::Broker broker;
  ASSERT_TRUE(
      InteractiveDriver::ProduceUpdates(&broker, "updates", data).ok());

  DriverOptions options;
  options.num_readers = 8;
  options.run_millis = 100;
  options.timeline_bucket_millis = 20;
  InteractiveDriver driver(&sut, &broker, options);
  snb::ParamPools params(data, 5);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t probed_reads = reg.GetCounter("sut.matrix.reads")->value();
  const uint64_t probed_errors =
      reg.GetCounter("sut.matrix.read_errors")->value();
  Result<DriverMetrics> metrics = driver.Run("updates", &params);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  uint64_t timeline_total = 0;
  for (uint64_t n : metrics->read_timeline) timeline_total += n;
  EXPECT_GT(metrics->reads_completed, 0u);
  EXPECT_GT(metrics->read_errors, 0u);
  EXPECT_EQ(metrics->read_latency_micros.count(), metrics->reads_completed);
  EXPECT_EQ(timeline_total, metrics->reads_completed);
  EXPECT_EQ(metrics->read_error_latency_micros.count(),
            metrics->read_errors);
  if (obs::kEnabled) {
    // The facade counts every read the readers issued, independently.
    EXPECT_EQ(reg.GetCounter("sut.matrix.reads")->value() - probed_reads,
              metrics->reads_completed);
    EXPECT_EQ(reg.GetCounter("sut.matrix.read_errors")->value() -
                  probed_errors,
              metrics->read_errors);
  }
}

}  // namespace
}  // namespace graphbench
