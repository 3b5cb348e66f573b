#include "driver/driver.h"

#include <gtest/gtest.h>

#include <atomic>

#include "numbered.h"
#include "snb/datagen.h"
#include "snb/update_codec.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

snb::DatagenOptions SmallOptions() {
  snb::DatagenOptions o;
  o.num_persons = 80;
  o.seed = 21;
  o.max_degree = 15;
  return o;
}

TEST(MqTest, ProduceConsumeRoundTrip) {
  mq::Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  mq::Producer producer(&broker, "t");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(producer.Send("key" + std::to_string(i % 5),
                              "payload" + std::to_string(i))
                    .ok());
  }
  mq::Consumer consumer(&broker, "t");
  size_t total = 0;
  while (!consumer.CaughtUp()) {
    auto batch = consumer.Poll(7);
    ASSERT_TRUE(batch.ok());
    total += batch->size();
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(consumer.consumed(), 100u);
  // Fully drained: further polls are empty.
  auto more = consumer.Poll(10);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(more->empty());
}

TEST(MqTest, LagTracksUnconsumedMessages) {
  mq::Broker broker;
  ASSERT_TRUE(broker.CreateTopic("lag", 2).ok());
  mq::Producer producer(&broker, "lag");
  mq::Consumer consumer(&broker, "lag");
  EXPECT_EQ(consumer.Lag(), 0u);
  EXPECT_TRUE(consumer.CaughtUp());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(producer.Send(Numbered("k", i), "p").ok());
  }
  EXPECT_EQ(consumer.Lag(), 30u);
  EXPECT_FALSE(consumer.CaughtUp());
  auto batch = consumer.Poll(10);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(consumer.Lag(), 30u - batch->size());
  while (consumer.Lag() > 0) {
    ASSERT_TRUE(consumer.Poll(10).ok());
  }
  EXPECT_TRUE(consumer.CaughtUp());
  EXPECT_EQ(consumer.consumed(), 30u);
}

TEST(MqTest, SingleTopicPartitionPreservesOrder) {
  mq::Broker broker;
  ASSERT_TRUE(broker.CreateTopic("ordered", 1).ok());
  mq::Producer producer(&broker, "ordered");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(producer.Send("", std::to_string(i), i).ok());
  }
  mq::Consumer consumer(&broker, "ordered");
  int expected = 0;
  while (!consumer.CaughtUp()) {
    auto batch = consumer.Poll(8);
    ASSERT_TRUE(batch.ok());
    for (const auto& m : *batch) {
      EXPECT_EQ(m.payload, std::to_string(expected));
      ++expected;
    }
  }
  EXPECT_EQ(expected, 50);
}

TEST(MqTest, ErrorsOnUnknownTopicAndBadPartition) {
  mq::Broker broker;
  mq::Producer producer(&broker, "nope");
  EXPECT_TRUE(producer.Send("", "x").status().IsNotFound());
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  EXPECT_TRUE(broker.Fetch("t", 5, 0, 1).status().IsInvalidArgument());
  EXPECT_TRUE(broker.Fetch("missing", 0, 0, 1).status().IsNotFound());
  EXPECT_TRUE(broker.CreateTopic("t", 1).IsAlreadyExists());
  EXPECT_TRUE(broker.CreateTopic("z", 0).IsInvalidArgument());
}

TEST(UpdateCodecTest, AllKindsRoundTrip) {
  snb::Dataset data = snb::Generate(SmallOptions());
  ASSERT_FALSE(data.update_stream.empty());
  std::set<uint8_t> kinds_seen;
  for (const auto& op : data.update_stream) {
    std::string bytes = snb::EncodeUpdate(op);
    auto decoded = snb::DecodeUpdate(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, op.kind);
    EXPECT_EQ(decoded->scheduled_date, op.scheduled_date);
    EXPECT_EQ(decoded->dependency_date, op.dependency_date);
    kinds_seen.insert(uint8_t(op.kind));
  }
  // The generated stream should exercise several update kinds.
  EXPECT_GE(kinds_seen.size(), 4u);
  EXPECT_FALSE(snb::DecodeUpdate("").ok());
  EXPECT_FALSE(snb::DecodeUpdate("\x01trunc").ok());
}

TEST(DatagenTest, DeterministicForSeed) {
  snb::Dataset a = snb::Generate(SmallOptions());
  snb::Dataset b = snb::Generate(SmallOptions());
  EXPECT_EQ(a.persons.size(), b.persons.size());
  EXPECT_EQ(a.knows.size(), b.knows.size());
  EXPECT_EQ(a.update_stream.size(), b.update_stream.size());
  ASSERT_FALSE(a.persons.empty());
  EXPECT_EQ(a.persons[0].first_name, b.persons[0].first_name);
}

TEST(DatagenTest, UpdateStreamIsTimestampOrderedAndDependencySafe) {
  snb::Dataset data = snb::Generate(SmallOptions());
  int64_t prev = 0;
  for (const auto& op : data.update_stream) {
    EXPECT_GE(op.scheduled_date, prev);
    prev = op.scheduled_date;
    // The dependency must exist strictly before the op executes.
    EXPECT_LT(op.dependency_date, op.scheduled_date);
  }
}

TEST(DatagenTest, ScalesAreOrdered) {
  snb::Dataset a = snb::Generate(snb::ScaleA());
  snb::Dataset b = snb::Generate(snb::ScaleB());
  EXPECT_GT(b.VertexCount(), 2 * a.VertexCount());
  EXPECT_GT(b.EdgeCount(), 2 * a.EdgeCount());
  EXPECT_GT(a.RawBytes(), 0u);
}

TEST(DriverTest, RunsMixAgainstRelationalSut) {
  snb::Dataset data = snb::Generate(SmallOptions());
  auto sut = MakeSut(SutKind::kPostgresSql);
  ASSERT_TRUE(sut->Load(data).ok());

  mq::Broker broker;
  ASSERT_TRUE(
      InteractiveDriver::ProduceUpdates(&broker, "updates", data).ok());

  DriverOptions options;
  options.num_readers = 2;
  options.run_millis = 300;
  InteractiveDriver driver(sut.get(), &broker, options);
  snb::ParamPools params(data, 5);
  auto metrics = driver.Run("updates", &params);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_GT(metrics->reads_completed, 0u);
  EXPECT_EQ(metrics->writes_completed, data.update_stream.size());
  EXPECT_EQ(metrics->write_errors, 0u);
  EXPECT_EQ(metrics->dependency_violations, 0u);
  EXPECT_GT(metrics->reads_per_second, 0.0);
  EXPECT_GT(metrics->writes_per_second, 0.0);
  EXPECT_GT(metrics->read_latency_micros.count(), 0u);

  uint64_t timeline_total = 0;
  for (uint64_t n : metrics->read_timeline) timeline_total += n;
  EXPECT_EQ(timeline_total, metrics->reads_completed);
}

/// Every other read fails with a fast Busy rejection; writes succeed.
class HalfFailingReadsSut : public Sut {
 public:
  HalfFailingReadsSut() : Sut(SutKind::kMatrix) {}
  uint64_t SizeBytes() const override { return 0; }

 protected:
  Status DoLoad(const snb::Dataset&) override { return Status::OK(); }
  Result<QueryResult> DoPointLookup(int64_t) override { return Answer(); }
  Result<QueryResult> DoOneHop(int64_t) override { return Answer(); }
  Result<QueryResult> DoTwoHop(int64_t) override { return Answer(); }
  Result<int> DoShortestPathLen(int64_t, int64_t) override { return 0; }
  Result<QueryResult> DoRecentPosts(int64_t, int64_t) override {
    return Answer();
  }
  Result<QueryResult> DoFriendsWithName(int64_t,
                                        const std::string&) override {
    return Answer();
  }
  Result<QueryResult> DoRepliesOfPost(int64_t) override { return Answer(); }
  Result<QueryResult> DoTopPosters(int64_t) override { return Answer(); }
  Status DoApply(const snb::UpdateOp&) override { return Status::OK(); }

 private:
  Result<QueryResult> Answer() {
    if (calls_.fetch_add(1) % 2 == 0) return Status::Busy("fake rejection");
    return QueryResult{};
  }
  std::atomic<uint64_t> calls_{0};
};

TEST(DriverTest, LatencyHistogramsCountSuccessesOnly) {
  snb::Dataset data = snb::Generate(SmallOptions());
  HalfFailingReadsSut sut;
  ASSERT_TRUE(sut.Load(data).ok());

  mq::Broker broker;
  ASSERT_TRUE(
      InteractiveDriver::ProduceUpdates(&broker, "updates", data).ok());

  DriverOptions options;
  options.num_readers = 2;
  options.run_millis = 100;
  InteractiveDriver driver(&sut, &broker, options);
  snb::ParamPools params(data, 5);
  auto metrics = driver.Run("updates", &params);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_GT(metrics->reads_completed, 0u);
  EXPECT_GT(metrics->read_errors, 0u);
  EXPECT_EQ(metrics->read_latency_micros.count(), metrics->reads_completed);
  EXPECT_EQ(metrics->read_error_latency_micros.count(),
            metrics->read_errors);
  EXPECT_EQ(metrics->write_errors, 0u);
  EXPECT_EQ(metrics->write_latency_micros.count(),
            metrics->writes_completed);
  EXPECT_EQ(metrics->write_error_latency_micros.count(), 0u);
}

TEST(DriverTest, PacedReplayHoldsThePresetRate) {
  snb::Dataset data = snb::Generate(SmallOptions());
  auto sut = MakeSut(SutKind::kPostgresSql);
  ASSERT_TRUE(sut->Load(data).ok());
  mq::Broker broker;
  ASSERT_TRUE(
      InteractiveDriver::ProduceUpdates(&broker, "paced", data).ok());

  DriverOptions options;
  options.num_readers = 0;
  options.run_millis = 600;
  options.replay_updates_per_second = 500;  // well below SUT capacity
  InteractiveDriver driver(sut.get(), &broker, options);
  snb::ParamPools params(data, 5);
  auto metrics = driver.Run("paced", &params);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // ~500/s over 0.6s ≈ 300 ops (or the whole stream if smaller), and the
  // measured write rate tracks the schedule, not SUT capacity.
  uint64_t expected =
      std::min<uint64_t>(data.update_stream.size(), 300 + 64);
  EXPECT_LE(metrics->writes_completed, expected);
  EXPECT_GT(metrics->writes_completed, 200u);
  EXPECT_EQ(metrics->late_writes, 0u);
  EXPECT_LT(metrics->writes_per_second, 700.0);
}

TEST(DriverTest, WriterAppliesEverythingEvenWithoutReaders) {
  snb::Dataset data = snb::Generate(SmallOptions());
  auto sut = MakeSut(SutKind::kVirtuosoSparql);
  ASSERT_TRUE(sut->Load(data).ok());

  mq::Broker broker;
  ASSERT_TRUE(
      InteractiveDriver::ProduceUpdates(&broker, "updates", data).ok());
  DriverOptions options;
  options.num_readers = 0;
  options.run_millis = 200;
  InteractiveDriver driver(sut.get(), &broker, options);
  snb::ParamPools params(data, 5);
  auto metrics = driver.Run("updates", &params);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->writes_completed, data.update_stream.size());
  EXPECT_EQ(metrics->reads_completed, 0u);
}

}  // namespace
}  // namespace graphbench
