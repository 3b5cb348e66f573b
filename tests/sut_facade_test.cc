// The Sut facade (sut/sut.h): the base class, not each SUT, pins the epoch,
// probes `sut.<id>.*` and opens write batches around every SUT's Do*
// bodies. These tests hold the facade to that: every read kind and every
// write is counted exactly once on every SUT, failures count only as
// errors, and a forwarding decorator adds nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "snb/datagen.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

const snb::Dataset& SharedDataset() {
  static const snb::Dataset* data = [] {
    snb::DatagenOptions o;
    o.num_persons = 60;
    o.seed = 7;
    return new snb::Dataset(snb::Generate(o));
  }();
  return *data;
}

/// The four probe counters of one SUT in the default registry.
struct ProbeCounts {
  uint64_t reads, read_errors;
  uint64_t writes, write_errors;
};

ProbeCounts Counts(SutKind kind) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string base = std::string("sut.") + SutKindId(kind);
  return {reg.GetCounter(base + ".reads")->value(),
          reg.GetCounter(base + ".read_errors")->value(),
          reg.GetCounter(base + ".writes")->value(),
          reg.GetCounter(base + ".write_errors")->value()};
}

int64_t UnusedPersonId(const snb::Dataset& data) {
  int64_t max_id = 0;
  for (const snb::Person& p : data.persons) max_id = std::max(max_id, p.id);
  return max_id + 1000;
}

snb::UpdateOp AddPerson(const snb::Dataset& data, int64_t id) {
  snb::UpdateOp op;
  op.kind = snb::UpdateOp::Kind::kAddPerson;
  op.person = data.persons.front();
  op.person.id = id;
  return op;
}

class SutFacadeTest : public ::testing::TestWithParam<SutKind> {};

TEST_P(SutFacadeTest, EveryReadKindAndApplyIsProbedOnce) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs is compiled out";
  const SutKind kind = GetParam();
  const snb::Dataset& data = SharedDataset();
  std::unique_ptr<Sut> sut = MakeSut(kind);
  ASSERT_TRUE(sut->Load(data).ok());

  const ProbeCounts before = Counts(kind);
  const snb::Knows& k = data.knows.front();
  EXPECT_TRUE(sut->PointLookup(k.person1).ok());
  EXPECT_TRUE(sut->OneHop(k.person1).ok());
  EXPECT_TRUE(sut->TwoHop(k.person1).ok());
  EXPECT_TRUE(sut->ShortestPathLen(k.person1, k.person2).ok());
  EXPECT_TRUE(sut->RecentPosts(k.person1, 5).ok());
  EXPECT_TRUE(
      sut->FriendsWithName(k.person1, data.persons.front().first_name).ok());
  EXPECT_TRUE(sut->RepliesOfPost(data.posts.front().id).ok());
  EXPECT_TRUE(sut->TopPosters(5).ok());
  Status applied = sut->Apply(AddPerson(data, UnusedPersonId(data)));
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  const ProbeCounts after = Counts(kind);

  EXPECT_EQ(after.reads - before.reads, 8u);
  EXPECT_EQ(after.writes - before.writes, 1u);
  EXPECT_EQ(after.read_errors, before.read_errors);
  EXPECT_EQ(after.write_errors, before.write_errors);
}

INSTANTIATE_TEST_SUITE_P(AllSuts, SutFacadeTest,
                         ::testing::ValuesIn(AllSutKinds()),
                         [](const ::testing::TestParamInfo<SutKind>& info) {
                           std::string id = SutKindId(info.param);
                           std::replace(id.begin(), id.end(), '-', '_');
                           return id;
                         });

/// A SUT whose bodies fail on demand. It has no engine: reads answer
/// empty and the shortest path is always 0.
class FakeSut : public Sut {
 public:
  FakeSut() : Sut(SutKind::kMatrix) {}

  bool fail = false;

  uint64_t SizeBytes() const override { return 0; }

 protected:
  Status DoLoad(const snb::Dataset&) override { return Status::OK(); }
  Result<QueryResult> DoPointLookup(int64_t) override { return Answer(); }
  Result<QueryResult> DoOneHop(int64_t) override { return Answer(); }
  Result<QueryResult> DoTwoHop(int64_t) override { return Answer(); }
  Result<int> DoShortestPathLen(int64_t, int64_t) override {
    if (fail) return Status::Busy("fake rejection");
    return 0;
  }
  Result<QueryResult> DoRecentPosts(int64_t, int64_t) override {
    return Answer();
  }
  Result<QueryResult> DoFriendsWithName(int64_t,
                                        const std::string&) override {
    return Answer();
  }
  Result<QueryResult> DoRepliesOfPost(int64_t) override { return Answer(); }
  Result<QueryResult> DoTopPosters(int64_t) override { return Answer(); }
  Status DoApply(const snb::UpdateOp&) override {
    return fail ? Status::Busy("fake rejection") : Status::OK();
  }

 private:
  Result<QueryResult> Answer() const {
    if (fail) return Status::Busy("fake rejection");
    return QueryResult{};
  }
};

TEST(SutFacadeFakeTest, FailedOpsCountOnlyAsErrors) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs is compiled out";
  FakeSut sut;
  ASSERT_TRUE(sut.Load(SharedDataset()).ok());
  sut.fail = true;

  const ProbeCounts before = Counts(sut.kind());
  EXPECT_FALSE(sut.PointLookup(1).ok());
  EXPECT_FALSE(sut.TwoHop(1).ok());
  EXPECT_FALSE(sut.ShortestPathLen(1, 2).ok());
  EXPECT_FALSE(sut.Apply(AddPerson(SharedDataset(), 1)).ok());
  const ProbeCounts after = Counts(sut.kind());

  EXPECT_EQ(after.read_errors - before.read_errors, 3u);
  EXPECT_EQ(after.write_errors - before.write_errors, 1u);
  EXPECT_EQ(after.reads, before.reads);
  EXPECT_EQ(after.writes, before.writes);
}

/// Forwards every call to another SUT's public methods, the way the bench
/// decorators (coarse-lock, complex-mix) wrap a SUT.
class ForwardingSut : public Sut {
 public:
  explicit ForwardingSut(std::unique_ptr<Sut> inner)
      : Sut(inner->kind(), Facade::kForward), inner_(std::move(inner)) {}

  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }

 protected:
  Status DoLoad(const snb::Dataset& data) override {
    return inner_->Load(data);
  }
  Result<QueryResult> DoPointLookup(int64_t id) override {
    return inner_->PointLookup(id);
  }
  Result<QueryResult> DoOneHop(int64_t id) override {
    return inner_->OneHop(id);
  }
  Result<QueryResult> DoTwoHop(int64_t id) override {
    return inner_->TwoHop(id);
  }
  Result<int> DoShortestPathLen(int64_t a, int64_t b) override {
    return inner_->ShortestPathLen(a, b);
  }
  Result<QueryResult> DoRecentPosts(int64_t id, int64_t limit) override {
    return inner_->RecentPosts(id, limit);
  }
  Result<QueryResult> DoFriendsWithName(
      int64_t id, const std::string& first_name) override {
    return inner_->FriendsWithName(id, first_name);
  }
  Result<QueryResult> DoRepliesOfPost(int64_t id) override {
    return inner_->RepliesOfPost(id);
  }
  Result<QueryResult> DoTopPosters(int64_t limit) override {
    return inner_->TopPosters(limit);
  }
  Status DoApply(const snb::UpdateOp& op) override {
    return inner_->Apply(op);
  }

 private:
  std::unique_ptr<Sut> inner_;
};

TEST(SutFacadeForwardingTest, WrapperOverGremlinAppliesMultiStepPostOnce) {
  const snb::Dataset& data = SharedDataset();
  ForwardingSut sut(MakeSut(SutKind::kTitanC));
  EXPECT_EQ(sut.name(), "Titan-C (Gremlin)");
  ASSERT_TRUE(sut.Load(data).ok());

  // kAddPost is three traversals on the Gremlin Server (create the post,
  // link its creator, link its forum); each must see the one before.
  snb::UpdateOp op;
  op.kind = snb::UpdateOp::Kind::kAddPost;
  op.post = data.posts.front();
  for (const snb::Post& p : data.posts) {
    op.post.id = std::max(op.post.id, p.id + 1);
    op.post.creation_date = std::max(op.post.creation_date,
                                     p.creation_date + 1);
  }

  const ProbeCounts before = Counts(SutKind::kTitanC);
  Status applied = sut.Apply(op);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  Result<QueryResult> recent = sut.RecentPosts(op.post.creator, 1);
  ASSERT_TRUE(recent.ok()) << recent.status().ToString();
  ASSERT_EQ(recent->rows.size(), 1u);
  EXPECT_EQ(recent->rows[0][0].as_int(), op.post.id);
  const ProbeCounts after = Counts(SutKind::kTitanC);

  if (obs::kEnabled) {
    EXPECT_EQ(after.writes - before.writes, 1u);
    EXPECT_EQ(after.reads - before.reads, 1u);
  }
}

}  // namespace
}  // namespace graphbench
