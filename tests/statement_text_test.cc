// One statement, one text, one cached plan: each declarative SUT (Cypher,
// SQL, SPARQL) sends a single constant parameterized text per statement,
// so with the plan cache on every read parses exactly once and a new
// LIMIT value binds instead of adding a plan. StatementText(kind) names
// the text that actually runs.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "snb/datagen.h"
#include "sut/cypher_sut.h"
#include "sut/relational_sut.h"
#include "sut/sparql_sut.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

const snb::Dataset& SharedDataset() {
  static const snb::Dataset* data = [] {
    snb::DatagenOptions o;
    o.num_persons = 60;
    o.seed = 5;
    return new snb::Dataset(snb::Generate(o));
  }();
  return *data;
}

class StatementTextTest : public ::testing::TestWithParam<SutKind> {
 protected:
  void SetUp() override {
    sut_ = MakeSut(GetParam(), SutOptions{.plan_cache = true});
    ASSERT_NE(sut_, nullptr);
    Status s = sut_->Load(SharedDataset());
    ASSERT_TRUE(s.ok()) << sut_->name() << ": " << s.ToString();
    person_ = SharedDataset().persons.front().id;
    other_ = SharedDataset().persons.back().id;
    post_ = SharedDataset().posts.front().id;
  }

  void RunAllReads() {
    ASSERT_TRUE(sut_->PointLookup(person_).ok());
    ASSERT_TRUE(sut_->OneHop(person_).ok());
    ASSERT_TRUE(sut_->TwoHop(person_).ok());
    ASSERT_TRUE(sut_->ShortestPathLen(person_, other_).ok());
    ASSERT_TRUE(sut_->RecentPosts(person_, 5).ok());
    ASSERT_TRUE(sut_->FriendsWithName(person_, "Ada").ok());
    ASSERT_TRUE(sut_->RepliesOfPost(post_).ok());
    ASSERT_TRUE(sut_->TopPosters(5).ok());
  }

  std::unique_ptr<Sut> sut_;
  int64_t person_ = 0, other_ = 0, post_ = 0;
};

TEST_P(StatementTextTest, RecentPostsLimitBindsIntoOnePlan) {
  ASSERT_TRUE(sut_->RecentPosts(person_, 5).ok());
  lang::PlanCacheStats before = sut_->plan_cache_stats();
  ASSERT_TRUE(sut_->RecentPosts(person_, 10).ok());
  lang::PlanCacheStats after = sut_->plan_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1) << sut_->name();
  EXPECT_EQ(after.misses, before.misses) << sut_->name();
}

TEST_P(StatementTextTest, TopPostersLimitBindsIntoOnePlan) {
  ASSERT_TRUE(sut_->TopPosters(5).ok());
  lang::PlanCacheStats before = sut_->plan_cache_stats();
  ASSERT_TRUE(sut_->TopPosters(10).ok());
  lang::PlanCacheStats after = sut_->plan_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1) << sut_->name();
  EXPECT_EQ(after.misses, before.misses) << sut_->name();
}

TEST_P(StatementTextTest, EightReadsTwiceParseEightTimes) {
  lang::PlanCacheStats before = sut_->plan_cache_stats();
  RunAllReads();
  RunAllReads();
  lang::PlanCacheStats after = sut_->plan_cache_stats();
  EXPECT_EQ(after.misses - before.misses, 8u) << sut_->name();
  EXPECT_EQ(after.hits - before.hits, 8u) << sut_->name();
}

TEST_P(StatementTextTest, StatementTextIsTheTextThatRuns) {
  // The reported recent_posts text, executed directly on the engine, hits
  // the plan the SUT's own call cached.
  ASSERT_TRUE(sut_->RecentPosts(person_, 5).ok());
  const std::string text = sut_->StatementText("recent_posts");
  ASSERT_FALSE(text.empty()) << sut_->name();
  lang::PlanCacheStats before = sut_->plan_cache_stats();
  Status s;
  if (auto* sql = dynamic_cast<RelationalSut*>(sut_.get())) {
    s = sql->database()->Execute(text, {Value(person_), Value(7)}).status();
  } else if (auto* sparql = dynamic_cast<SparqlSut*>(sut_.get())) {
    s = sparql->engine()
            ->Execute(text, {{"person_id", Value(person_)},
                             {"limit", Value(7)}})
            .status();
  } else {
    auto* cypher = dynamic_cast<CypherSut*>(sut_.get());
    ASSERT_NE(cypher, nullptr) << sut_->name();
    s = cypher->engine()
            ->Execute(text, {{"id", Value(person_)}, {"limit", Value(7)}})
            .status();
  }
  ASSERT_TRUE(s.ok()) << sut_->name() << ": " << s.ToString();
  lang::PlanCacheStats after = sut_->plan_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1) << sut_->name();
  EXPECT_EQ(after.misses, before.misses) << sut_->name();
}

INSTANTIATE_TEST_SUITE_P(
    DeclarativeSuts, StatementTextTest,
    ::testing::Values(SutKind::kNeo4jCypher, SutKind::kPostgresSql,
                      SutKind::kVirtuosoSql, SutKind::kVirtuosoSparql),
    [](const ::testing::TestParamInfo<SutKind>& info) {
      std::string out;
      for (char c : std::string(SutKindName(info.param))) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out;
    });

}  // namespace
}  // namespace graphbench
