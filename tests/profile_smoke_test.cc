// End-to-end smoke: each of the four query pipelines (Gremlin step
// machine, Cypher, SQL, SPARQL) must produce a non-empty per-operator
// profile for a 2-hop query — the property the --profile bench flag
// depends on.

#include <gtest/gtest.h>

#include <memory>

#include "obs/profiler.h"
#include "snb/datagen.h"
#include "snb/params.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

snb::DatagenOptions TinyOptions() {
  snb::DatagenOptions o;
  o.num_persons = 60;
  o.seed = 7;
  return o;
}

const snb::Dataset& SharedDataset() {
  static const snb::Dataset* data =
      new snb::Dataset(snb::Generate(TinyOptions()));
  return *data;
}

class ProfileSmokeTest : public ::testing::TestWithParam<SutKind> {};

TEST_P(ProfileSmokeTest, TwoHopProducesNonEmptyProfile) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  std::unique_ptr<Sut> sut = MakeSut(GetParam());
  ASSERT_TRUE(sut->Load(SharedDataset()).ok());
  snb::ParamPools params(SharedDataset(), 13);
  int64_t person = params.NextPersonId();

  obs::QueryProfile profile;
  Result<QueryResult> result = Status::Internal("not run");
  {
    obs::ProfileScope scope(&profile);
    result = sut->TwoHop(person);
  }
  ASSERT_TRUE(result.ok()) << sut->name() << ": "
                           << result.status().ToString();
  EXPECT_FALSE(profile.empty())
      << sut->name() << " produced no operator rows";
  EXPECT_GT(profile.ops().size(), 1u)
      << sut->name() << " should break the query into multiple operators";
  uint64_t total_invocations = 0;
  for (const auto& op : profile.ops()) total_invocations += op.invocations;
  EXPECT_GT(total_invocations, 0u);
  // Self times must reconstruct a plausible nonzero total. (Micros can
  // legitimately round to zero per-op on a 60-person graph, so only the
  // shape is asserted; TotalSelfMicros is checked over many reps below.)
  for (const auto& op : profile.ops()) {
    EXPECT_LE(op.self_micros, op.cumulative_micros) << op.name;
  }
}

TEST_P(ProfileSmokeTest, RepeatedQueriesAccumulateTime) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  std::unique_ptr<Sut> sut = MakeSut(GetParam());
  ASSERT_TRUE(sut->Load(SharedDataset()).ok());
  snb::ParamPools params(SharedDataset(), 29);

  obs::QueryProfile profile;
  {
    obs::ProfileScope scope(&profile);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(sut->TwoHop(params.NextPersonId()).ok());
    }
  }
  EXPECT_GT(profile.TotalSelfMicros(), 0u) << sut->name();
}

INSTANTIATE_TEST_SUITE_P(FourPipelines, ProfileSmokeTest,
                         ::testing::Values(SutKind::kNeo4jCypher,
                                           SutKind::kNeo4jGremlin,
                                           SutKind::kPostgresSql,
                                           SutKind::kVirtuosoSparql),
                         [](const auto& info) {
                           switch (info.param) {
                             case SutKind::kNeo4jCypher:
                               return "cypher";
                             case SutKind::kNeo4jGremlin:
                               return "gremlin";
                             case SutKind::kPostgresSql:
                               return "sql";
                             default:
                               return "sparql";
                           }
                         });

}  // namespace
}  // namespace graphbench
