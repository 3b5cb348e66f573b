#include "engines/relational/database.h"

#include <gtest/gtest.h>

#include <memory>

namespace graphbench {
namespace {

// Both storage modes must return identical query results.
class DatabaseContractTest : public ::testing::TestWithParam<StorageMode> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(GetParam());
    ASSERT_TRUE(db_->CreateTable(TableSchema(
                       "person", {{"id", Value::Type::kInt},
                                  {"firstName", Value::Type::kString},
                                  {"lastName", Value::Type::kString}}))
                    .ok());
    ASSERT_TRUE(db_->CreateTable(TableSchema(
                       "knows", {{"person1Id", Value::Type::kInt},
                                 {"person2Id", Value::Type::kInt}}))
                    .ok());
    ASSERT_TRUE(db_->CreateIndex("person", "id", true).ok());
    ASSERT_TRUE(db_->CreateIndex("knows", "person1Id", false).ok());
    ASSERT_TRUE(db_->CreateIndex("knows", "person2Id", false).ok());
    ASSERT_TRUE(db_->RegisterEdgeTable("knows", "person1Id", "person2Id").ok());

    const char* names[][2] = {{"Ada", "L"},  {"Bob", "M"}, {"Cy", "N"},
                              {"Dee", "O"},  {"Eve", "P"}, {"Fay", "Q"}};
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(Exec("INSERT INTO person (id, firstName, lastName) "
                       "VALUES (?, ?, ?)",
                       {Value(i + 1), Value(names[i][0]), Value(names[i][1])})
                      .ok());
    }
    // Chain 1-2-3-4-5 plus 1-3 shortcut; 6 isolated. Both directions are
    // stored once; queries treat knows as bidirectional by querying both
    // columns (as the paper's fixed reference implementation does).
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}}) {
      ASSERT_TRUE(Exec("INSERT INTO knows (person1Id, person2Id) "
                       "VALUES (?, ?)",
                       {Value(a), Value(b)})
                      .ok());
    }
  }

  Result<QueryResult> Exec(std::string_view sql,
                           const std::vector<Value>& params = {}) {
    return db_->Execute(sql, params);
  }

  std::unique_ptr<Database> db_;
};

TEST_P(DatabaseContractTest, PointLookupViaIndex) {
  auto r = Exec("SELECT firstName, lastName FROM person WHERE id = ?",
                {Value(3)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_string(), "Cy");
  EXPECT_EQ(r->columns[0], "firstName");
}

TEST_P(DatabaseContractTest, PointLookupMissingGivesEmpty) {
  auto r = Exec("SELECT firstName FROM person WHERE id = 999");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_P(DatabaseContractTest, FullScanWithoutIndex) {
  auto r = Exec("SELECT id FROM person WHERE firstName = 'Eve'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 5);
}

TEST_P(DatabaseContractTest, OneHopJoin) {
  auto r = Exec(
      "SELECT p.id, p.firstName FROM knows k "
      "JOIN person p ON k.person2Id = p.id WHERE k.person1Id = ? "
      "ORDER BY p.id",
      {Value(1)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);  // 1 knows 2 and 3
  EXPECT_EQ(r->rows[0][0].as_int(), 2);
  EXPECT_EQ(r->rows[1][0].as_int(), 3);
}

TEST_P(DatabaseContractTest, TwoHopDistinct) {
  auto r = Exec(
      "SELECT DISTINCT p3.id FROM knows k1 "
      "JOIN knows k2 ON k1.person2Id = k2.person1Id "
      "JOIN person p3 ON k2.person2Id = p3.id "
      "WHERE k1.person1Id = ? AND p3.id <> ? ORDER BY p3.id",
      {Value(1), Value(1)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // out-edges only: 1->2->3, 1->3->4 => {3, 4}
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].as_int(), 3);
  EXPECT_EQ(r->rows[1][0].as_int(), 4);
}

TEST_P(DatabaseContractTest, CountStar) {
  auto r = Exec("SELECT COUNT(*) FROM person");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].as_int(), 6);
}

TEST_P(DatabaseContractTest, OrderByDescAndLimit) {
  auto r = Exec("SELECT id FROM person ORDER BY id DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].as_int(), 6);
  EXPECT_EQ(r->rows[2][0].as_int(), 4);
}

TEST_P(DatabaseContractTest, ShortestPathBothModes) {
  auto r = Exec("SELECT SHORTEST_PATH(?, ?) USING knows(person1Id, person2Id)",
                {Value(1), Value(5)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 3);  // 1-3-4-5 via shortcut

  auto self = Exec(
      "SELECT SHORTEST_PATH(?, ?) USING knows(person1Id, person2Id)",
      {Value(2), Value(2)});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->rows[0][0].as_int(), 0);

  auto unreachable = Exec(
      "SELECT SHORTEST_PATH(?, ?) USING knows(person1Id, person2Id)",
      {Value(1), Value(6)});
  ASSERT_TRUE(unreachable.ok());
  EXPECT_EQ(unreachable->rows[0][0].as_int(), -1);
}

TEST_P(DatabaseContractTest, ShortestPathIsUndirected) {
  auto r = Exec("SELECT SHORTEST_PATH(?, ?) USING knows(person1Id, person2Id)",
                {Value(5), Value(1)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].as_int(), 3);
}

TEST_P(DatabaseContractTest, UniqueIndexRejectsDuplicateInsert) {
  auto dup = Exec("INSERT INTO person (id, firstName, lastName) "
                  "VALUES (1, 'X', 'Y')");
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  // Rolled back: still 6 persons and id=1 unchanged.
  auto count = Exec("SELECT COUNT(*) FROM person");
  EXPECT_EQ(count->rows[0][0].as_int(), 6);
  auto row = Exec("SELECT firstName FROM person WHERE id = 1");
  EXPECT_EQ(row->rows[0][0].as_string(), "Ada");
}

TEST_P(DatabaseContractTest, InsertVisibleToSubsequentQueries) {
  ASSERT_TRUE(Exec("INSERT INTO person (id, firstName, lastName) "
                   "VALUES (7, 'Gil', 'R')")
                  .ok());
  ASSERT_TRUE(
      Exec("INSERT INTO knows (person1Id, person2Id) VALUES (6, 7)").ok());
  auto r = Exec("SELECT SHORTEST_PATH(?, ?) USING knows(person1Id, person2Id)",
                {Value(6), Value(7)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].as_int(), 1);
}

TEST_P(DatabaseContractTest, ErrorsOnUnknownTableOrColumn) {
  EXPECT_TRUE(Exec("SELECT x FROM nope").status().IsInvalidArgument());
  EXPECT_TRUE(
      Exec("SELECT nope FROM person").status().IsInvalidArgument());
  EXPECT_TRUE(Exec("INSERT INTO person (bogus) VALUES (1)")
                  .status()
                  .IsInvalidArgument());
}

TEST_P(DatabaseContractTest, OverlongOrMalformedNumberIsAnError) {
  // These used to throw out of the lexer's std::stoll and abort.
  for (int cached = 0; cached < 2; ++cached) {
    if (cached) db_->EnablePlanCache();
    EXPECT_TRUE(Exec("SELECT id FROM person WHERE id = "
                     "99999999999999999999999")
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(Exec("SELECT id FROM person WHERE id = 1.2.3")
                    .status()
                    .IsInvalidArgument());
  }
  EXPECT_EQ(db_->plan_cache_stats().size, 0u);
}

TEST_P(DatabaseContractTest, SizeAccountingGrows) {
  uint64_t before = db_->TotalSizeBytes();
  ASSERT_TRUE(Exec("INSERT INTO person (id, firstName, lastName) "
                   "VALUES (100, 'Zed', 'Z')")
                  .ok());
  EXPECT_GT(db_->TotalSizeBytes(), before);
}

INSTANTIATE_TEST_SUITE_P(Modes, DatabaseContractTest,
                         ::testing::Values(StorageMode::kRow,
                                           StorageMode::kColumnar),
                         [](const auto& info) {
                           return info.param == StorageMode::kRow
                                      ? "Row"
                                      : "Columnar";
                         });

}  // namespace
}  // namespace graphbench
