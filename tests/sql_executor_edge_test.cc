// Edge cases of the SQL planner/executor beyond the SNB query shapes.

#include <gtest/gtest.h>

#include "engines/relational/database.h"

namespace graphbench {
namespace {

class SqlExecutorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(StorageMode::kRow);
    ASSERT_TRUE(db_->CreateTable(TableSchema(
                       "a", {{"id", Value::Type::kInt},
                             {"tag", Value::Type::kString}}))
                    .ok());
    ASSERT_TRUE(db_->CreateTable(TableSchema(
                       "b", {{"aid", Value::Type::kInt},
                             {"score", Value::Type::kInt}}))
                    .ok());
    ASSERT_TRUE(db_->CreateIndex("a", "id", true).ok());
    // NOTE: b.aid is deliberately unindexed → joins to b hash-build.
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE(
          db_->InsertRow("a", {Value(i), Value(i % 2 ? "odd" : "even")})
              .ok());
      ASSERT_TRUE(db_->InsertRow("b", {Value(i), Value(i * 10)}).ok());
      ASSERT_TRUE(db_->InsertRow("b", {Value(i), Value(i * 100)}).ok());
    }
  }

  Result<QueryResult> Exec(std::string_view sql,
                           const std::vector<Value>& params = {}) {
    return db_->Execute(sql, params);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlExecutorEdgeTest, HashJoinFallbackOnUnindexedColumn) {
  auto r = Exec(
      "SELECT b.score FROM a JOIN b ON a.id = b.aid WHERE a.id = ? "
      "ORDER BY b.score",
      {Value(3)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].as_int(), 30);
  EXPECT_EQ(r->rows[1][0].as_int(), 300);
}

TEST_F(SqlExecutorEdgeTest, InequalityPredicates) {
  auto r = Exec("SELECT COUNT(*) FROM a WHERE id > 15");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].as_int(), 5);
  auto le = Exec("SELECT COUNT(*) FROM a WHERE id <= 5");
  EXPECT_EQ(le->rows[0][0].as_int(), 5);
  auto ne = Exec("SELECT COUNT(*) FROM a WHERE id <> 1");
  EXPECT_EQ(ne->rows[0][0].as_int(), 19);
}

TEST_F(SqlExecutorEdgeTest, StringPredicateAndMultipleConjuncts) {
  auto r = Exec(
      "SELECT id FROM a WHERE tag = 'odd' AND id < 6 ORDER BY id DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);  // 1, 3, 5
  EXPECT_EQ(r->rows[0][0].as_int(), 5);
}

TEST_F(SqlExecutorEdgeTest, SelectWithoutFromEvaluatesConstants) {
  auto r = Exec("SELECT 42 AS answer");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns[0], "answer");
  EXPECT_EQ(r->rows[0][0].as_int(), 42);
}

TEST_F(SqlExecutorEdgeTest, AggregateOutsideSelectItemsRejected) {
  for (const char* sql : {"SELECT id FROM a WHERE SUM(id) > 3",
                          "SELECT id FROM a ORDER BY MAX(id)"}) {
    EXPECT_TRUE(Exec(sql).status().IsInvalidArgument()) << sql;
  }
}

TEST_F(SqlExecutorEdgeTest, ParamIndexOutOfRange) {
  EXPECT_FALSE(Exec("SELECT id FROM a WHERE id = ?", {}).ok());
}

TEST_F(SqlExecutorEdgeTest, LimitZeroAndLimitLargerThanResult) {
  auto zero = Exec("SELECT id FROM a LIMIT 0");
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->rows.empty());
  auto big = Exec("SELECT id FROM a LIMIT 1000");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->rows.size(), 20u);
}

TEST_F(SqlExecutorEdgeTest, OrderByMultipleKeys) {
  auto r = Exec("SELECT tag, id FROM a ORDER BY tag, id DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // "even" sorts before "odd"; within even, ids descend from 20.
  EXPECT_EQ(r->rows[0][0].as_string(), "even");
  EXPECT_EQ(r->rows[0][1].as_int(), 20);
  EXPECT_EQ(r->rows[1][1].as_int(), 18);
}

TEST_F(SqlExecutorEdgeTest, DistinctCollapsesDuplicates) {
  auto r = Exec("SELECT DISTINCT b.aid FROM b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 20u);  // two rows per aid collapse to one
}

TEST_F(SqlExecutorEdgeTest, GroupByWithAggregates) {
  auto r = Exec(
      "SELECT tag, COUNT(*) AS n, SUM(id) AS total, MIN(id) AS lo, "
      "MAX(id) AS hi FROM a GROUP BY tag ORDER BY tag");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  // even: 2,4,...,20 -> n=10 sum=110 lo=2 hi=20
  EXPECT_EQ(r->rows[0][0].as_string(), "even");
  EXPECT_EQ(r->rows[0][1].as_int(), 10);
  EXPECT_EQ(r->rows[0][2].as_int(), 110);
  EXPECT_EQ(r->rows[0][3].as_int(), 2);
  EXPECT_EQ(r->rows[0][4].as_int(), 20);
  // odd: 1,3,...,19 -> sum=100
  EXPECT_EQ(r->rows[1][2].as_int(), 100);
}

TEST_F(SqlExecutorEdgeTest, GlobalAggregatesAndAvg) {
  auto r = Exec("SELECT SUM(score) AS s, AVG(score) AS a FROM b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // scores: i*10 and i*100 for i in 1..20 -> sum = 110*(1+..+20) = 23100
  EXPECT_EQ(r->rows[0][0].as_int(), 23100);
  EXPECT_NEAR(r->rows[0][1].as_double(), 23100.0 / 40.0, 1e-9);
}

TEST_F(SqlExecutorEdgeTest, GlobalAggregateOverEmptyInputGivesOneRow) {
  auto r = Exec("SELECT COUNT(*) AS n, MIN(id) AS lo FROM a WHERE id > 99");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 0);
  EXPECT_TRUE(r->rows[0][1].is_null());
}

TEST_F(SqlExecutorEdgeTest, GroupByOverEmptyInputGivesNoRows) {
  auto r = Exec("SELECT tag, COUNT(*) FROM a WHERE id > 99 GROUP BY tag");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(SqlExecutorEdgeTest, GroupByJoinOrderByCountDesc) {
  // Posts-per-creator shape: which a-row has the most b-rows?
  auto r = Exec(
      "SELECT a.id, COUNT(*) AS n FROM a JOIN b ON a.id = b.aid "
      "GROUP BY a.id ORDER BY n DESC, id LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][1].as_int(), 2);  // every aid has exactly 2 b-rows
  EXPECT_EQ(r->rows[0][0].as_int(), 1);  // ties broken by id
}

TEST_F(SqlExecutorEdgeTest, AggregateOrderByUnknownAliasRejected) {
  EXPECT_FALSE(
      Exec("SELECT tag, COUNT(*) AS n FROM a GROUP BY tag ORDER BY zz")
          .ok());
}

TEST_F(SqlExecutorEdgeTest, SelfJoinWithAliases) {
  auto r = Exec(
      "SELECT a2.id FROM a a1 JOIN a a2 ON a1.id = a2.id "
      "WHERE a1.id = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 7);
}

TEST_F(SqlExecutorEdgeTest, JoinOnMissingAliasRejected) {
  EXPECT_FALSE(
      Exec("SELECT b.score FROM a JOIN b ON zz.id = b.aid").ok());
}

TEST_F(SqlExecutorEdgeTest, UpdateStatementWithIndexMaintenance) {
  ASSERT_TRUE(Exec("UPDATE a SET tag = 'special' WHERE id = 7").ok());
  auto r = Exec("SELECT tag FROM a WHERE id = 7");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].as_string(), "special");

  // Updating the indexed id column relocates the index entry.
  auto moved = Exec("UPDATE a SET id = 777 WHERE id = 7");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(moved->affected, 1u);
  EXPECT_TRUE(Exec("SELECT tag FROM a WHERE id = 7")->rows.empty());
  auto found = Exec("SELECT tag FROM a WHERE id = 777");
  ASSERT_EQ(found->rows.size(), 1u);
  EXPECT_EQ(found->rows[0][0].as_string(), "special");
}

TEST_F(SqlExecutorEdgeTest, UpdateToDuplicateUniqueKeyRejected) {
  auto r = Exec("UPDATE a SET id = 2 WHERE id = 1");
  EXPECT_TRUE(r.status().IsAlreadyExists());
  // Old row intact and still indexed.
  EXPECT_EQ(Exec("SELECT id FROM a WHERE id = 1")->rows.size(), 1u);
  EXPECT_EQ(Exec("SELECT id FROM a WHERE id = 2")->rows.size(), 1u);
}

TEST_F(SqlExecutorEdgeTest, DeleteStatementRemovesRowsAndIndexEntries) {
  auto del = Exec("DELETE FROM a WHERE id = 3");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->affected, 1u);
  EXPECT_TRUE(Exec("SELECT id FROM a WHERE id = 3")->rows.empty());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM a")->rows[0][0].as_int(), 19);

  // Predicate deletes over a scan.
  auto bulk = Exec("DELETE FROM a WHERE tag = 'even' AND id > 10");
  ASSERT_TRUE(bulk.ok());
  EXPECT_EQ(bulk->affected, 5u);  // 12,14,16,18,20
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM a")->rows[0][0].as_int(), 14);
}

TEST_F(SqlExecutorEdgeTest, DeleteEdgeRowUpdatesColumnarAccelerator) {
  Database db(StorageMode::kColumnar);
  ASSERT_TRUE(db.CreateTable(TableSchema("knows",
                                         {{"p1", Value::Type::kInt},
                                          {"p2", Value::Type::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateIndex("knows", "p1", false).ok());
  ASSERT_TRUE(db.CreateIndex("knows", "p2", false).ok());
  ASSERT_TRUE(db.RegisterEdgeTable("knows", "p1", "p2").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO knows (p1, p2) VALUES (1, 2)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO knows (p1, p2) VALUES (2, 3)").ok());

  auto before =
      db.Execute("SELECT SHORTEST_PATH(1, 3) USING knows(p1, p2)");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows[0][0].as_int(), 2);

  ASSERT_TRUE(db.Execute("DELETE FROM knows WHERE p1 = 2 AND p2 = 3").ok());
  auto after =
      db.Execute("SELECT SHORTEST_PATH(1, 3) USING knows(p1, p2)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].as_int(), -1);
}

TEST_F(SqlExecutorEdgeTest, EmptyDrivingSetShortCircuits) {
  auto r = Exec(
      "SELECT b.score FROM a JOIN b ON a.id = b.aid WHERE a.id = 999");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

}  // namespace
}  // namespace graphbench
