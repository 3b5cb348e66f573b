// Edge cases of the SQL planner/executor beyond the SNB query shapes.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "allocation_counter.h"
#include "engines/relational/database.h"
#include "numbered.h"

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

// --- Binding ----------------------------------------------------------------
// An unknown alias or column fails when the statement binds, before any
// row is read: whether or not a row would reach it, on both storage modes.

TEST(SqlBindTest, UnknownNameIsInvalidArgumentWhateverTheData) {
  for (StorageMode mode : {StorageMode::kRow, StorageMode::kColumnar}) {
    Database db(mode);
    ASSERT_TRUE(
        db.CreateTable(TableSchema("a", {{"id", Value::Type::kInt}})).ok());
    ASSERT_TRUE(db.CreateTable(TableSchema("b", {{"aid", Value::Type::kInt},
                                                 {"score", Value::Type::kInt}}))
                    .ok());
    ASSERT_TRUE(db.CreateIndex("a", "id", true).ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(db.InsertRow("a", {Value(i)}).ok());
      ASSERT_TRUE(db.InsertRow("b", {Value(i), Value(i * 10)}).ok());
    }
    for (const char* sql : {
             // No row has id 99, so no row ever reads `nope`.
             "SELECT nope FROM a WHERE id = 99",
             "SELECT id FROM a WHERE nope = 1",
             "SELECT a.id FROM a JOIN b ON b.aid = a.id WHERE b.nope = 3",
             "SELECT zz.id FROM a WHERE id = 99",
             "SELECT id FROM a WHERE id = 99 ORDER BY nope",
             "SELECT id, COUNT(*) AS n FROM a WHERE id = 99 GROUP BY nope",
             "SELECT a.id FROM a JOIN b ON b.nope = a.id WHERE a.id = 99",
         }) {
      Status s = db.Execute(sql).status();
      EXPECT_TRUE(s.IsInvalidArgument())
          << int(mode) << " " << sql << ": " << s.ToString();
    }
  }
}

// --- Allocation gate -----------------------------------------------------
// Heap allocations of one cached-plan execution of the TopPosters and
// TwoHop statement shapes, on both storage modes, on fixtures scaled by
// 4x. The executor works over flat solutions and buffers that grow by
// doubling, so scaling the input may add only a few allocations beyond
// one per output row.

struct Counted {
  long allocations = 0;
  size_t rows = 0;
};

// Runs `sql` once to fill the plan cache, then counts a second run.
Counted CountExecution(Database* db, const char* sql,
                       const std::vector<Value>& params) {
  auto warm = db->Execute(sql, params);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  Counted c;
  c.allocations = AllocationsOf([&] {
    auto r = db->Execute(sql, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) c.rows = r->rows.size();
  });
  return c;
}

constexpr char kTopPostersShape[] =
    "SELECT p.creatorId, COUNT(*) AS n FROM post p "
    "GROUP BY p.creatorId ORDER BY n DESC, creatorId LIMIT ?";

constexpr char kTwoHopShape[] =
    "SELECT DISTINCT p.id FROM knows k1 "
    "JOIN knows k2 ON k1.person2Id = k2.person1Id "
    "JOIN person p ON k2.person2Id = p.id "
    "WHERE k1.person1Id = ? AND p.id <> ?";

// `posts` posts spread over `creators` creators (creator i * 7 % creators
// writes post i, so post counts tie in long runs).
Counted TopPostersAllocations(StorageMode mode, int posts, int creators) {
  Database db(mode);
  EXPECT_TRUE(db.CreateTable(TableSchema("post",
                                         {{"id", Value::Type::kInt},
                                          {"content", Value::Type::kString},
                                          {"creatorId", Value::Type::kInt}}))
                  .ok());
  for (int i = 0; i < posts; ++i) {
    EXPECT_TRUE(db.InsertRow("post", {Value(i),
                                      Value("content of post number " +
                                            std::to_string(i)),
                                      Value(1000 + i * 7 % creators)})
                    .ok());
  }
  db.EnablePlanCache();
  return CountExecution(&db, kTopPostersShape, {Value(20)});
}

// Person 0 knows `friends` people, each of whom knows `fof` more (and the
// friend next to it); knows rows run both ways, as the SNB loader stores
// them.
Counted TwoHopAllocations(StorageMode mode, int friends, int fof) {
  Database db(mode);
  EXPECT_TRUE(db.CreateTable(TableSchema("person",
                                         {{"id", Value::Type::kInt},
                                          {"firstName", Value::Type::kString}}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(TableSchema("knows",
                                         {{"person1Id", Value::Type::kInt},
                                          {"person2Id", Value::Type::kInt}}))
                  .ok());
  EXPECT_TRUE(db.CreateIndex("person", "id", true).ok());
  EXPECT_TRUE(db.CreateIndex("knows", "person1Id", false).ok());
  EXPECT_TRUE(db.CreateIndex("knows", "person2Id", false).ok());
  int64_t next_id = 0;
  auto person = [&] {
    int64_t id = next_id++;
    EXPECT_TRUE(
        db.InsertRow("person", {Value(id), Value(Numbered("P", id))})
            .ok());
    return id;
  };
  auto knows = [&](int64_t a, int64_t b) {
    EXPECT_TRUE(db.InsertRow("knows", {Value(a), Value(b)}).ok());
    EXPECT_TRUE(db.InsertRow("knows", {Value(b), Value(a)}).ok());
  };
  int64_t root = person();
  std::vector<int64_t> fs;
  for (int i = 0; i < friends; ++i) {
    fs.push_back(person());
    knows(root, fs.back());
  }
  for (int i = 0; i < friends; ++i) {
    knows(fs[size_t(i)], fs[size_t((i + 1) % friends)]);
    for (int j = 0; j < fof; ++j) knows(fs[size_t(i)], person());
  }
  db.EnablePlanCache();
  return CountExecution(&db, kTwoHopShape, {Value(root), Value(root)});
}

TEST(SqlAllocationTest, TopPostersAllocationsDoNotScaleWithInput) {
  for (StorageMode mode : {StorageMode::kRow, StorageMode::kColumnar}) {
    Counted small = TopPostersAllocations(mode, 150, 60);
    Counted large = TopPostersAllocations(mode, 600, 240);
    std::printf("TopPosters shape, %s: %ld allocations (150 posts, 60 "
                "creators), %ld (600 posts, 240 creators), %zu rows each\n",
                mode == StorageMode::kRow ? "row" : "columnar",
                small.allocations, large.allocations, large.rows);
    ASSERT_EQ(small.rows, 20u);
    ASSERT_EQ(large.rows, 20u);
    EXPECT_LE(large.allocations - small.allocations, kAllocationGrowthBound);
  }
}

TEST(SqlAllocationTest, TwoHopAllocationsScaleOnlyWithOutputRows) {
  for (StorageMode mode : {StorageMode::kRow, StorageMode::kColumnar}) {
    Counted small = TwoHopAllocations(mode, 8, 6);
    Counted large = TwoHopAllocations(mode, 16, 15);
    std::printf("TwoHop shape, %s: %ld allocations for %zu rows "
                "(8 friends), %ld for %zu rows (16 friends)\n",
                mode == StorageMode::kRow ? "row" : "columnar",
                small.allocations, small.rows, large.allocations, large.rows);
    ASSERT_GT(large.rows, small.rows);
    EXPECT_LE((large.allocations - long(large.rows)) -
                  (small.allocations - long(small.rows)),
              kAllocationGrowthBound);
  }
}

}  // namespace
}  // namespace graphbench
