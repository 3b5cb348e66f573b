#include "engines/native/cypher_engine.h"

#include <gtest/gtest.h>

namespace graphbench {
namespace {

class CypherEngineTest : public ::testing::Test {
 protected:
  CypherEngineTest() : engine_(&graph_) {
    NativeGraphOptions opts;
    opts.checkpoint_interval_writes = 0;
  }

  void SetUp() override {
    ASSERT_TRUE(graph_.CreateUniqueIndex("Person", "id").ok());
    const char* names[] = {"Ada", "Bob", "Cy", "Dee", "Eve"};
    for (int i = 1; i <= 5; ++i) {
      auto r = engine_.Execute(
          "CREATE (p:Person {id: $id, firstName: $fn})",
          {{"id", Value(i)}, {"fn", Value(names[i - 1])}});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->affected, 1u);
    }
    // knows chain 1-2-3-4-5 plus shortcut 1-3 (directed storage,
    // undirected traversal via -[:KNOWS]-).
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}}) {
      auto r = engine_.Execute(
          "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
          "CREATE (a)-[:KNOWS {creationDate: 20170707}]->(b)",
          {{"a", Value(a)}, {"b", Value(b)}});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->affected, 1u);
    }
  }

  NativeGraph graph_;
  CypherEngine engine_;
};

TEST_F(CypherEngineTest, PointLookup) {
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id}) RETURN p.firstName", {{"id", Value(3)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_string(), "Cy");
  EXPECT_EQ(r->columns[0], "p.firstName");
}

TEST_F(CypherEngineTest, OneHopUndirected) {
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f) "
      "RETURN f.id, f.firstName ORDER BY f.id",
      {{"id", Value(3)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);  // 1, 2, 4
  EXPECT_EQ(r->rows[0][0].as_int(), 1);
  EXPECT_EQ(r->rows[1][0].as_int(), 2);
  EXPECT_EQ(r->rows[2][0].as_int(), 4);
}

TEST_F(CypherEngineTest, OneHopDirected) {
  auto out = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]->(f) RETURN f.id ORDER BY f.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), 2u);  // ->2, ->3

  auto in = engine_.Execute(
      "MATCH (p:Person {id: $id})<-[:KNOWS]-(f) RETURN f.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(in->rows.empty());
}

TEST_F(CypherEngineTest, TwoHopDistinctExcludingSelf) {
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f)-[:KNOWS]-(ff) "
      "WHERE ff.id <> $id RETURN DISTINCT ff.id ORDER BY ff.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // neighbours of 1: {2,3}; their neighbours: 2->{1,3}, 3->{1,2,4}; minus 1
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].as_int(), 2);
  EXPECT_EQ(r->rows[1][0].as_int(), 3);
  EXPECT_EQ(r->rows[2][0].as_int(), 4);
}

TEST_F(CypherEngineTest, ShortestPathLength) {
  auto r = engine_.Execute(
      "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
      "RETURN length(shortestPath((a)-[:KNOWS*]-(b))) AS len",
      {{"a", Value(1)}, {"b", Value(5)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 3);
  EXPECT_EQ(r->columns[0], "len");
}

TEST_F(CypherEngineTest, OverlongNumberIsAnError) {
  for (const char* text :
       {"MATCH (p:Person {id: 99999999999999999999999}) RETURN p.firstName",
        "MATCH (a:Person {id: 1})-[:knows*1..99999999999999999999]-(b) "
        "RETURN b.id"}) {
    EXPECT_TRUE(engine_.Execute(text, {}).status().IsInvalidArgument())
        << text;
  }
}

TEST_F(CypherEngineTest, CountStar) {
  auto r = engine_.Execute("MATCH (p:Person) RETURN count(*)", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 5);
}

TEST_F(CypherEngineTest, ImplicitGroupingWithCount) {
  // Friend count per person over the whole graph, most popular first.
  auto r = engine_.Execute(
      "MATCH (p:Person)-[:KNOWS]-(f) "
      "RETURN p.id, count(*) AS n ORDER BY count(*) DESC, p.id LIMIT 2",
      {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  // Degrees: 1:{2,3}, 2:{1,3}, 3:{2,4,1}, 4:{3,5}, 5:{4} -> 3 has 3.
  EXPECT_EQ(r->rows[0][0].as_int(), 3);
  EXPECT_EQ(r->rows[0][1].as_int(), 3);
  EXPECT_EQ(r->rows[1][1].as_int(), 2);
}

TEST_F(CypherEngineTest, BareCountOverEmptyMatchIsZero) {
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f) RETURN count(*)",
      {{"id", Value(999)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 0);
}

TEST_F(CypherEngineTest, MissingVertexGivesEmpty) {
  auto r = engine_.Execute("MATCH (p:Person {id: $id}) RETURN p.firstName",
                           {{"id", Value(99)}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(CypherEngineTest, LimitAndDesc) {
  auto r = engine_.Execute(
      "MATCH (p:Person) RETURN p.id ORDER BY p.id DESC LIMIT 2", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].as_int(), 5);
  EXPECT_EQ(r->rows[1][0].as_int(), 4);
}

TEST_F(CypherEngineTest, CreateRejectsUndirectedRelationship) {
  auto r = engine_.Execute(
      "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
      "CREATE (a)-[:KNOWS]-(b)",
      {{"a", Value(1)}, {"b", Value(2)}});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(CypherEngineTest, CreateDuplicateIdRejectedByIndex) {
  auto r = engine_.Execute("CREATE (p:Person {id: $id})", {{"id", Value(1)}});
  EXPECT_TRUE(r.status().IsAlreadyExists());
}

TEST_F(CypherEngineTest, MissingParameterIsError) {
  auto r = engine_.Execute("MATCH (p:Person {id: $nope}) RETURN p.id", {});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(CypherEngineTest, VariableLengthExactHops) {
  // Chain 1-2-3-4-5 plus shortcut 1-3: vertices exactly 2 hops from 1
  // (not reachable in 1) are {4} via 3, and 2 via 3... 2 is at distance 1,
  // so distinct-vertex *2..2 from 1 = {4} (3 and 2 are closer).
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS*2..2]-(ff) "
      "RETURN ff.id ORDER BY ff.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 4);
}

TEST_F(CypherEngineTest, VariableLengthRange) {
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS*1..3]-(x) "
      "RETURN DISTINCT x.id ORDER BY x.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Everything within 3 hops of 1: 2,3 (1 hop), 4 (2), 5 (3).
  ASSERT_EQ(r->rows.size(), 4u);
  EXPECT_EQ(r->rows[3][0].as_int(), 5);
}

TEST_F(CypherEngineTest, VariableLengthBareStarCapped) {
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS*]-(x) RETURN count(*)",
      {{"id", Value(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 4);  // whole component minus self
}

TEST_F(CypherEngineTest, VariableLengthRejectsBadBoundsAndCreate) {
  EXPECT_FALSE(engine_.Execute(
                       "MATCH (a:Person {id: $a})-[:KNOWS*3..2]-(b) "
                       "RETURN b.id",
                       {{"a", Value(1)}})
                   .ok());
  EXPECT_FALSE(engine_.Execute(
                       "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
                       "CREATE (a)-[:KNOWS*2]->(b)",
                       {{"a", Value(1)}, {"b", Value(2)}})
                   .ok());
}

TEST_F(CypherEngineTest, ParserRejectsMalformed) {
  EXPECT_FALSE(engine_.Execute("RETURN 1", {}).ok());
  EXPECT_FALSE(engine_.Execute("MATCH (p RETURN p.id", {}).ok());
  EXPECT_FALSE(
      engine_.Execute("MATCH (a)-[K]-(b) RETURN a.id", {}).ok());
  EXPECT_FALSE(engine_.Execute("MATCH (p:Person) RETURN p.id LIMIT x",
                               {}).ok());
}

TEST_F(CypherEngineTest, WhereComparesAcrossVars) {
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f) WHERE f.id > p.id "
      "RETURN f.id ORDER BY f.id",
      {{"id", Value(3)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 4);
}

}  // namespace
}  // namespace graphbench
