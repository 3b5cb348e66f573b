#include "engines/native/cypher_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "allocation_counter.h"

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

// --- Binding shapes ------------------------------------------------------
// Each case pins the rows (and their solution order, where no ORDER BY
// fixes it) the executor produces for one way a pattern binds variables.
// Adjacency lists keep insertion order, out-edges before in-edges, and a
// label scan visits vertices in id order.

std::vector<std::vector<int64_t>> IntRows(const QueryResult& r) {
  std::vector<std::vector<int64_t>> out;
  for (const Row& row : r.rows) {
    std::vector<int64_t>& ints = out.emplace_back();
    for (const Value& v : row) ints.push_back(v.as_int());
  }
  return out;
}

using IntTable = std::vector<std::vector<int64_t>>;

TEST_F(CypherEngineTest, RepeatedVariableInOneChainClosesOnItsVertex) {
  // Triangles through 1: the chain must come back to the vertex `a`
  // bound at its anchor.
  auto r = engine_.Execute(
      "MATCH (a:Person {id: $id})-[:KNOWS]-(b)-[:KNOWS]-(c)-[:KNOWS]-(a) "
      "RETURN b.id, c.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntRows(*r), (IntTable{{2, 3}, {3, 2}}));

  // A self-loop pattern: nobody knows themselves.
  auto loop = engine_.Execute("MATCH (a:Person)-[:KNOWS]-(a) RETURN a.id",
                              {});
  ASSERT_TRUE(loop.ok()) << loop.status().ToString();
  EXPECT_TRUE(loop->rows.empty());
}

TEST_F(CypherEngineTest, VariableSharedByTwoChains) {
  // Common friends: the second chain's expansion target is already bound.
  auto common = engine_.Execute(
      "MATCH (a:Person {id: $a})-[:KNOWS]-(f), "
      "(b:Person {id: $b})-[:KNOWS]-(f) RETURN f.id",
      {{"a", Value(1)}, {"b", Value(4)}});
  ASSERT_TRUE(common.ok()) << common.status().ToString();
  EXPECT_EQ(IntRows(*common), (IntTable{{3}}));

  // The second chain's anchor is bound by the first.
  auto anchored = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]->(f), (f)-[:KNOWS]->(g) "
      "RETURN f.id, g.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(anchored.ok()) << anchored.status().ToString();
  EXPECT_EQ(IntRows(*anchored), (IntTable{{2, 3}, {3, 4}}));

  // Two unrelated anchors make a cross product, first chain outermost.
  auto cross = engine_.Execute(
      "MATCH (a:Person {id: $a})-[:KNOWS]->(f), (b:Person) "
      "WHERE b.id > 3 RETURN f.id, b.id",
      {{"a", Value(1)}});
  ASSERT_TRUE(cross.ok()) << cross.status().ToString();
  EXPECT_EQ(IntRows(*cross), (IntTable{{2, 4}, {2, 5}, {3, 4}, {3, 5}}));
}

TEST_F(CypherEngineTest, LabelAndInlinePropsOnAnAnchorAlreadyBound) {
  // Person 1 knows 2 and 3; the second chain's anchor f is bound by the
  // first, so its label and properties filter those bindings.
  const std::pair<const char*, IntTable> cases[] = {
      {"(f:Nope)", {}},
      {"(f {id: 9})", {}},
      {"(f {id: 3})", {{3}}},
      {"(f:Person {id: 2})", {{2}}},
      {"(f:Person)", {{2}, {3}}},
  };
  for (const auto& [anchor, want] : cases) {
    std::string q = std::string("MATCH (p:Person {id: 1})-[:KNOWS]->(f), ") +
                    anchor + " RETURN f.id";
    auto r = engine_.Execute(q, {});
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    EXPECT_EQ(IntRows(*r), want) << q;
  }
}

TEST_F(CypherEngineTest, AnonymousNodes) {
  auto degree = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]-() RETURN count(*)",
      {{"id", Value(3)}});
  ASSERT_TRUE(degree.ok()) << degree.status().ToString();
  EXPECT_EQ(IntRows(*degree), (IntTable{{3}}));

  auto scan = engine_.Execute("MATCH (:Person) RETURN count(*)", {});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(IntRows(*scan), (IntTable{{5}}));

  // An anonymous node has a hidden slot, so a chain expands from it as
  // from a named one.
  auto through = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]-()-[:KNOWS]-(ff) RETURN ff.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(through.ok()) << through.status().ToString();
  auto named = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f)-[:KNOWS]-(ff) RETURN ff.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_EQ(IntRows(*through), IntRows(*named));
  EXPECT_EQ(through->rows.size(), 5u);
}

// --- Binding ----------------------------------------------------------------
// An unknown variable or a missing parameter fails when the query binds,
// before any vertex is read: whether or not a row would reach it.

class CypherBindTest : public CypherEngineTest {};

TEST_F(CypherBindTest, UnknownNameIsInvalidArgumentWhateverTheData) {
  for (const char* cypher : {
           "MATCH (p:Person {id: $id}) RETURN q.id",
           "MATCH (p:Person {id: $id}) WHERE q.x = 1 RETURN p.id",
           "MATCH (p:Person {id: $id}) RETURN p.id ORDER BY q.id",
           "MATCH (p:Person {id: $id}) WHERE p.x = $nope RETURN p.id",
           "MATCH (p:Person {id: $id})-[:KNOWS]-(f {firstName: $nope}) "
           "RETURN f.id",
           "MATCH (p:Person {id: $id}) "
           "RETURN length(shortestPath((p)-[:KNOWS*]-(q))) AS len",
           "MATCH (p:Person {id: $id}) CREATE (p)-[:LIKES]->(z)",
           "MATCH (p:Person {id: $id}) CREATE (p)-[:LIKES {w: $nope}]->(p)",
       }) {
    // Person 1 exists and has friends; no person has id 99.
    for (int id : {1, 99}) {
      Status s = engine_.Execute(cypher, {{"id", Value(id)}}).status();
      EXPECT_TRUE(s.IsInvalidArgument())
          << cypher << " with $id " << id << ": " << s.ToString();
    }
  }
  // Nothing was created on the way.
  auto likes =
      engine_.Execute("MATCH (a:Person)-[:LIKES]->(b) RETURN count(*)", {});
  ASSERT_TRUE(likes.ok()) << likes.status().ToString();
  EXPECT_EQ(IntRows(*likes), (IntTable{{0}}));
}

TEST_F(CypherEngineTest, LabelAndInlinePropsOnExpansionTarget) {
  ASSERT_TRUE(engine_.Execute("CREATE (x:Post {id: $id})", {{"id", Value(100)}})
                  .ok());
  ASSERT_TRUE(engine_
                  .Execute("MATCH (a:Person {id: $a}), (x:Post {id: $x}) "
                           "CREATE (a)-[:KNOWS]->(x)",
                           {{"a", Value(1)}, {"x", Value(100)}})
                  .ok());
  auto expand = [&](const char* target) {
    auto r = engine_.Execute(
        std::string("MATCH (p:Person {id: $id})-[:KNOWS]->") + target +
            " RETURN f.id",
        {{"id", Value(1)}, {"fn", Value("Cy")}});
    EXPECT_TRUE(r.ok()) << target << ": " << r.status().ToString();
    return r.ok() ? IntRows(*r) : IntTable{};
  };
  EXPECT_EQ(expand("(f)"), (IntTable{{2}, {3}, {100}}));
  EXPECT_EQ(expand("(f:Person)"), (IntTable{{2}, {3}}));
  EXPECT_EQ(expand("(f:Post)"), (IntTable{{100}}));
  EXPECT_EQ(expand("(f:Unseen)"), IntTable{});
  EXPECT_EQ(expand("(f {firstName: $fn})"), (IntTable{{3}}));
  EXPECT_EQ(expand("(f:Person {firstName: $fn})"), (IntTable{{3}}));
  EXPECT_EQ(expand("(f:Post {firstName: $fn})"), IntTable{});

  // An anchor's lookup uses its first property; the rest are checked.
  auto anchor = engine_.Execute(
      "MATCH (p:Person {id: $id, firstName: $fn}) RETURN p.id",
      {{"id", Value(3)}, {"fn", Value("Bob")}});
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();
  EXPECT_TRUE(anchor->rows.empty());
}

TEST_F(CypherEngineTest, VarLengthHopThenSingleHop) {
  // Exactly two hops from 1 is {4}; 4's neighbours are 5 (out) and 3 (in).
  auto r = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS*2..2]-(x)-[:KNOWS]-(y) "
      "RETURN x.id, y.id",
      {{"id", Value(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntRows(*r), (IntTable{{4, 5}, {4, 3}}));
}

TEST_F(CypherEngineTest, WhereOverTwoVariablesWithAnd) {
  auto r = engine_.Execute(
      "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.id < $hi AND b.id > $lo "
      "RETURN a.id, b.id",
      {{"hi", Value(3)}, {"lo", Value(2)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntRows(*r), (IntTable{{1, 3}, {2, 3}}));
}

TEST_F(CypherEngineTest, MatchCreateBetweenBoundEndpoints) {
  auto one = engine_.Execute(
      "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
      "CREATE (a)-[:LIKES {weight: 1}]->(b)",
      {{"a", Value(2)}, {"b", Value(5)}});
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->affected, 1u);

  // One relationship per matched row, endpoints taken from each row.
  auto per_row = engine_.Execute(
      "MATCH (a:Person {id: $a})-[:KNOWS]->(f) CREATE (f)-[:LIKES]->(a)",
      {{"a", Value(1)}});
  ASSERT_TRUE(per_row.ok()) << per_row.status().ToString();
  EXPECT_EQ(per_row->affected, 2u);

  // A created node can be an endpoint beside a matched one.
  auto with_node = engine_.Execute(
      "MATCH (a:Person {id: $a}) CREATE (t:Tag {id: $t}), (a)-[:LIKES]->(t)",
      {{"a", Value(4)}, {"t", Value(7)}});
  ASSERT_TRUE(with_node.ok()) << with_node.status().ToString();
  EXPECT_EQ(with_node->affected, 2u);

  auto likes = engine_.Execute(
      "MATCH (a:Person)-[:LIKES]->(b) RETURN a.id, b.id", {});
  ASSERT_TRUE(likes.ok()) << likes.status().ToString();
  EXPECT_EQ(IntRows(*likes), (IntTable{{2, 5}, {2, 1}, {3, 1}, {4, 7}}));

  EXPECT_TRUE(engine_
                  .Execute("MATCH (a:Person {id: $a}) CREATE (a)-[:LIKES]->(z)",
                           {{"a", Value(1)}})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(CypherEngineTest, ChainThatEmptiesMidway) {
  // 5 has no outgoing KNOWS: the chain empties at its first hop.
  auto rows = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]->(f)-[:KNOWS]-(g) RETURN g.id",
      {{"id", Value(5)}});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows->rows.empty());

  auto count = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]->(f)-[:KNOWS]-(g) RETURN count(*)",
      {{"id", Value(5)}});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(IntRows(*count), (IntTable{{0}}));

  auto later_chain = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]->(f), (q:Person) RETURN q.id",
      {{"id", Value(5)}});
  ASSERT_TRUE(later_chain.ok()) << later_chain.status().ToString();
  EXPECT_TRUE(later_chain->rows.empty());

  auto created = engine_.Execute(
      "MATCH (p:Person {id: $id})-[:KNOWS]->(f) CREATE (f)-[:LIKES]->(p)",
      {{"id", Value(5)}});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->affected, 0u);
}

// --- Allocation gate -----------------------------------------------------
// Heap allocations of one cached-plan execution, on fixture graphs whose
// size is scaled by 4x. The executor works over flat bindings and buffers
// that grow by doubling, so scaling the input may add only a few
// allocations (vector doublings) beyond one per output row; an executor
// that allocates per binding or per group adds hundreds.

struct Counted {
  long allocations = 0;
  size_t rows = 0;
};

// Runs `query` once to fill the plan cache, then counts a second run.
Counted CountExecution(CypherEngine* engine, const char* query,
                       const CypherEngine::Params& params) {
  auto warm = engine->Execute(query, params);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  Counted c;
  c.allocations = AllocationsOf([&] {
    auto r = engine->Execute(query, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) c.rows = r->rows.size();
  });
  return c;
}

constexpr char kTopPostersShape[] =
    "MATCH (post:Post)-[:postHasCreator]->(p) "
    "RETURN p.id, count(*) AS n "
    "ORDER BY count(*) DESC, p.id LIMIT $limit";

constexpr char kShortestPathShape[] =
    "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
    "RETURN length(shortestPath((a)-[:knows*]-(b))) AS len";

constexpr char kTwoHopShape[] =
    "MATCH (p:Person {id: $id})-[:knows]-(f)-[:knows]-(ff) "
    "WHERE ff.id <> $id RETURN DISTINCT ff.id";

// `posts` posts spread over `creators` creators (creator i % creators
// writes post i, so post counts tie in long runs).
Counted TopPostersAllocations(int posts, int creators) {
  NativeGraph graph;
  std::vector<VertexId> people;
  for (int i = 0; i < creators; ++i) {
    people.push_back(*graph.AddVertex("Person", {{"id", Value(1000 + i)}}));
  }
  for (int i = 0; i < posts; ++i) {
    VertexId post = *graph.AddVertex("Post", {{"id", Value(i)}});
    EXPECT_TRUE(graph
                    .AddEdge("postHasCreator", post,
                             people[size_t(i * 7 % creators)], {})
                    .ok());
  }
  CypherEngine engine(&graph);
  engine.EnablePlanCache();
  return CountExecution(&engine, kTopPostersShape, {{"limit", Value(20)}});
}

// Person 0 knows `friends` people, each of whom knows `fof` more (and the
// friend next to it), so TwoHop binds friends * (fof + 3) solutions.
Counted TwoHopAllocations(int friends, int fof) {
  NativeGraph graph;
  EXPECT_TRUE(graph.CreateUniqueIndex("Person", "id").ok());
  int64_t next_id = 0;
  auto person = [&] {
    return *graph.AddVertex("Person", {{"id", Value(next_id++)}});
  };
  VertexId root = person();
  std::vector<VertexId> fs;
  for (int i = 0; i < friends; ++i) {
    fs.push_back(person());
    EXPECT_TRUE(graph.AddEdge("knows", root, fs.back(), {}).ok());
  }
  for (int i = 0; i < friends; ++i) {
    EXPECT_TRUE(
        graph.AddEdge("knows", fs[size_t(i)], fs[size_t((i + 1) % friends)], {})
            .ok());
    for (int j = 0; j < fof; ++j) {
      EXPECT_TRUE(graph.AddEdge("knows", fs[size_t(i)], person(), {}).ok());
    }
  }
  CypherEngine engine(&graph);
  engine.EnablePlanCache();
  return CountExecution(&engine, kTwoHopShape, {{"id", Value(0)}});
}

// A ring of `n` persons; the path from the first to the one halfway round
// is n / 2 hops long, and the search visits nearly every person on the
// way.
Counted ShortestPathAllocations(int n) {
  NativeGraph graph;
  EXPECT_TRUE(graph.CreateUniqueIndex("Person", "id").ok());
  std::vector<VertexId> people;
  for (int i = 0; i < n; ++i) {
    people.push_back(*graph.AddVertex("Person", {{"id", Value(i)}}));
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(graph
                    .AddEdge("knows", people[size_t(i)],
                             people[size_t((i + 1) % n)], {})
                    .ok());
  }
  CypherEngine engine(&graph);
  engine.EnablePlanCache();
  const CypherEngine::Params params = {{"a", Value(0)}, {"b", Value(n / 2)}};
  auto len = engine.Execute(kShortestPathShape, params);
  EXPECT_TRUE(len.ok() && len->rows[0][0] == Value(n / 2));
  return CountExecution(&engine, kShortestPathShape, params);
}

TEST(CypherAllocationTest, ShortestPathAllocationsDoNotScaleWithInput) {
  Counted small = ShortestPathAllocations(100);
  Counted large = ShortestPathAllocations(400);
  std::printf("ShortestPath shape: %ld allocations (100-person ring), %ld "
              "(400-person ring)\n",
              small.allocations, large.allocations);
  ASSERT_EQ(large.rows, 1u);
  EXPECT_LE(large.allocations - small.allocations, kAllocationGrowthBound);
}

TEST(CypherAllocationTest, TopPostersAllocationsDoNotScaleWithInput) {
  Counted small = TopPostersAllocations(150, 60);
  Counted large = TopPostersAllocations(600, 240);
  std::printf("TopPosters shape: %ld allocations (150 posts, 60 creators), "
              "%ld (600 posts, 240 creators), %zu rows each\n",
              small.allocations, large.allocations, large.rows);
  ASSERT_EQ(small.rows, 20u);
  ASSERT_EQ(large.rows, 20u);
  EXPECT_LE(large.allocations - small.allocations, kAllocationGrowthBound);
}

TEST(CypherAllocationTest, TwoHopAllocationsScaleOnlyWithOutputRows) {
  Counted small = TwoHopAllocations(8, 6);
  Counted large = TwoHopAllocations(16, 15);
  std::printf("TwoHop shape: %ld allocations for %zu rows (8 friends), "
              "%ld for %zu rows (16 friends)\n",
              small.allocations, small.rows, large.allocations, large.rows);
  ASSERT_GT(large.rows, small.rows);
  EXPECT_LE((large.allocations - long(large.rows)) -
                (small.allocations - long(small.rows)),
            kAllocationGrowthBound);
}

}  // namespace
}  // namespace graphbench
