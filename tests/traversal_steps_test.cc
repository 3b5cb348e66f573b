// Step-machine edge cases beyond the benchmark query shapes.

#include <gtest/gtest.h>

#include "engines/native/native_graph.h"
#include "providers/native_provider.h"
#include "tinkerpop/traversal.h"

namespace graphbench {
namespace {

class TraversalStepsTest : public ::testing::Test {
 protected:
  TraversalStepsTest() : provider_(&graph_) {}

  void SetUp() override {
    ASSERT_TRUE(graph_.CreateUniqueIndex("Person", "id").ok());
    for (int i = 1; i <= 5; ++i) {
      auto v = provider_.AddVertex(
          "Person", {{"id", Value(i)}, {"rank", Value(10 - i)}});
      ASSERT_TRUE(v.ok());
      vertices_.push_back(*v);
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(provider_
                      .AddEdge("knows", vertices_[size_t(i)],
                               vertices_[size_t(i) + 1], {})
                      .ok());
    }
  }

  Result<std::vector<Value>> Run(const Traversal& t) {
    return ExecuteTraversal(&provider_, t);
  }

  NativeGraph graph_{NativeGraphOptions{.checkpoint_interval_writes = 0}};
  NativeProvider provider_;
  std::vector<GVertex> vertices_;
};

TEST_F(TraversalStepsTest, CountOnEmptySetIsZero) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(999)).Both("knows").Count();
  auto r = Run(t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].as_int(), 0);
}

TEST_F(TraversalStepsTest, OrderByAscending) {
  Traversal t;
  t.V("Person").OrderBy("rank", /*desc=*/false).Values("id");
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 5u);
  // rank = 10 - id, so ascending rank = descending id.
  EXPECT_EQ((*r)[0].as_int(), 5);
  EXPECT_EQ((*r)[4].as_int(), 1);
}

TEST_F(TraversalStepsTest, LimitAfterOrder) {
  Traversal t;
  t.V("Person").OrderBy("id", true).Limit(2).Values("id");
  auto r = Run(t);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].as_int(), 5);
  EXPECT_EQ((*r)[1].as_int(), 4);
}

TEST_F(TraversalStepsTest, VerticesRenderAsIdProperty) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(2)).Both("knows");
  auto r = Run(t);
  ASSERT_TRUE(r.ok());
  std::vector<int64_t> ids;
  for (const Value& v : *r) ids.push_back(v.as_int());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 3}));
}

TEST_F(TraversalStepsTest, ValuesOnValueFails) {
  Traversal t;
  t.V("Person").Values("id").Values("id");
  EXPECT_FALSE(Run(t).ok());
}

TEST_F(TraversalStepsTest, AdjacencyOnValueFails) {
  Traversal t;
  t.V("Person").Values("id").Both("knows");
  EXPECT_FALSE(Run(t).ok());
}

TEST_F(TraversalStepsTest, AddEdgeToMissingTargetFails) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(1))
      .AddEdgeTo("knows", "Person", "id", Value(999), {});
  auto r = Run(t);
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(TraversalStepsTest, ShortestPathRespectsMaxDepth) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(1))
      .ShortestPath("knows", "id", Value(5), /*max_depth=*/2);
  auto r = Run(t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].as_int(), -1);  // distance 4 > max depth 2

  Traversal deep;
  deep.V().HasIndexed("Person", "id", Value(1))
      .ShortestPath("knows", "id", Value(5), /*max_depth=*/10);
  auto rd = Run(deep);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ((*rd)[0].as_int(), 4);
}

TEST_F(TraversalStepsTest, DedupOnValuesNotJustVertices) {
  Traversal t;
  // Walk to neighbours from both endpoints of the chain middle; ranks of
  // vertices 2 and 4 differ, vertex 3 reachable twice.
  t.V().HasIndexed("Person", "id", Value(3)).Both("knows").Both("knows")
      .Values("id").Dedup();
  auto r = Run(t);
  ASSERT_TRUE(r.ok());
  std::set<int64_t> ids;
  size_t total = 0;
  for (const Value& v : *r) {
    ids.insert(v.as_int());
    ++total;
  }
  EXPECT_EQ(ids.size(), total);  // no duplicates survive
}

TEST_F(TraversalStepsTest, HasIndexedMidTraversalFilters) {
  Traversal t;
  t.V("Person").HasIndexed("Person", "id", Value(3)).Values("rank");
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].as_int(), 7);
}

TEST_F(TraversalStepsTest, ValueMapFlattensInKeyOrder) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(2)).ValueMap({"id", "rank"});
  auto r = Run(t);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].as_int(), 2);
  EXPECT_EQ((*r)[1].as_int(), 8);
}

// repeat(both()).until(has()) on the shared BFS kernel: n is the most hops
// it takes. The chain is 1-2-3-4-5.
TEST_F(TraversalStepsTest, ShortestPathFindsExactlyMaxDepthHops) {
  auto depth = [this](int from, int to, int64_t max_depth) -> int64_t {
    Traversal t;
    t.V().HasIndexed("Person", "id", Value(from))
        .ShortestPath("knows", "id", Value(to), max_depth);
    auto r = Run(t);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->size() == 1 ? (*r)[0].as_int() : -2;
  };
  EXPECT_EQ(depth(1, 5, 4), 4);   // exactly n hops
  EXPECT_EQ(depth(1, 5, 3), -1);  // n + 1 hops
  EXPECT_EQ(depth(5, 2, 3), 3);
  EXPECT_EQ(depth(5, 1, 3), -1);
  EXPECT_EQ(depth(3, 3, 0), 0);   // the start vertex already matches
  EXPECT_EQ(depth(3, 3, 5), 0);
  EXPECT_EQ(depth(3, 4, 0), -1);  // no hops allowed
  EXPECT_EQ(depth(3, 4, -1), -1);
  EXPECT_EQ(depth(1, 6, 10), -1);  // no such vertex
}

// Fails Property or Adjacent on one vertex, forwarding everything else.
class FailingGraph : public GremlinGraph {
 public:
  FailingGraph(GremlinGraph* base, GVertex bad, bool fail_adjacent)
      : base_(base), bad_(bad), fail_adjacent_(fail_adjacent) {}

  Result<GVertex> AddVertex(std::string_view label,
                            const PropertyMap& props) override {
    return base_->AddVertex(label, props);
  }
  Status AddEdge(std::string_view label, GVertex from, GVertex to,
                 const PropertyMap& props) override {
    return base_->AddEdge(label, from, to, props);
  }
  Result<std::vector<GVertex>> VerticesByProperty(
      std::string_view label, std::string_view key,
      const Value& value) override {
    return base_->VerticesByProperty(label, key, value);
  }
  Result<std::vector<GVertex>> AllVertices(std::string_view label) override {
    return base_->AllVertices(label);
  }
  Result<std::vector<GVertex>> Adjacent(GVertex v, std::string_view label,
                                        Direction dir) override {
    if (fail_adjacent_ && v == bad_) return Status::Internal("adjacent");
    return base_->Adjacent(v, label, dir);
  }
  Result<Value> Property(GVertex v, std::string_view key) override {
    if (!fail_adjacent_ && v == bad_) return Status::Internal("property");
    return base_->Property(v, key);
  }
  Result<std::string> Label(GVertex v) override { return base_->Label(v); }
  uint64_t VertexCount() const override { return base_->VertexCount(); }
  uint64_t EdgeCount() const override { return base_->EdgeCount(); }
  uint64_t ApproximateSizeBytes() const override {
    return base_->ApproximateSizeBytes();
  }
  std::string name() const override { return "failing"; }

 private:
  GremlinGraph* base_;
  GVertex bad_;
  bool fail_adjacent_;
};

TEST_F(TraversalStepsTest, ShortestPathReturnsProviderErrors) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(1))
      .ShortestPath("knows", "id", Value(5));
  for (bool fail_adjacent : {false, true}) {
    FailingGraph graph(&provider_, vertices_[2], fail_adjacent);
    auto r = ExecuteTraversal(&graph, t);
    EXPECT_TRUE(r.status().IsInternal())
        << fail_adjacent << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace graphbench
