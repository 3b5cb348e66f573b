// Oracle for the storage-independent query operators shared by the SQL,
// Cypher and SPARQL engines (engines/query_ops.h) and for the BFS kernels
// (graph/shortest_path.h), checked against plain reference code.

#include "engines/query_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "graph/shortest_path.h"
#include "util/random.h"

namespace graphbench {
namespace {

using query_ops::Agg;
using query_ops::AggregateSpec;
using query_ops::ProjectSpec;

// Solutions as plain rows: the callbacks copy a row's columns out.
query_ops::RowFn Columns(const std::vector<Row>& rows,
                         std::vector<size_t> cols) {
  return [&rows, cols](size_t i, Row* out) {
    for (size_t c : cols) out->push_back(rows[i][c]);
    return Status::OK();
  };
}

query_ops::ValueFn Column(const std::vector<Row>& rows, size_t col) {
  return [&rows, col](size_t i, size_t, Value* out) {
    *out = rows[i][col];
    return Status::OK();
  };
}

std::vector<int64_t> Ints(const std::vector<Row>& rows, size_t col = 0) {
  std::vector<int64_t> out;
  for (const Row& r : rows) out.push_back(r[col].as_int());
  return out;
}

TEST(QueryOpsTest, ProjectSortIsStableUnderMultiKeyAscDesc) {
  // (id, a, b): sort on a ASC, b DESC; ids 1/4/6 and 2/5 tie on both.
  std::vector<Row> rows = {
      {Value(1), Value(2), Value("x")}, {Value(2), Value(1), Value("y")},
      {Value(3), Value(1), Value("z")}, {Value(4), Value(2), Value("x")},
      {Value(5), Value(1), Value("y")}, {Value(6), Value(2), Value("x")},
      {Value(7), Value(2), Value("w")}};
  ProjectSpec spec{false, 1, {false, true}, -1};
  auto r = query_ops::Project(rows.size(), spec, Columns(rows, {0}),
                              Columns(rows, {1, 2}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Ints(*r), (std::vector<int64_t>{3, 2, 5, 1, 4, 6, 7}));
  for (const Row& row : *r) EXPECT_EQ(row.size(), 1u);  // keys dropped
}

TEST(QueryOpsTest, ProjectSortKeepsTiesInSolutionOrderAtScale) {
  // Many solutions over few key values, so ties are long runs: the sorted
  // output is ordered by (a ASC, b DESC) and, within a tie, by solution.
  Rng rng(16);
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value(i), Value(rng.UniformRange(0, 3)),
                    Value(rng.UniformRange(0, 2))});
  }
  ProjectSpec spec{false, 3, {false, true}, -1};
  auto r = query_ops::Project(rows.size(), spec, Columns(rows, {0, 1, 2}),
                              Columns(rows, {1, 2}));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), rows.size());
  for (size_t i = 1; i < r->size(); ++i) {
    const Row& p = (*r)[i - 1];
    const Row& c = (*r)[i];
    auto key = [](const Row& row) {
      return std::pair{row[1].as_int(), -row[2].as_int()};
    };
    ASSERT_LE(key(p), key(c)) << "row " << i;
    if (key(p) == key(c)) {
      ASSERT_LT(p[0].as_int(), c[0].as_int());
    }
  }
}

TEST(QueryOpsTest, AggregateSortIsStableOverOutputColumns) {
  // Groups by column 0 in first-seen order 30, 10, 20, 40; counts 2, 1,
  // 2, 1. ORDER BY count DESC keeps tied groups in first-seen order.
  std::vector<Row> rows = {{Value(30)}, {Value(10)}, {Value(20)},
                           {Value(30)}, {Value(40)}, {Value(20)}};
  AggregateSpec spec;
  spec.items = {{Agg::kKey, 0}, {Agg::kCountStar}};
  spec.grouped = true;
  auto unsorted = query_ops::Aggregate(rows.size(), spec,
                                       Columns(rows, {0}), nullptr);
  ASSERT_TRUE(unsorted.ok());
  EXPECT_EQ(Ints(*unsorted), (std::vector<int64_t>{30, 10, 20, 40}));

  spec.order = {{1, true}};
  auto sorted = query_ops::Aggregate(rows.size(), spec, Columns(rows, {0}),
                                     nullptr);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(Ints(*sorted), (std::vector<int64_t>{30, 20, 10, 40}));
  EXPECT_EQ(Ints(*sorted, 1), (std::vector<int64_t>{2, 2, 1, 1}));

  spec.order = {{1, true}, {0, false}};
  spec.limit = 3;
  auto limited = query_ops::Aggregate(rows.size(), spec,
                                      Columns(rows, {0}), nullptr);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(Ints(*limited), (std::vector<int64_t>{20, 30, 10}));
}

// --- ORDER BY + LIMIT oracle ---------------------------------------------
// Random solutions (id, a, b, c) whose key columns take few values (c mixes
// strings and NULLs), so ties come in long runs; random multi-key orders
// mixing ASC and DESC; limits around the row count. Project, with and
// without DISTINCT, and Aggregate must each equal a reference that sorts
// with std::stable_sort and then truncates, row for row.

struct Order {
  std::vector<query_ops::SortKey> keys;
  std::vector<int64_t> limits;
};

Order RandomOrder(Rng& rng, size_t columns, size_t n) {
  Order o;
  const size_t count = size_t(rng.UniformRange(1, 3));
  for (size_t i = 0; i < count; ++i) {
    o.keys.push_back({size_t(rng.Uniform(columns)), rng.Bernoulli(0.5)});
  }
  o.limits = {-1, 0, 1, int64_t(n), int64_t(n) + 5};
  if (n > 1) o.limits.push_back(rng.UniformRange(1, int64_t(n) - 1));
  return o;
}

// std::stable_sort on `keys` (columns of each row), then the first `limit`.
std::vector<Row> StableSortThenTruncate(
    std::vector<Row> rows, const std::vector<query_ops::SortKey>& keys,
    int64_t limit) {
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (auto [column, desc] : keys) {
      int c = a[column].Compare(b[column]);
      if (c != 0) return desc ? c > 0 : c < 0;
    }
    return false;
  });
  if (limit >= 0 && rows.size() > size_t(limit)) rows.resize(size_t(limit));
  return rows;
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what << " row " << i;
    for (size_t j = 0; j < got[i].size(); ++j) {
      ASSERT_EQ(got[i][j].Compare(want[i][j]), 0)
          << what << " row " << i << " column " << j << ": "
          << got[i][j].ToString() << " vs " << want[i][j].ToString();
      ASSERT_EQ(got[i][j].type(), want[i][j].type()) << what;
    }
  }
}

std::vector<Row> RandomSolutions(Rng& rng, size_t n) {
  static const char* kStrings[] = {"x", "y", "z"};
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Value c = rng.Bernoulli(0.2) ? Value()
                                 : Value(kStrings[rng.Uniform(3)]);
    rows.push_back({Value(int64_t(i)), Value(rng.UniformRange(0, 3)),
                    Value(rng.UniformRange(-2, 2)), std::move(c)});
  }
  return rows;
}

TEST(QueryOpsTest, TopKEqualsStableSortThenTruncate) {
  Rng rng(20261020);
  size_t checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const size_t n = size_t(rng.UniformRange(0, 80));
    const std::vector<Row> rows = RandomSolutions(rng, n);

    // Project: every column; DISTINCT then projects (a, c) only, so it
    // drops rows. The ORDER BY keys are columns of the solution.
    for (bool distinct : {false, true}) {
      const std::vector<size_t> cols = distinct
                                           ? std::vector<size_t>{1, 3}
                                           : std::vector<size_t>{0, 1, 2, 3};
      Order o = RandomOrder(rng, 4, n);
      std::vector<size_t> key_cols;
      std::vector<bool> desc;
      for (auto [column, d] : o.keys) {
        key_cols.push_back(column);
        desc.push_back(d);
      }
      // Reference input: projected columns then keys, DISTINCT applied
      // to the projected columns in solution order.
      std::vector<Row> ref;
      for (const Row& r : rows) {
        Row p;
        for (size_t c : cols) p.push_back(r[c]);
        auto same = [&p](const Row& seen) {
          return std::equal(p.begin(), p.end(), seen.begin(),
                            [](const Value& x, const Value& y) {
                              return x.Compare(y) == 0;
                            });
        };
        if (distinct && std::any_of(ref.begin(), ref.end(), same)) continue;
        for (size_t c : key_cols) p.push_back(r[c]);
        ref.push_back(std::move(p));
      }
      std::vector<query_ops::SortKey> ref_keys;
      for (size_t k = 0; k < key_cols.size(); ++k) {
        ref_keys.push_back({cols.size() + k, desc[k]});
      }
      for (int64_t limit : o.limits) {
        ProjectSpec spec{distinct, cols.size(), desc, limit};
        auto got = query_ops::Project(rows.size(), spec, Columns(rows, cols),
                                      Columns(rows, key_cols));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        std::vector<Row> want = StableSortThenTruncate(ref, ref_keys, limit);
        for (Row& w : want) w.resize(cols.size());
        ExpectSameRows(*got, want,
                       "project distinct=" + std::to_string(distinct) +
                           " n=" + std::to_string(n) +
                           " limit=" + std::to_string(limit));
        ++checked;
      }
    }

    // Aggregate: GROUP BY (a, c) with count(*), sum(b), min(b) and
    // first(id); ORDER BY any output column.
    AggregateSpec spec;
    spec.grouped = true;
    spec.items = {{Agg::kKey, 0}, {Agg::kKey, 1}, {Agg::kCountStar},
                  {Agg::kSum},    {Agg::kMin},    {Agg::kFirst}};
    std::vector<Row> groups;  // reference, in first-seen order
    for (const Row& r : rows) {
      Row* g = nullptr;
      for (Row& candidate : groups) {
        if (candidate[0].Compare(r[1]) == 0 &&
            candidate[1].Compare(r[3]) == 0) {
          g = &candidate;
        }
      }
      if (g == nullptr) {
        g = &groups.emplace_back(
            Row{r[1], r[3], Value(int64_t{0}), Value(int64_t{0}), r[2], r[0]});
      }
      (*g)[2] = Value((*g)[2].as_int() + 1);
      (*g)[3] = Value((*g)[3].as_int() + r[2].as_int());
      if (r[2].Compare((*g)[4]) < 0) (*g)[4] = r[2];
    }
    Order o = RandomOrder(rng, spec.items.size(), groups.size());
    spec.order = o.keys;
    for (int64_t limit : o.limits) {
      spec.limit = limit;
      auto got = query_ops::Aggregate(
          rows.size(), spec, Columns(rows, {1, 3}),
          [&](size_t i, size_t item, Value* out) {
            *out = rows[i][spec.items[item].agg == Agg::kFirst ? 0 : 2];
            return Status::OK();
          });
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameRows(*got, StableSortThenTruncate(groups, o.keys, limit),
                     "aggregate n=" + std::to_string(n) +
                         " limit=" + std::to_string(limit));
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(QueryOpsTest, GlobalAggregateOverZeroRowsYieldsOneRow) {
  std::vector<Row> none;
  AggregateSpec spec;
  spec.items = {{Agg::kCountStar}, {Agg::kCount}, {Agg::kSum},
                {Agg::kAvg},       {Agg::kMin},   {Agg::kMax},
                {Agg::kFirst}};
  auto global = query_ops::Aggregate(0, spec, Columns(none, {}),
                                     Column(none, 0));
  ASSERT_TRUE(global.ok());
  ASSERT_EQ(global->size(), 1u);
  const Row& row = (*global)[0];
  EXPECT_EQ(row[0], Value(int64_t{0}));
  EXPECT_EQ(row[1], Value(int64_t{0}));
  EXPECT_EQ(row[2], Value(int64_t{0}));
  for (size_t i = 3; i < row.size(); ++i) EXPECT_TRUE(row[i].is_null());

  spec.grouped = true;
  auto grouped = query_ops::Aggregate(0, spec, Columns(none, {}),
                                      Column(none, 0));
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE(grouped->empty());
}

TEST(QueryOpsTest, AggregatesSkipNullsAndSumStaysIntegral) {
  // (group, value): group 1 has ints and a NULL, group 2 mixes a double.
  std::vector<Row> rows = {{Value(1), Value(5)},   {Value(2), Value(1)},
                           {Value(1), Value()},    {Value(1), Value(-3)},
                           {Value(2), Value(0.5)}, {Value(1), Value(7)}};
  AggregateSpec spec;
  spec.grouped = true;
  spec.items = {{Agg::kKey, 0}, {Agg::kCountStar}, {Agg::kCount},
                {Agg::kSum},    {Agg::kAvg},       {Agg::kMin},
                {Agg::kMax},    {Agg::kFirst}};
  size_t first_calls = 0;
  auto r = query_ops::Aggregate(
      rows.size(), spec, Columns(rows, {0}),
      [&](size_t i, size_t item, Value* out) {
        if (spec.items[item].agg == Agg::kFirst) ++first_calls;
        *out = rows[i][1];
        return Status::OK();
      });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  const Row& g1 = (*r)[0];
  EXPECT_EQ(g1[0], Value(1));
  EXPECT_EQ(g1[1], Value(int64_t{4}));
  EXPECT_EQ(g1[2], Value(int64_t{3}));
  EXPECT_TRUE(g1[3].is_int());
  EXPECT_EQ(g1[3], Value(int64_t{9}));
  EXPECT_DOUBLE_EQ(g1[4].as_double(), 3.0);
  EXPECT_EQ(g1[5], Value(-3));
  EXPECT_EQ(g1[6], Value(7));
  EXPECT_EQ(g1[7], Value(5));
  const Row& g2 = (*r)[1];
  EXPECT_TRUE(g2[3].is_double());
  EXPECT_DOUBLE_EQ(g2[3].as_double(), 1.5);
  EXPECT_EQ(g2[5], Value(0.5));
  EXPECT_EQ(g2[6], Value(1));
  EXPECT_EQ(first_calls, 2u);  // once per group
}

TEST(QueryOpsTest, DistinctAppliesBeforeSortKeysAndLimit) {
  std::vector<Row> rows = {{Value(3)}, {Value(1)}, {Value(3)}, {Value(2)},
                           {Value(1)}, {Value(4)}};
  size_t key_calls = 0;
  query_ops::RowFn key = [&](size_t i, Row* out) {
    ++key_calls;
    out->push_back(rows[i][0]);
    return Status::OK();
  };
  ProjectSpec spec{true, 1, {false}, 3};
  auto r = query_ops::Project(rows.size(), spec, Columns(rows, {0}), key);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ints(*r), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(key_calls, 4u);  // duplicates never reach the sort keys

  // Without ORDER BY the limit keeps the first distinct rows.
  ProjectSpec unsorted{true, 1, {}, 2};
  auto first = query_ops::Project(rows.size(), unsorted,
                                  Columns(rows, {0}), nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(Ints(*first), (std::vector<int64_t>{3, 1}));
}

TEST(QueryOpsTest, NegativeLimitMeansNoLimit) {
  std::vector<Row> rows = {{Value(1)}, {Value(2)}, {Value(3)}};
  for (int64_t limit : {int64_t{-1}, int64_t{-7}}) {
    auto r = query_ops::Project(rows.size(), ProjectSpec{false, 1, {}, limit},
                                Columns(rows, {0}), nullptr);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 3u);
  }
  auto zero = query_ops::Project(rows.size(), ProjectSpec{false, 1, {}, 0},
                                 Columns(rows, {0}), nullptr);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
}

TEST(QueryOpsTest, BindLimit) {
  EXPECT_EQ(*query_ops::BindLimit(5, false, nullptr), 5);
  EXPECT_EQ(*query_ops::BindLimit(-1, false, nullptr), -1);
  Value seven(7);
  EXPECT_EQ(*query_ops::BindLimit(-1, true, &seven), 7);
  EXPECT_TRUE(
      query_ops::BindLimit(-1, true, nullptr).status().IsInvalidArgument());
  Value text("7");
  EXPECT_TRUE(
      query_ops::BindLimit(-1, true, &text).status().IsInvalidArgument());
  Value real(7.0);
  EXPECT_TRUE(
      query_ops::BindLimit(-1, true, &real).status().IsInvalidArgument());
}

TEST(QueryOpsTest, CallbackErrorsPropagate) {
  std::vector<Row> rows = {{Value(1)}};
  query_ops::RowFn failing = [](size_t, Row*) {
    return Status::Corruption("boom");
  };
  EXPECT_TRUE(query_ops::Project(1, ProjectSpec{false, 1, {}, -1}, failing,
                                 nullptr)
                  .status()
                  .IsCorruption());
  AggregateSpec spec;
  spec.grouped = true;
  spec.items = {{Agg::kCountStar}};
  EXPECT_TRUE(query_ops::Aggregate(1, spec, failing, nullptr)
                  .status()
                  .IsCorruption());
}

// --- BFS kernels ---------------------------------------------------------

using Adjacency = std::vector<std::vector<int64_t>>;

// Undirected random graph of `n` vertices: a few components, self-loops
// and parallel edges included.
Adjacency RandomGraph(Rng& rng, int64_t n) {
  Adjacency adj(static_cast<size_t>(n));
  const int64_t parts = rng.UniformRange(1, 4);
  const int64_t edges = rng.UniformRange(0, 2 * n);
  for (int64_t e = 0; e < edges; ++e) {
    int64_t a = rng.UniformRange(0, n - 1);
    int64_t b = rng.Bernoulli(0.1) ? a : rng.UniformRange(0, n - 1);
    if (a % parts != b % parts) continue;  // keep the parts apart
    adj[size_t(a)].push_back(b);
    if (a != b) adj[size_t(b)].push_back(a);
  }
  return adj;
}

// Plain reference: every vertex's hop distance from `from` (-1: none).
std::vector<int> ReferenceDistances(const Adjacency& adj, int64_t from) {
  std::vector<int> dist(adj.size(), -1);
  std::deque<int64_t> queue{from};
  dist[size_t(from)] = 0;
  while (!queue.empty()) {
    int64_t v = queue.front();
    queue.pop_front();
    for (int64_t w : adj[size_t(v)]) {
      if (dist[size_t(w)] >= 0) continue;
      dist[size_t(w)] = dist[size_t(v)] + 1;
      queue.push_back(w);
    }
  }
  return dist;
}

TEST(ShortestPathKernelTest, BothKernelsMatchReferenceBfsOnRandomGraphs) {
  Rng rng(20261017);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t n = rng.UniformRange(1, 40);
    Adjacency adj = RandomGraph(rng, n);
    size_t expansions = 0;
    auto expand = [&](int64_t v, auto&& emit) {
      ++expansions;
      for (int64_t w : adj[size_t(v)]) {
        if (!emit(w)) break;
      }
      return Status::OK();
    };
    for (int64_t a = 0; a < n; ++a) {
      std::vector<int> want = ReferenceDistances(adj, a);
      for (int64_t b = 0; b < n; ++b) {
        auto single = BfsDistance(a, b, expand);
        auto bidir = BidirectionalBfsDistance(a, b, expand);
        ASSERT_TRUE(single.ok() && bidir.ok());
        EXPECT_EQ(*single, want[size_t(b)])
            << "trial " << trial << " " << a << "->" << b;
        EXPECT_EQ(*bidir, want[size_t(b)])
            << "trial " << trial << " " << a << "->" << b;
      }
      // A bounded search visits exactly the vertices within its bound,
      // each once, at its BFS depth.
      const int max_hops = int(rng.UniformRange(0, 4));
      std::vector<int> seen(size_t(n), -1);
      auto r = Bfs(a, max_hops, expand, [&](int64_t v, int depth) {
        EXPECT_EQ(seen[size_t(v)], -1) << "visited twice";
        seen[size_t(v)] = depth;
        return true;
      });
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, -1);
      for (int64_t v = 0; v < n; ++v) {
        int d = want[size_t(v)];
        bool in_range = v != a && d >= 1 && d <= max_hops;
        EXPECT_EQ(seen[size_t(v)], in_range ? d : -1) << "vertex " << v;
      }
    }
    EXPECT_GT(expansions, 0u);
  }
}

TEST(ShortestPathKernelTest, ExpandErrorsPropagate) {
  auto failing = [](int64_t, auto&&) { return Status::Internal("disk"); };
  EXPECT_TRUE(BfsDistance(int64_t{0}, int64_t{1}, failing)
                  .status()
                  .IsInternal());
  EXPECT_TRUE(BidirectionalBfsDistance(int64_t{0}, int64_t{1}, failing)
                  .status()
                  .IsInternal());
  // from == to answers without expanding.
  EXPECT_EQ(*BfsDistance(int64_t{3}, int64_t{3}, failing), 0);
  EXPECT_EQ(*BidirectionalBfsDistance(int64_t{3}, int64_t{3}, failing), 0);
}

}  // namespace
}  // namespace graphbench
