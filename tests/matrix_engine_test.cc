// Unit tests for the linear-algebra engine (DESIGN.md §10): delta-CSR
// invariants (boolean dedup, sorted overlay, merge threshold, undirected
// symmetry), SpMV-vs-pointer-chasing BFS agreement with an oracle, masked
// two-hop semantics, columnar side-table reads, and the one-writer /
// many-readers locking discipline (the case the TSan CI job exercises).
// SUT-level equivalence lives in sut_equivalence_test.cc; concurrent
// knows churn against the SUT in knows_churn_property_test.cc.

#include "engines/matrix/matrix_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "engines/matrix/delta_csr.h"
#include "numbered.h"
#include "snb/datagen.h"

namespace graphbench {
namespace {

std::vector<int32_t> RowOf(const DeltaCsrMatrix& m, int32_t row) {
  std::vector<int32_t> out;
  m.ForEachInRow(row, [&](int32_t c) { out.push_back(c); });
  return out;
}

TEST(DeltaCsrTest, AddRemoveRoundTripsThroughOverlay) {
  DeltaCsrMatrix m(DeltaCsrOptions{.merge_threshold = 1000000});
  for (int i = 0; i < 5; ++i) m.AddRow();
  EXPECT_TRUE(m.AddEdge(0, 1));
  EXPECT_TRUE(m.AddEdge(0, 3));
  EXPECT_FALSE(m.AddEdge(0, 1)) << "boolean matrix collapses duplicates";
  EXPECT_FALSE(m.AddEdge(1, 0)) << "symmetric slot already present";
  EXPECT_TRUE(m.Contains(0, 1));
  EXPECT_TRUE(m.Contains(1, 0)) << "undirected: both slots set";
  EXPECT_EQ(m.RowDegree(0), 2u);
  EXPECT_EQ((std::vector<int32_t>{1, 3}), RowOf(m, 0));

  EXPECT_TRUE(m.RemoveEdge(1, 0));
  EXPECT_FALSE(m.RemoveEdge(0, 1)) << "already removed";
  EXPECT_FALSE(m.Contains(0, 1));
  EXPECT_FALSE(m.Contains(1, 0));
  EXPECT_EQ(m.RowDegree(1), 0u);
  EXPECT_EQ(m.stats().nnz, 2u) << "one undirected edge = two slots";
}

TEST(DeltaCsrTest, SelfLoopsAndOutOfRangeRejected) {
  DeltaCsrMatrix m;
  m.AddRow();
  m.AddRow();
  EXPECT_FALSE(m.AddEdge(0, 0));
  EXPECT_FALSE(m.AddEdge(0, 7));
  EXPECT_FALSE(m.AddEdge(-1, 0));
  EXPECT_FALSE(m.Contains(0, 9));
}

TEST(DeltaCsrTest, DeleteFromCsrBodyThenReinsert) {
  DeltaCsrMatrix m(DeltaCsrOptions{.merge_threshold = 1000000});
  m.Build({{1, 2}, {0}, {0}});
  EXPECT_TRUE(m.RemoveEdge(0, 1));
  EXPECT_FALSE(m.Contains(0, 1));
  EXPECT_EQ((std::vector<int32_t>{2}), RowOf(m, 0));
  EXPECT_GT(m.stats().pending_delta, 0u) << "delete parked in the overlay";
  // Re-insert: must cancel the pending delete, not create an overlay add.
  EXPECT_TRUE(m.AddEdge(0, 1));
  EXPECT_TRUE(m.Contains(0, 1));
  EXPECT_EQ((std::vector<int32_t>{1, 2}), RowOf(m, 0));
  EXPECT_EQ(m.stats().pending_delta, 0u);
}

TEST(DeltaCsrTest, MergeThresholdFoldsOverlayIntoCsr) {
  DeltaCsrMatrix m(DeltaCsrOptions{.merge_threshold = 4});
  for (int i = 0; i < 6; ++i) m.AddRow();
  uint64_t merges_before = m.stats().delta_merges;
  m.AddEdge(0, 1);  // 2 pending slots
  EXPECT_EQ(m.stats().delta_merges, merges_before);
  m.AddEdge(2, 3);  // 4 pending: crosses the threshold
  EXPECT_EQ(m.stats().delta_merges, merges_before + 1);
  EXPECT_EQ(m.stats().pending_delta, 0u);
  // Merged content intact, and the folded CSR row is sorted.
  m.AddEdge(0, 5);
  m.AddEdge(0, 3);
  m.MergeDelta();
  EXPECT_EQ((std::vector<int32_t>{1, 3, 5}), RowOf(m, 0));
  EXPECT_TRUE(m.Contains(2, 3));
}

TEST(DeltaCsrTest, RandomChurnMatchesSetOracle) {
  std::mt19937_64 rng(77);
  constexpr int32_t kN = 24;
  // Threshold 16 so the churn repeatedly crosses merge boundaries.
  DeltaCsrMatrix m(DeltaCsrOptions{.merge_threshold = 16});
  for (int32_t i = 0; i < kN; ++i) m.AddRow();
  std::set<std::pair<int32_t, int32_t>> oracle;
  for (int step = 0; step < 2000; ++step) {
    int32_t a = int32_t(rng() % kN);
    int32_t b = int32_t(rng() % kN);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (rng() % 2 == 0) {
      EXPECT_EQ(m.AddEdge(a, b), oracle.emplace(a, b).second);
    } else {
      EXPECT_EQ(m.RemoveEdge(a, b), oracle.erase({a, b}) > 0);
    }
  }
  EXPECT_GT(m.stats().delta_merges, 0u);
  for (int32_t r = 0; r < kN; ++r) {
    std::set<int32_t> expected;
    for (const auto& [a, b] : oracle) {
      if (a == r) expected.insert(b);
      if (b == r) expected.insert(a);
    }
    std::vector<int32_t> row = RowOf(m, r);
    EXPECT_EQ(std::set<int32_t>(row.begin(), row.end()), expected)
        << "row " << r;
    EXPECT_EQ(row.size(), expected.size()) << "row " << r << " duplicates";
  }
}

// ---------------------------------------------------------------------------

snb::Dataset TinyDataset() {
  snb::DatagenOptions o;
  o.num_persons = 70;
  o.seed = 4321;
  o.max_degree = 14;
  return snb::Generate(o);
}

std::set<int64_t> IdColumn(const QueryResult& r) {
  std::set<int64_t> out;
  for (const Row& row : r.rows) out.insert(row[0].as_int());
  return out;
}

TEST(MatrixEngineTest, SpmvAndPointerChasingBfsAgree) {
  snb::Dataset data = TinyDataset();
  MatrixEngine spmv(MatrixEngineOptions{.bfs = MatrixBfsKind::kSpmv});
  MatrixEngine chase(
      MatrixEngineOptions{.bfs = MatrixBfsKind::kPointerChasing});
  ASSERT_TRUE(spmv.Load(data).ok());
  ASSERT_TRUE(chase.Load(data).ok());
  for (size_t i = 0; i + 5 < data.persons.size(); i += 5) {
    int64_t a = data.persons[i].id;
    int64_t b = data.persons[i + 5].id;
    EXPECT_EQ(spmv.ShortestPathLen(a, b), chase.ShortestPathLen(a, b))
        << a << "→" << b;
  }
  EXPECT_EQ(spmv.ShortestPathLen(data.persons[0].id, data.persons[0].id), 0);
  EXPECT_EQ(spmv.ShortestPathLen(data.persons[0].id, 999999999), -1)
      << "unknown person is unreachable";
  EXPECT_GT(spmv.stats().spmv_rows, 0u);
}

TEST(MatrixEngineTest, TwoHopMasksOnlySelf) {
  // Triangle 0-1-2 plus pendant 3 off vertex 2: two-hop of 0 includes its
  // direct friends 1 and 2 (reachable through each other) and 3, but
  // never 0 itself.
  snb::Dataset data;
  for (int64_t id = 0; id < 4; ++id) {
    snb::Person p;
    p.id = 100 + id;
    p.first_name = Numbered("P", id);
    data.persons.push_back(p);
  }
  auto knows = [&data](int64_t a, int64_t b) {
    snb::Knows k;
    k.person1 = 100 + a;
    k.person2 = 100 + b;
    data.knows.push_back(k);
  };
  knows(0, 1);
  knows(1, 2);
  knows(0, 2);
  knows(2, 3);
  MatrixEngine engine;
  ASSERT_TRUE(engine.Load(data).ok());
  EXPECT_EQ(IdColumn(engine.TwoHop(100)), (std::set<int64_t>{101, 102, 103}));
  // Pendant 3: only neighbor is 2, so two-hop is 2's other neighbors.
  EXPECT_EQ(IdColumn(engine.TwoHop(103)), (std::set<int64_t>{100, 101}));
}

TEST(MatrixEngineTest, ColumnarSideTablesAnswerPropertyReads) {
  snb::Dataset data = TinyDataset();
  MatrixEngine engine;
  ASSERT_TRUE(engine.Load(data).ok());

  const snb::Person& p = data.persons[3];
  QueryResult r = engine.PointLookup(p.id);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_string(), p.first_name);
  EXPECT_EQ(r.rows[0][1].as_string(), p.last_name);
  EXPECT_EQ(r.rows[0][3].as_int(), p.birthday);
  EXPECT_TRUE(engine.PointLookup(424242).rows.empty());

  // RecentPosts: newest-first and capped.
  for (const auto& post : data.posts) {
    QueryResult posts = engine.RecentPosts(post.creator, 3);
    ASSERT_LE(posts.rows.size(), 3u);
    for (size_t i = 1; i < posts.rows.size(); ++i) {
      EXPECT_GE(posts.rows[i - 1][2].as_int(), posts.rows[i][2].as_int());
    }
    break;
  }

  // TopPosters: ranked count desc then id asc, counts exact.
  std::map<int64_t, int64_t> counts;
  for (const auto& post : data.posts) ++counts[post.creator];
  QueryResult top = engine.TopPosters(3);
  ASSERT_LE(top.rows.size(), 3u);
  for (size_t i = 0; i < top.rows.size(); ++i) {
    EXPECT_EQ(top.rows[i][1].as_int(), counts[top.rows[i][0].as_int()]);
    if (i > 0) {
      int64_t prev = top.rows[i - 1][1].as_int();
      int64_t cur = top.rows[i][1].as_int();
      EXPECT_TRUE(prev > cur ||
                  (prev == cur &&
                   top.rows[i - 1][0].as_int() < top.rows[i][0].as_int()));
    }
  }
}

TEST(MatrixEngineTest, DuplicateFriendshipCollapses) {
  snb::Dataset data = TinyDataset();
  MatrixEngine engine;
  ASSERT_TRUE(engine.Load(data).ok());
  ASSERT_FALSE(data.knows.empty());
  const snb::Knows& k = data.knows[0];

  snb::UpdateOp add;
  add.kind = snb::UpdateOp::Kind::kAddFriendship;
  add.knows = k;
  ASSERT_TRUE(engine.Apply(add).ok()) << "duplicate friendship is a no-op";

  // One remove undoes the original and its duplicate alike.
  snb::UpdateOp del;
  del.kind = snb::UpdateOp::Kind::kRemoveFriendship;
  del.knows = k;
  ASSERT_TRUE(engine.Apply(del).ok());
  EXPECT_NE(engine.ShortestPathLen(k.person1, k.person2), 1);
  EXPECT_FALSE(engine.Apply(del).ok()) << "edge already gone";

  ASSERT_TRUE(engine.Apply(add).ok());
  EXPECT_EQ(engine.ShortestPathLen(k.person1, k.person2), 1);
}

TEST(MatrixEngineTest, ConcurrentReadersWithSingleWriter) {
  // The TSan target: reader threads sweep every query while one writer
  // churns friendships across merge boundaries (tiny threshold).
  snb::Dataset data = TinyDataset();
  MatrixEngine engine(
      MatrixEngineOptions{.csr = DeltaCsrOptions{.merge_threshold = 8}});
  ASSERT_TRUE(engine.Load(data).ok());
  std::vector<int64_t> ids;
  for (const auto& p : data.persons) ids.push_back(p.id);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(uint64_t(100 + t));
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t a = ids[rng() % ids.size()];
        int64_t b = ids[rng() % ids.size()];
        engine.OneHop(a);
        engine.TwoHop(b);
        engine.ShortestPathLen(a, b);
        engine.TopPosters(3);
      }
    });
  }

  std::mt19937_64 rng(999);
  std::set<std::pair<int64_t, int64_t>> present;
  for (const auto& k : data.knows) present.emplace(k.person1, k.person2);
  for (int step = 0; step < 600; ++step) {
    snb::UpdateOp op;
    op.knows.person1 = ids[rng() % ids.size()];
    op.knows.person2 = ids[rng() % ids.size()];
    if (op.knows.person1 == op.knows.person2) continue;
    if (op.knows.person1 > op.knows.person2) {
      std::swap(op.knows.person1, op.knows.person2);
    }
    auto key = std::pair(op.knows.person1, op.knows.person2);
    if (present.count(key)) {
      op.kind = snb::UpdateOp::Kind::kRemoveFriendship;
      present.erase(key);
    } else {
      op.kind = snb::UpdateOp::Kind::kAddFriendship;
      present.insert(key);
    }
    ASSERT_TRUE(engine.Apply(op).ok()) << "step " << step;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GT(engine.stats().delta_merges, 0u);
}

}  // namespace
}  // namespace graphbench
