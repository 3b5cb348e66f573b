// Randomized property test: on independently generated random social
// networks (several seeds and shapes), a representative SUT from each
// data-modelling family must agree with a reference implementation on
// every benchmark query, including mid-stream (after applying a random
// prefix of the update stream) and during a mixed read/write phase that
// interleaves the remaining update ops — plus synthesized unfriend ops —
// with path queries. This catches distribution-dependent bugs the
// fixed-dataset equivalence suite cannot, and that each engine's own
// shortest-path search stays exact while writes land between queries.
// The mixed phase also probes the two
// content-heavy aggregates (TopPosters, RepliesOfPost) so the columnar
// side tables — not just the adjacency structures — are exercised while
// posts and comments stream in.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "snb/datagen.h"
#include "sut/sut.h"
#include "util/random.h"

namespace graphbench {
namespace {

struct Shape {
  uint64_t seed;
  uint32_t persons;
  uint32_t max_degree;
  double update_window;
};

class SutRandomPropertyTest : public ::testing::TestWithParam<Shape> {};

// Reference knows-adjacency built from snapshot + an applied prefix.
class ReferenceGraph {
 public:
  ReferenceGraph(const snb::Dataset& data, size_t applied_prefix) {
    for (const auto& k : data.knows) Link(k.person1, k.person2);
    for (const auto& p : data.persons) persons_.insert(p.id);
    for (size_t i = 0; i < applied_prefix; ++i) {
      const auto& op = data.update_stream[i];
      if (op.kind == snb::UpdateOp::Kind::kAddFriendship) {
        Link(op.knows.person1, op.knows.person2);
      } else if (op.kind == snb::UpdateOp::Kind::kAddPerson) {
        persons_.insert(op.person.id);
      }
    }
  }

  std::set<int64_t> Neighbors(int64_t p) const {
    auto it = adj_.find(p);
    return it == adj_.end() ? std::set<int64_t>{} : it->second;
  }

  std::set<int64_t> TwoHop(int64_t p) const {
    std::set<int64_t> out;
    for (int64_t f : Neighbors(p)) {
      for (int64_t ff : Neighbors(f)) {
        if (ff != p) out.insert(ff);
      }
    }
    return out;
  }

  int ShortestPath(int64_t a, int64_t b) const {
    if (a == b) return 0;
    std::set<int64_t> visited{a};
    std::vector<int64_t> frontier{a};
    for (int depth = 1; !frontier.empty(); ++depth) {
      std::vector<int64_t> next;
      for (int64_t v : frontier) {
        for (int64_t n : Neighbors(v)) {
          if (visited.count(n)) continue;
          if (n == b) return depth;
          visited.insert(n);
          next.push_back(n);
        }
      }
      frontier = std::move(next);
    }
    return -1;
  }

  const std::set<int64_t>& persons() const { return persons_; }

  void Link(int64_t a, int64_t b) {
    adj_[a].insert(b);
    adj_[b].insert(a);
  }

  void Unlink(int64_t a, int64_t b) {
    adj_[a].erase(b);
    adj_[b].erase(a);
  }

  void AddPerson(int64_t p) { persons_.insert(p); }

 private:
  std::map<int64_t, std::set<int64_t>> adj_;
  std::set<int64_t> persons_;
};

std::set<int64_t> IdColumn(const QueryResult& r) {
  std::set<int64_t> out;
  for (const Row& row : r.rows) out.insert(row[0].as_int());
  return out;
}

TEST_P(SutRandomPropertyTest, FamiliesAgreeWithReferenceMidStream) {
  const Shape& shape = GetParam();
  snb::DatagenOptions options;
  options.num_persons = shape.persons;
  options.seed = shape.seed;
  options.max_degree = shape.max_degree;
  options.update_window = shape.update_window;
  snb::Dataset data = snb::Generate(options);

  // One SUT per data-modelling family (§1's four approaches) plus the
  // linear-algebra engine.
  const SutKind kinds[] = {SutKind::kPostgresSql, SutKind::kNeo4jCypher,
                           SutKind::kVirtuosoSparql, SutKind::kTitanC,
                           SutKind::kMatrix};
  std::vector<std::unique_ptr<Sut>> suts;
  for (SutKind kind : kinds) {
    auto sut = MakeSut(kind);
    ASSERT_TRUE(sut->Load(data).ok()) << sut->name();
    suts.push_back(std::move(sut));
  }

  // Apply a random prefix of the update stream everywhere.
  Rng rng(shape.seed * 31 + 7);
  size_t prefix = data.update_stream.empty()
                      ? 0
                      : rng.Uniform(data.update_stream.size());
  for (size_t i = 0; i < prefix; ++i) {
    for (auto& sut : suts) {
      ASSERT_TRUE(sut->Apply(data.update_stream[i]).ok())
          << sut->name() << " op " << i;
    }
  }
  ReferenceGraph ref(data, prefix);

  // Content reference for the aggregate probes: per-creator post counts
  // and per-post reply (comment id → creator) maps, from the snapshot
  // plus the applied prefix.
  std::map<int64_t, int64_t> post_counts;
  std::map<int64_t, std::map<int64_t, int64_t>> post_replies;
  std::vector<int64_t> post_ids;
  auto note_post = [&](const snb::Post& p) {
    ++post_counts[p.creator];
    post_ids.push_back(p.id);
  };
  auto note_comment = [&](const snb::Comment& c) {
    if (c.reply_of_post >= 0) post_replies[c.reply_of_post][c.id] = c.creator;
  };
  for (const auto& p : data.posts) note_post(p);
  for (const auto& c : data.comments) note_comment(c);
  for (size_t i = 0; i < prefix; ++i) {
    const auto& op = data.update_stream[i];
    if (op.kind == snb::UpdateOp::Kind::kAddPost) note_post(op.post);
    if (op.kind == snb::UpdateOp::Kind::kAddComment) note_comment(op.comment);
  }
  // TopPosters reference ranking: count desc, id asc, persons with posts.
  auto expected_top = [&post_counts](size_t limit) {
    std::vector<std::pair<int64_t, int64_t>> ranked(post_counts.begin(),
                                                    post_counts.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (ranked.size() > limit) ranked.resize(limit);
    return ranked;
  };

  // Random probes.
  std::vector<int64_t> ids(ref.persons().begin(), ref.persons().end());
  ASSERT_FALSE(ids.empty());
  for (int probe = 0; probe < 12; ++probe) {
    int64_t a = ids[rng.Uniform(ids.size())];
    int64_t b = ids[rng.Uniform(ids.size())];
    std::set<int64_t> expect_one = ref.Neighbors(a);
    std::set<int64_t> expect_two = ref.TwoHop(a);
    int expect_sp = ref.ShortestPath(a, b);
    for (auto& sut : suts) {
      auto one = sut->OneHop(a);
      ASSERT_TRUE(one.ok()) << sut->name();
      EXPECT_EQ(IdColumn(*one), expect_one)
          << sut->name() << " 1-hop of " << a << " (prefix " << prefix
          << ")";
      auto two = sut->TwoHop(a);
      ASSERT_TRUE(two.ok()) << sut->name();
      EXPECT_EQ(IdColumn(*two), expect_two)
          << sut->name() << " 2-hop of " << a;
      auto sp = sut->ShortestPathLen(a, b);
      ASSERT_TRUE(sp.ok()) << sut->name();
      EXPECT_EQ(*sp, expect_sp)
          << sut->name() << " path " << a << "->" << b;
    }
  }

  // Mixed read/write phase: drain (part of) the remaining stream while
  // interleaving path queries between writes, plus synthesized unfriend
  // ops so the KNOWS relation shrinks as well as grows mid-phase.
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (const auto& k : data.knows) edges.emplace_back(k.person1, k.person2);
  for (size_t i = 0; i < prefix; ++i) {
    const auto& op = data.update_stream[i];
    if (op.kind == snb::UpdateOp::Kind::kAddFriendship) {
      edges.emplace_back(op.knows.person1, op.knows.person2);
    }
  }
  int steps = 0;
  for (size_t i = prefix; i < data.update_stream.size() && steps < 80;
       ++i, ++steps) {
    const auto& op = data.update_stream[i];
    for (auto& sut : suts) {
      ASSERT_TRUE(sut->Apply(op).ok()) << sut->name() << " op " << i;
    }
    if (op.kind == snb::UpdateOp::Kind::kAddFriendship) {
      ref.Link(op.knows.person1, op.knows.person2);
      edges.emplace_back(op.knows.person1, op.knows.person2);
    } else if (op.kind == snb::UpdateOp::Kind::kAddPerson) {
      ref.AddPerson(op.person.id);
    } else if (op.kind == snb::UpdateOp::Kind::kAddPost) {
      note_post(op.post);
    } else if (op.kind == snb::UpdateOp::Kind::kAddComment) {
      note_comment(op.comment);
    }

    if (steps % 3 == 0 && !edges.empty()) {
      size_t ei = rng.Uniform(edges.size());
      auto [p1, p2] = edges[ei];
      edges.erase(edges.begin() + long(ei));
      snb::UpdateOp unfriend;
      unfriend.kind = snb::UpdateOp::Kind::kRemoveFriendship;
      unfriend.knows.person1 = p1;
      unfriend.knows.person2 = p2;
      for (auto& sut : suts) {
        ASSERT_TRUE(sut->Apply(unfriend).ok())
            << sut->name() << " unfriend " << p1 << "," << p2;
      }
      ref.Unlink(p1, p2);
    }

    if (steps % 4 == 0) {
      int64_t a = ids[rng.Uniform(ids.size())];
      int64_t b = ids[rng.Uniform(ids.size())];
      int expect_sp = ref.ShortestPath(a, b);
      std::set<int64_t> expect_one = ref.Neighbors(a);
      for (auto& sut : suts) {
        auto sp = sut->ShortestPathLen(a, b);
        ASSERT_TRUE(sp.ok()) << sut->name();
        EXPECT_EQ(*sp, expect_sp) << sut->name() << " mid-write path " << a
                                  << "->" << b << " (step " << steps << ")";
        auto one = sut->OneHop(a);
        ASSERT_TRUE(one.ok()) << sut->name();
        EXPECT_EQ(IdColumn(*one), expect_one)
            << sut->name() << " mid-write 1-hop of " << a;
      }
    }

    // Aggregate probe: exact TopPosters ranking and the reply set of a
    // random post, while posts/comments are still streaming in.
    if (steps % 5 == 0 && !post_ids.empty()) {
      std::vector<std::pair<int64_t, int64_t>> want_top = expected_top(5);
      int64_t post_id = post_ids[rng.Uniform(post_ids.size())];
      std::set<std::pair<int64_t, int64_t>> want_replies;
      if (auto it = post_replies.find(post_id); it != post_replies.end()) {
        for (const auto& [cid, creator] : it->second) {
          want_replies.emplace(cid, creator);
        }
      }
      for (auto& sut : suts) {
        auto top = sut->TopPosters(5);
        ASSERT_TRUE(top.ok()) << sut->name();
        ASSERT_EQ(top->rows.size(), want_top.size())
            << sut->name() << " top-posters size (step " << steps << ")";
        for (size_t r = 0; r < want_top.size(); ++r) {
          EXPECT_EQ(top->rows[r][0].as_int(), want_top[r].first)
              << sut->name() << " top-posters rank " << r;
          EXPECT_EQ(top->rows[r][1].as_int(), want_top[r].second)
              << sut->name() << " top-posters count at rank " << r;
        }
        auto replies = sut->RepliesOfPost(post_id);
        ASSERT_TRUE(replies.ok()) << sut->name();
        std::set<std::pair<int64_t, int64_t>> got;
        for (const Row& row : replies->rows) {
          got.emplace(row[0].as_int(), row[2].as_int());
        }
        EXPECT_EQ(got, want_replies)
            << sut->name() << " replies of post " << post_id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SutRandomPropertyTest,
    ::testing::Values(Shape{101, 40, 10, 0.1}, Shape{202, 80, 25, 0.2},
                      Shape{303, 60, 8, 0.4}, Shape{404, 120, 40, 0.15}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace graphbench
