// Cross-system equivalence: all eight SUT configurations must return the
// same logical answers to every benchmark query on the same generated
// social network, before and after applying the update stream. This is the
// property that makes the paper's cross-system latency comparison
// meaningful. Each SUT runs twice — with the plan cache off (the paper's
// parse-per-call methodology) and on (plans cached by text) — since the
// cache must never change answers, only latency.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "snb/datagen.h"
#include "sut/sut.h"

namespace graphbench {
namespace {

snb::DatagenOptions TinyOptions() {
  snb::DatagenOptions o;
  o.num_persons = 60;
  o.seed = 99;
  o.max_degree = 20;
  return o;
}

const snb::Dataset& SharedDataset() {
  static const snb::Dataset* data =
      new snb::Dataset(snb::Generate(TinyOptions()));
  return *data;
}

class SutEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SutKind, bool>> {
 protected:
  void SetUp() override {
    auto [kind, plan_cache] = GetParam();
    sut_ = MakeSut(kind, SutOptions{.plan_cache = plan_cache});
    ASSERT_NE(sut_, nullptr);
    ASSERT_EQ(sut_->plan_cache_enabled(), plan_cache) << sut_->name();
    Status s = sut_->Load(SharedDataset());
    ASSERT_TRUE(s.ok()) << sut_->name() << ": " << s.ToString();
  }

  // Reference answers computed directly from the dataset.
  static std::set<int64_t> RefNeighbors(int64_t person) {
    std::set<int64_t> out;
    for (const auto& k : SharedDataset().knows) {
      if (k.person1 == person) out.insert(k.person2);
      if (k.person2 == person) out.insert(k.person1);
    }
    return out;
  }

  static std::set<int64_t> RefTwoHop(int64_t person) {
    std::set<int64_t> out;
    for (int64_t f : RefNeighbors(person)) {
      for (int64_t ff : RefNeighbors(f)) {
        if (ff != person) out.insert(ff);
      }
    }
    return out;
  }

  static int RefShortestPath(int64_t from, int64_t to) {
    if (from == to) return 0;
    std::set<int64_t> visited{from};
    std::vector<int64_t> frontier{from};
    for (int depth = 1; !frontier.empty(); ++depth) {
      std::vector<int64_t> next;
      for (int64_t v : frontier) {
        for (int64_t n : RefNeighbors(v)) {
          if (visited.count(n)) continue;
          if (n == to) return depth;
          visited.insert(n);
          next.push_back(n);
        }
      }
      frontier = std::move(next);
    }
    return -1;
  }

  static std::set<int64_t> ColumnAsSet(const QueryResult& r, size_t col) {
    std::set<int64_t> out;
    for (const Row& row : r.rows) out.insert(row[col].as_int());
    return out;
  }

  std::unique_ptr<Sut> sut_;
};

TEST_P(SutEquivalenceTest, PointLookupMatchesDataset) {
  for (size_t i = 0; i < SharedDataset().persons.size(); i += 7) {
    const snb::Person& p = SharedDataset().persons[i];
    auto r = sut_->PointLookup(p.id);
    ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << sut_->name() << " person " << p.id;
    EXPECT_EQ(r->rows[0][0].as_string(), p.first_name) << sut_->name();
    EXPECT_EQ(r->rows[0][1].as_string(), p.last_name) << sut_->name();
  }
}

TEST_P(SutEquivalenceTest, PointLookupMissingPersonGivesNoRows) {
  auto r = sut_->PointLookup(123456789);
  ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
  EXPECT_TRUE(r->rows.empty()) << sut_->name();
}

TEST_P(SutEquivalenceTest, OneHopMatchesDataset) {
  for (size_t i = 0; i < SharedDataset().persons.size(); i += 11) {
    int64_t id = SharedDataset().persons[i].id;
    auto r = sut_->OneHop(id);
    ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
    EXPECT_EQ(ColumnAsSet(*r, 0), RefNeighbors(id))
        << sut_->name() << " person " << id;
  }
}

TEST_P(SutEquivalenceTest, TwoHopMatchesDataset) {
  for (size_t i = 0; i < SharedDataset().persons.size(); i += 17) {
    int64_t id = SharedDataset().persons[i].id;
    auto r = sut_->TwoHop(id);
    ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
    EXPECT_EQ(ColumnAsSet(*r, 0), RefTwoHop(id))
        << sut_->name() << " person " << id;
  }
}

TEST_P(SutEquivalenceTest, ShortestPathMatchesReferenceBfs) {
  const auto& persons = SharedDataset().persons;
  for (size_t i = 0; i + 13 < persons.size(); i += 13) {
    int64_t a = persons[i].id;
    int64_t b = persons[i + 13].id;
    auto r = sut_->ShortestPathLen(a, b);
    ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
    EXPECT_EQ(*r, RefShortestPath(a, b))
        << sut_->name() << " pair " << a << "," << b;
  }
}

TEST_P(SutEquivalenceTest, RecentPostsAreCreatorsNewestFirst) {
  // Pick a person with at least 2 snapshot posts.
  std::map<int64_t, std::vector<const snb::Post*>> by_creator;
  for (const auto& p : SharedDataset().posts) {
    by_creator[p.creator].push_back(&p);
  }
  for (auto& [creator, posts] : by_creator) {
    if (posts.size() < 2) continue;
    auto r = sut_->RecentPosts(creator, 5);
    ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
    ASSERT_GE(r->rows.size(), 2u) << sut_->name();
    ASSERT_LE(r->rows.size(), 5u) << sut_->name();
    // Newest first.
    for (size_t i = 1; i < r->rows.size(); ++i) {
      EXPECT_GE(r->rows[i - 1][2].as_int(), r->rows[i][2].as_int())
          << sut_->name();
    }
    // Every returned post belongs to the creator.
    std::set<int64_t> owned;
    for (const auto* p : posts) owned.insert(p->id);
    for (const Row& row : r->rows) {
      EXPECT_TRUE(owned.count(row[0].as_int())) << sut_->name();
    }
    break;  // one creator suffices
  }
}

TEST_P(SutEquivalenceTest, FriendsWithNameMatchesDataset) {
  // Build a reference: (person, first name) -> friend ids with that name.
  std::map<int64_t, std::string> name_of;
  for (const auto& p : SharedDataset().persons) name_of[p.id] = p.first_name;
  int checked = 0;
  for (size_t i = 0; i < SharedDataset().persons.size() && checked < 6;
       i += 9) {
    int64_t id = SharedDataset().persons[i].id;
    std::set<int64_t> friends = RefNeighbors(id);
    if (friends.empty()) continue;
    std::string target_name = name_of[*friends.begin()];
    std::set<int64_t> expected;
    for (int64_t f : friends) {
      if (name_of[f] == target_name) expected.insert(f);
    }
    auto r = sut_->FriendsWithName(id, target_name);
    ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
    EXPECT_EQ(ColumnAsSet(*r, 0), expected)
        << sut_->name() << " person " << id << " name " << target_name;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_P(SutEquivalenceTest, RepliesOfPostMatchesDataset) {
  // Reference: post -> set of direct reply comment ids.
  std::map<int64_t, std::set<int64_t>> replies;
  std::map<int64_t, int64_t> creator_of;
  for (const auto& c : SharedDataset().comments) {
    if (c.reply_of_post >= 0) replies[c.reply_of_post].insert(c.id);
    creator_of[c.id] = c.creator;
  }
  int checked = 0;
  for (const auto& [post, expected] : replies) {
    auto r = sut_->RepliesOfPost(post);
    ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
    EXPECT_EQ(ColumnAsSet(*r, 0), expected)
        << sut_->name() << " post " << post;
    // Creator column must match the dataset.
    for (const Row& row : r->rows) {
      EXPECT_EQ(row[2].as_int(), creator_of[row[0].as_int()])
          << sut_->name();
    }
    if (++checked == 5) break;
  }
  EXPECT_GT(checked, 0);
  // A post with no replies returns empty (pick an unused id).
  auto none = sut_->RepliesOfPost(987654321);
  ASSERT_TRUE(none.ok()) << sut_->name();
  EXPECT_TRUE(none->rows.empty()) << sut_->name();
}

TEST_P(SutEquivalenceTest, TopPostersMatchesDataset) {
  // Reference: post counts per creator, ordered count desc then id asc.
  std::map<int64_t, int64_t> counts;
  for (const auto& p : SharedDataset().posts) ++counts[p.creator];
  std::vector<std::pair<int64_t, int64_t>> ranked(counts.begin(),
                                                  counts.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return a.second > b.second;
                     return a.first < b.first;
                   });
  const int64_t limit = 5;
  auto r = sut_->TopPosters(limit);
  ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
  ASSERT_EQ(r->rows.size(),
            std::min<size_t>(size_t(limit), ranked.size()))
      << sut_->name();
  for (size_t i = 0; i < r->rows.size(); ++i) {
    EXPECT_EQ(r->rows[i][0].as_int(), ranked[i].first)
        << sut_->name() << " rank " << i;
    EXPECT_EQ(r->rows[i][1].as_int(), ranked[i].second)
        << sut_->name() << " rank " << i;
  }
}

TEST_P(SutEquivalenceTest, UpdateStreamAppliesAndBecomesVisible) {
  const auto& stream = SharedDataset().update_stream;
  ASSERT_FALSE(stream.empty());
  size_t applied = 0;
  for (const auto& op : stream) {
    Status s = sut_->Apply(op);
    ASSERT_TRUE(s.ok()) << sut_->name() << " op kind "
                        << int(op.kind) << ": " << s.ToString();
    ++applied;
  }
  EXPECT_EQ(applied, stream.size());

  // New persons and friendships are queryable.
  for (const auto& op : stream) {
    if (op.kind == snb::UpdateOp::Kind::kAddPerson) {
      auto r = sut_->PointLookup(op.person.id);
      ASSERT_TRUE(r.ok()) << sut_->name();
      ASSERT_EQ(r->rows.size(), 1u) << sut_->name();
      EXPECT_EQ(r->rows[0][0].as_string(), op.person.first_name);
      break;
    }
  }
  for (const auto& op : stream) {
    if (op.kind == snb::UpdateOp::Kind::kAddFriendship) {
      auto r = sut_->OneHop(op.knows.person1);
      ASSERT_TRUE(r.ok()) << sut_->name();
      EXPECT_TRUE(ColumnAsSet(*r, 0).count(op.knows.person2))
          << sut_->name();
      break;
    }
  }
}

TEST_P(SutEquivalenceTest, BoundNameWithQuoteFindsNewFriend) {
  // A first name containing a quote must bind as a parameter, never be
  // pasted into the statement text where it would break the parse.
  const auto& persons = SharedDataset().persons;
  int64_t max_id = 0;
  for (const auto& p : persons) max_id = std::max(max_id, p.id);
  snb::UpdateOp add_person;
  add_person.kind = snb::UpdateOp::Kind::kAddPerson;
  add_person.person = persons.front();
  add_person.person.id = max_id + 1;
  add_person.person.first_name = "D'Arcy";
  ASSERT_TRUE(sut_->Apply(add_person).ok()) << sut_->name();

  const int64_t friend_id = persons.back().id;
  snb::UpdateOp add_friend;
  add_friend.kind = snb::UpdateOp::Kind::kAddFriendship;
  add_friend.knows.person1 = friend_id;
  add_friend.knows.person2 = add_person.person.id;
  add_friend.knows.creation_date = add_person.person.creation_date + 1;
  ASSERT_TRUE(sut_->Apply(add_friend).ok()) << sut_->name();

  auto r = sut_->FriendsWithName(friend_id, "D'Arcy");
  ASSERT_TRUE(r.ok()) << sut_->name() << ": " << r.status().ToString();
  EXPECT_EQ(ColumnAsSet(*r, 0), std::set<int64_t>{add_person.person.id})
      << sut_->name();
}

TEST_P(SutEquivalenceTest, SizeBytesIsPositiveAfterLoad) {
  EXPECT_GT(sut_->SizeBytes(), 0u) << sut_->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllSuts, SutEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(AllSutKinds()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<SutKind, bool>>& info) {
      std::string name = SutKindName(std::get<0>(info.param));
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      out += std::get<1>(info.param) ? "PlanCache" : "ParsePerCall";
      return out;
    });

}  // namespace
}  // namespace graphbench
