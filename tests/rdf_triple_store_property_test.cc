// Oracle for the triple store's B+-tree indexes: random Insert, Remove and
// Match against a brute-force std::set of triples, for every index count
// (1-4) and all eight bound/unbound patterns. The stores grow past three
// tree levels, lose whole leaves' worth of keys (a contiguous key range in
// one index's order) and refill them. A last case runs readers beside one
// writer; under TSan it also proves the store's locking clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "engines/rdf/triple_store.h"
#include "util/random.h"

namespace graphbench {
namespace {

using Key = std::array<uint64_t, 3>;

// More keys than two levels can hold: a root with kNodeKeys + 1 children,
// each a full leaf. Every index holds every triple, so each index's tree
// reaches at least three levels.
constexpr size_t kTriples = 12000;
static_assert(kTriples > (TripleIndex::kNodeKeys + 1) * TripleIndex::kNodeKeys);

constexpr uint64_t kSubjects = 3000;
constexpr uint64_t kPredicates = 6;
constexpr uint64_t kObjects = 3000;

std::vector<Key> Sorted(const std::vector<Triple>& triples) {
  std::vector<Key> keys;
  for (const Triple& t : triples) keys.push_back({t.s, t.p, t.o});
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<Key> OracleMatch(const std::set<Key>& oracle, uint64_t s,
                             uint64_t p, uint64_t o) {
  std::vector<Key> keys;
  for (const Key& k : oracle) {
    if ((s == kWildcard || k[0] == s) && (p == kWildcard || k[1] == p) &&
        (o == kWildcard || k[2] == o)) {
      keys.push_back(k);
    }
  }
  return keys;
}

class Harness {
 public:
  Harness(int num_indexes, uint64_t seed)
      : store_(num_indexes), rng_(seed), num_indexes_(num_indexes) {}

  void Insert(uint64_t s, uint64_t p, uint64_t o) {
    bool fresh = oracle_.insert({s, p, o}).second;
    Status st = store_.Insert(s, p, o);
    EXPECT_TRUE(fresh ? st.ok() : st.IsAlreadyExists()) << st.ToString();
  }
  void InsertRandom() {
    Insert(rng_.Uniform(kSubjects), rng_.Uniform(kPredicates),
           rng_.Uniform(kObjects));
  }
  // By value: `k` may be the oracle's own element, which erase frees.
  void Remove(Key k) {
    bool present = oracle_.erase(k) > 0;
    Status st = store_.Remove(k[0], k[1], k[2]);
    EXPECT_TRUE(present ? st.ok() : st.IsNotFound()) << st.ToString();
  }
  // Removes every stored triple `pred` accepts.
  template <typename Pred>
  void RemoveAll(Pred pred) {
    std::vector<Key> doomed;
    for (const Key& k : oracle_) {
      if (pred(k)) doomed.push_back(k);
    }
    for (const Key& k : doomed) Remove(k);
  }

  // One Match with bound positions `mask` (bit 0 = s, 1 = p, 2 = o),
  // taking bound values from a stored triple or, one time in four, from
  // anywhere in the domain.
  void CheckMatch(int mask) {
    Key from = {rng_.Uniform(kSubjects), rng_.Uniform(kPredicates),
                rng_.Uniform(kObjects)};
    if (!oracle_.empty() && rng_.Uniform(4) != 0) {
      auto it = oracle_.lower_bound(from);
      from = it == oracle_.end() ? *oracle_.begin() : *it;
    }
    uint64_t s = mask & 1 ? from[0] : kWildcard;
    uint64_t p = mask & 2 ? from[1] : kWildcard;
    uint64_t o = mask & 4 ? from[2] : kWildcard;
    std::vector<Triple> out = {Triple{7, 7, 7}};  // Match appends
    store_.Match(s, p, o, &out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), (Triple{7, 7, 7}));
    out.erase(out.begin());
    EXPECT_EQ(Sorted(out), OracleMatch(oracle_, s, p, o))
        << "indexes=" << num_indexes_ << " mask=" << mask;
    EXPECT_EQ(store_.Contains(from[0], from[1], from[2]),
              oracle_.count(from) > 0);
  }
  void CheckAllPatterns(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int mask = 0; mask < 8; ++mask) CheckMatch(mask);
    }
    EXPECT_EQ(store_.size(), oracle_.size());
  }

  const std::set<Key>& oracle() const { return oracle_; }
  TripleStore& store() { return store_; }
  Rng& rng() { return rng_; }

 private:
  TripleStore store_;
  std::set<Key> oracle_;
  Rng rng_;
  int num_indexes_;
};

TEST(TripleStoreOracleTest, RandomOpsMatchBruteForce) {
  for (int n = 1; n <= 4; ++n) {
    Harness h(n, 100 + uint64_t(n));
    // Grow with interleaved checks and the odd removal.
    while (h.oracle().size() < kTriples) {
      for (int i = 0; i < 200; ++i) h.InsertRandom();
      auto victim = h.oracle().lower_bound(
          {h.rng().Uniform(kSubjects), 0, 0});
      if (victim != h.oracle().end()) h.Remove(*victim);
      h.Remove({kSubjects + 1, 0, 0});  // never present: NotFound
      h.CheckAllPatterns(1);
    }
    // Re-inserting what is there is AlreadyExists everywhere.
    for (int i = 0; i < 50; ++i) {
      auto it = h.oracle().lower_bound({h.rng().Uniform(kSubjects), 0, 0});
      if (it != h.oracle().end()) h.Insert((*it)[0], (*it)[1], (*it)[2]);
    }
    h.CheckAllPatterns(20);

    // Empty whole leaves: a contiguous run of subjects (SPO, OSP's
    // neighbours), one predicate (POS and PSO) and a run of objects (OSP).
    h.RemoveAll([](const Key& k) { return k[0] >= 500 && k[0] < 1500; });
    h.CheckAllPatterns(20);
    h.RemoveAll([](const Key& k) { return k[1] == 2; });
    h.CheckAllPatterns(20);
    h.RemoveAll([](const Key& k) { return k[2] >= 2000 && k[2] < 2600; });
    h.CheckAllPatterns(20);

    // Refill the emptied ranges, then drain everything and start again.
    for (uint64_t s = 500; s < 1500; ++s) {
      h.Insert(s, 2, h.rng().Uniform(kObjects));
    }
    h.CheckAllPatterns(20);
    h.RemoveAll([](const Key&) { return true; });
    EXPECT_EQ(h.store().size(), 0u);
    h.CheckAllPatterns(5);
    for (int i = 0; i < 500; ++i) h.InsertRandom();
    h.CheckAllPatterns(10);
  }
}

TEST(TripleStoreOracleTest, ReadersBesideOneWriterSeeConsistentIndexes) {
  // Subjects below kStable hold fixed triples the writer never touches;
  // the writer churns the rest. A reader must see every stable triple, in
  // every index, whatever the writer is doing.
  constexpr uint64_t kStable = 200;
  constexpr uint64_t kPred = 1;
  TripleStore store(4);
  for (uint64_t s = 0; s < kStable; ++s) {
    ASSERT_TRUE(store.Insert(s, kPred, s + 1).ok());
    ASSERT_TRUE(store.Insert(s, kPred + 1, s).ok());
  }
  std::atomic<bool> done{false};
  std::atomic<long> bad{0};
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<Triple> out;
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t s = rng.Uniform(kStable);
      out.clear();
      store.Match(s, kWildcard, kWildcard, &out);  // SPO
      bool spo = std::count(out.begin(), out.end(), Triple{s, kPred, s + 1}) ==
                 1;
      out.clear();
      store.Match(kWildcard, kPred, s + 1, &out);  // POS
      bool pos = std::count(out.begin(), out.end(), Triple{s, kPred, s + 1}) ==
                 1;
      out.clear();
      store.Match(kWildcard, kWildcard, s, &out);  // OSP
      bool osp = std::count(out.begin(), out.end(),
                            Triple{s, kPred + 1, s}) == 1;
      if (!spo || !pos || !osp || !store.Contains(s, kPred, s + 1)) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread r1(reader, 1), r2(reader, 2);
  Rng rng(3);
  std::vector<Key> churn;
  for (int op = 0; op < 20000; ++op) {
    if (churn.empty() || rng.Uniform(3) != 0) {
      Key k = {kStable + rng.Uniform(2000), rng.Uniform(4),
               rng.Uniform(2000)};
      if (store.Insert(k[0], k[1], k[2]).ok()) churn.push_back(k);
    } else {
      size_t i = size_t(rng.Uniform(churn.size()));
      EXPECT_TRUE(store.Remove(churn[i][0], churn[i][1], churn[i][2]).ok());
      churn[i] = churn.back();
      churn.pop_back();
    }
  }
  done = true;
  r1.join();
  r2.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(store.size(), 2 * kStable + churn.size());
}

}  // namespace
}  // namespace graphbench
