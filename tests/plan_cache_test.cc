// Tests for the text-keyed LRU plan cache and the Execute(text, params)
// lifecycle it backs: eviction order, hit/miss accounting, plan lifetime
// across eviction, and — per engine — row-for-row equivalence between a
// cache-on and a cache-off engine, parse errors that never enter the
// cache, plus concurrent Execute from reader threads under eviction churn
// (exercised under the sanitizer CI configuration).

#include "lang/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engines/native/cypher_engine.h"
#include "engines/rdf/rdf_engine.h"
#include "engines/relational/database.h"

namespace graphbench {
namespace {

struct FakePlan {
  int id = 0;
};

std::shared_ptr<const FakePlan> Plan(int id) {
  return std::make_shared<const FakePlan>(FakePlan{id});
}

TEST(PlanCacheTest, LookupCountsMissThenHit) {
  lang::PlanCache<FakePlan> cache("test", 4);
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  cache.Insert("q", Plan(7));
  auto hit = cache.Lookup("q");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 7);
  lang::PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedInOrder) {
  lang::PlanCache<FakePlan> cache("test", 2);
  cache.Insert("a", Plan(1));
  cache.Insert("b", Plan(2));
  cache.Insert("c", Plan(3));  // evicts a (oldest)
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  cache.Insert("d", Plan(4));  // evicts b, not c
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_TRUE(cache.Contains("d"));
  EXPECT_EQ(cache.Stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, LookupPromotesAgainstEviction) {
  lang::PlanCache<FakePlan> cache("test", 2);
  cache.Insert("a", Plan(1));
  cache.Insert("b", Plan(2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // a is now most recent
  cache.Insert("c", Plan(3));             // so b goes, not a
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
}

TEST(PlanCacheTest, ContainsTouchesNeitherLruNorCounters) {
  lang::PlanCache<FakePlan> cache("test", 2);
  cache.Insert("a", Plan(1));
  cache.Insert("b", Plan(2));
  EXPECT_TRUE(cache.Contains("a"));  // must NOT promote a
  cache.Insert("c", Plan(3));
  EXPECT_FALSE(cache.Contains("a"));
  lang::PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.0);
}

TEST(PlanCacheTest, InsertReplacesWithoutEviction) {
  lang::PlanCache<FakePlan> cache("test", 2);
  cache.Insert("q", Plan(1));
  cache.Insert("q", Plan(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  auto p = cache.Lookup("q");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id, 2);
}

TEST(PlanCacheTest, EvictedPlanOutlivesEvictionWhileHeld) {
  lang::PlanCache<FakePlan> cache("test", 1);
  cache.Insert("a", Plan(42));
  std::shared_ptr<const FakePlan> held = cache.Lookup("a");
  ASSERT_NE(held, nullptr);
  cache.Insert("b", Plan(43));  // evicts a while we still hold its plan
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_EQ(held->id, 42);
}

TEST(PlanCacheTest, ZeroCapacityClampsToOne) {
  lang::PlanCache<FakePlan> cache("test", 0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.Insert("a", Plan(1));
  EXPECT_TRUE(cache.Contains("a"));
}

TEST(PlanCacheTest, ConcurrentLookupInsertChurn) {
  // More live keys than capacity, hammered from several threads: every
  // hit must return the plan inserted for that key even while other
  // threads trigger evictions.
  lang::PlanCache<FakePlan> cache("test", 4);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  constexpr int kKeys = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        int k = (t * 31 + i) % kKeys;
        std::string key = "stmt-" + std::to_string(k);
        auto plan = cache.Lookup(key);
        if (plan == nullptr) {
          cache.Insert(key, Plan(k));
        } else {
          EXPECT_EQ(plan->id, k);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  lang::PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, uint64_t(kThreads) * kIters);
  EXPECT_LE(stats.size, 4u);
}

// ---------------------------------------------------------------------
// Engine-level lifecycle: a cache-on engine must return exactly what a
// cache-off engine returns, a text that fails to parse must never enter
// the cache, and Execute must start hitting the cache once it is enabled.

std::multiset<int64_t> IntColumn(const QueryResult& r, size_t col) {
  std::multiset<int64_t> out;
  for (const Row& row : r.rows) out.insert(row[col].as_int());
  return out;
}

void ExpectSameRows(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t r = 0; r < a.rows.size(); ++r) {
    EXPECT_TRUE(a.rows[r] == b.rows[r]) << "row " << r;
  }
}

class SqlPlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakePopulated(/*plan_cache=*/false);
    cached_db_ = MakePopulated(/*plan_cache=*/true);
  }

  static std::unique_ptr<Database> MakePopulated(bool plan_cache) {
    auto db = std::make_unique<Database>(StorageMode::kRow);
    if (plan_cache) db->EnablePlanCache(8);
    EXPECT_TRUE(db->CreateTable(TableSchema(
                       "person", {{"id", Value::Type::kInt},
                                  {"firstName", Value::Type::kString},
                                  {"lastName", Value::Type::kString}}))
                    .ok());
    EXPECT_TRUE(db->CreateTable(TableSchema(
                       "knows", {{"person1Id", Value::Type::kInt},
                                 {"person2Id", Value::Type::kInt}}))
                    .ok());
    EXPECT_TRUE(db->CreateIndex("person", "id", true).ok());
    EXPECT_TRUE(db->CreateIndex("knows", "person1Id", false).ok());
    const char* names[][2] = {{"Ada", "L"}, {"Bob", "M"}, {"Cy", "N"},
                              {"Dee", "O"}, {"Eve", "P"}};
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(db->Execute("INSERT INTO person (id, firstName, lastName)"
                              " VALUES (?, ?, ?)",
                              {Value(i + 1), Value(names[i][0]),
                               Value(names[i][1])})
                      .ok());
    }
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}}) {
      EXPECT_TRUE(db->Execute("INSERT INTO knows (person1Id, person2Id)"
                              " VALUES (?, ?)",
                              {Value(a), Value(b)})
                      .ok());
    }
    return db;
  }

  std::unique_ptr<Database> db_;         // parse per call
  std::unique_ptr<Database> cached_db_;  // same rows, plan cache on
};

TEST_F(SqlPlanCacheTest, CacheOnMatchesCacheOffRowForRow) {
  const std::vector<std::string> texts = {
      "SELECT firstName, lastName FROM person WHERE id = ?",
      "SELECT person2Id FROM knows WHERE person1Id = ? ORDER BY person2Id",
      "SELECT id FROM person WHERE id <> ? ORDER BY id LIMIT ?",
  };
  for (int id = 1; id <= 5; ++id) {
    for (const std::string& text : texts) {
      std::vector<Value> params = {Value(id)};
      if (text.find("LIMIT ?") != std::string::npos) params.push_back(Value(2));
      auto parsed = db_->Execute(text, params);
      auto cached = cached_db_->Execute(text, params);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      SCOPED_TRACE(text + " id " + std::to_string(id));
      ExpectSameRows(*cached, *parsed);
    }
  }
  EXPECT_GT(cached_db_->plan_cache_stats().hits, 0u);
}

TEST_F(SqlPlanCacheTest, StringExecuteRidesTheCacheOnceEnabled) {
  db_->EnablePlanCache(8);
  const char* kLookup = "SELECT firstName FROM person WHERE id = ?";
  ASSERT_TRUE(db_->Execute(kLookup, {Value(1)}).ok());  // parses + caches
  ASSERT_TRUE(db_->Execute(kLookup, {Value(2)}).ok());  // cache hit
  lang::PlanCacheStats stats = db_->plan_cache_stats();
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST_F(SqlPlanCacheTest, ParseErrorIsReturnedAndNeverCached) {
  lang::PlanCacheStats before = cached_db_->plan_cache_stats();
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(cached_db_->Execute("SELECT FROM WHERE").ok());
  }
  lang::PlanCacheStats after = cached_db_->plan_cache_stats();
  EXPECT_EQ(after.size, before.size);
  EXPECT_EQ(after.misses, before.misses + 2);  // re-parsed, never a hit
  EXPECT_EQ(after.hits, before.hits);
}

TEST_F(SqlPlanCacheTest, ConcurrentExecuteUnderEvictionChurn) {
  // Capacity below the statement-text count keeps the cache evicting
  // while reader threads execute the texts — the exact sharing pattern
  // the driver's reader pool produces. An evicted text re-parses.
  db_->EnablePlanCache(2);
  const std::vector<std::string> texts = {
      "SELECT firstName FROM person WHERE id = ?",
      "SELECT lastName FROM person WHERE id = ?",
      "SELECT person2Id FROM knows WHERE person1Id = ?",
      "SELECT id FROM person WHERE id = ?",
  };
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        int id = (t + i) % 5 + 1;
        EXPECT_TRUE(db_->Execute(texts[0], {Value(id)}).ok());
        const std::string& text = texts[(t + i) % texts.size()];
        EXPECT_TRUE(db_->Execute(text, {Value(id)}).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  lang::PlanCacheStats stats = db_->plan_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, uint64_t(kThreads) * kIters * 2);
}

class CypherPlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(graph_.CreateUniqueIndex("Person", "id").ok());
    const char* names[] = {"Ada", "Bob", "Cy", "Dee", "Eve"};
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(engine_
                      .Execute("CREATE (p:Person {id: $id, firstName: $fn})",
                               {{"id", Value(i)}, {"fn", Value(names[i - 1])}})
                      .ok());
    }
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}}) {
      ASSERT_TRUE(engine_
                      .Execute("MATCH (a:Person {id: $a}), (b:Person {id: $b})"
                               " CREATE (a)-[:KNOWS]->(b)",
                               {{"a", Value(a)}, {"b", Value(b)}})
                      .ok());
    }
  }

  NativeGraph graph_;
  CypherEngine engine_{&graph_};
};

TEST_F(CypherPlanCacheTest, CacheOnMatchesCacheOffRowForRow) {
  // A second engine over the same store, with the cache on.
  CypherEngine cached(&graph_);
  cached.EnablePlanCache(8);
  const std::vector<std::string> texts = {
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f) RETURN f.id",
      "MATCH (p:Person {id: $id}) RETURN p.firstName",
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f) RETURN f.id, f.firstName "
      "ORDER BY f.id LIMIT $limit",
  };
  for (int id = 1; id <= 5; ++id) {
    CypherEngine::Params params = {{"id", Value(id)}, {"limit", Value(1)}};
    for (const std::string& text : texts) {
      auto parsed = engine_.Execute(text, params);
      auto bound = cached.Execute(text, params);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      SCOPED_TRACE(text + " id " + std::to_string(id));
      ExpectSameRows(*bound, *parsed);
    }
  }
  EXPECT_GT(cached.plan_cache_stats().hits, 0u);
}

TEST_F(CypherPlanCacheTest, StringExecuteRidesTheCacheOnceEnabled) {
  engine_.EnablePlanCache(8);
  const char* kLookup = "MATCH (p:Person {id: $id}) RETURN p.firstName";
  ASSERT_TRUE(engine_.Execute(kLookup, {{"id", Value(1)}}).ok());
  ASSERT_TRUE(engine_.Execute(kLookup, {{"id", Value(2)}}).ok());
  lang::PlanCacheStats stats = engine_.plan_cache_stats();
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST_F(CypherPlanCacheTest, ParseErrorIsReturnedAndNeverCached) {
  engine_.EnablePlanCache(8);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(engine_.Execute("MATCH (p RETURN p.id").ok());
  }
  lang::PlanCacheStats stats = engine_.plan_cache_stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(CypherPlanCacheTest, ConcurrentExecuteUnderEvictionChurn) {
  engine_.EnablePlanCache(2);
  const std::vector<std::string> texts = {
      "MATCH (p:Person {id: $id}) RETURN p.firstName",
      "MATCH (p:Person {id: $id}) RETURN p.id",
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f) RETURN f.id",
      "MATCH (p:Person {id: $id})-[:KNOWS]-(f) RETURN f.firstName",
  };
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        CypherEngine::Params params = {{"id", Value((t + i) % 5 + 1)}};
        EXPECT_TRUE(engine_.Execute(texts[2], params).ok());
        const std::string& text = texts[(t + i) % texts.size()];
        EXPECT_TRUE(engine_.Execute(text, params).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  lang::PlanCacheStats stats = engine_.plan_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, uint64_t(kThreads) * kIters * 2);
}

class SparqlPlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* names[] = {"Ada", "Bob", "Cy", "Dee", "Eve"};
    for (int i = 1; i <= 5; ++i) {
      std::string iri = "person:" + std::to_string(i);
      ASSERT_TRUE(engine_
                      .AddTriple(Term::Iri(iri), "rdf:type",
                                 Term::Iri("snb:Person"))
                      .ok());
      ASSERT_TRUE(engine_
                      .AddTriple(Term::Iri(iri), "snb:id",
                                 Term::Literal(Value(i)))
                      .ok());
      ASSERT_TRUE(engine_
                      .AddTriple(Term::Iri(iri), "snb:firstName",
                                 Term::Literal(Value(names[i - 1])))
                      .ok());
    }
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}}) {
      ASSERT_TRUE(engine_
                      .AddTriple(Term::Iri("person:" + std::to_string(a)),
                                 "snb:knows",
                                 Term::Iri("person:" + std::to_string(b)))
                      .ok());
    }
  }

  RdfEngine engine_;
};

TEST_F(SparqlPlanCacheTest, NamedParamsMatchInlinedConstants) {
  // The parameterized text carries a $person_id placeholder where the
  // pasted-in text inlines the constant; both resolve to the same terms.
  const char* kParameterized =
      "SELECT ?fid WHERE { ?p snb:id $person_id . ?p snb:knows ?f . "
      "?f snb:id ?fid }";
  for (int id = 1; id <= 5; ++id) {
    auto bound = engine_.Execute(kParameterized, {{"person_id", Value(id)}});
    auto parsed = engine_.Execute(
        "SELECT ?fid WHERE { ?p snb:id " + std::to_string(id) +
        " . ?p snb:knows ?f . ?f snb:id ?fid }");
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(IntColumn(*bound, 0), IntColumn(*parsed, 0)) << "id " << id;
  }
}

TEST_F(SparqlPlanCacheTest, StringExecuteRidesTheCacheOnceEnabled) {
  engine_.EnablePlanCache(8);
  const char* kLookup =
      "SELECT ?fn WHERE { ?p snb:id 3 . ?p snb:firstName ?fn }";
  ASSERT_TRUE(engine_.Execute(kLookup).ok());
  ASSERT_TRUE(engine_.Execute(kLookup).ok());
  lang::PlanCacheStats stats = engine_.plan_cache_stats();
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST_F(SparqlPlanCacheTest, ParseErrorIsReturnedAndNeverCached) {
  engine_.EnablePlanCache(8);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(engine_.Execute("SELECT WHERE { ?a ?b ?c }").ok());
  }
  lang::PlanCacheStats stats = engine_.plan_cache_stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(SparqlPlanCacheTest, ConcurrentExecuteUnderEvictionChurn) {
  engine_.EnablePlanCache(2);
  const std::vector<std::string> texts = {
      "SELECT ?fn WHERE { ?p snb:id $person_id . ?p snb:firstName ?fn }",
      "SELECT ?fid WHERE { ?p snb:id $person_id . ?p snb:knows ?f . "
      "?f snb:id ?fid }",
      "SELECT ?p WHERE { ?p snb:id $person_id }",
  };
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        RdfEngine::Params params = {{"person_id", Value((t + i) % 5 + 1)}};
        EXPECT_TRUE(engine_.Execute(texts[0], params).ok());
        const std::string& text = texts[(t + i) % texts.size()];
        EXPECT_TRUE(engine_.Execute(text, params).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  lang::PlanCacheStats stats = engine_.plan_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, uint64_t(kThreads) * kIters * 2);
}

}  // namespace
}  // namespace graphbench
