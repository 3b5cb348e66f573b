#include "engines/rdf/rdf_engine.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "allocation_counter.h"
#include "lang/sparql/parser.h"
#include "numbered.h"
#include "workload_statements.h"

namespace graphbench {
namespace {

class RdfEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Tiny SNB-ish graph: persons 1..5, knows chain 1-2-3-4-5 plus 1-3.
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

TEST_F(RdfEngineTest, PointLookup) {
  auto r = engine_.Execute(
      "SELECT ?fn WHERE { ?p snb:id 3 . ?p snb:firstName ?fn }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_string(), "Cy");
}

TEST_F(RdfEngineTest, PredicateObjectListSyntax) {
  auto r = engine_.Execute(
      "SELECT ?fn WHERE { ?p snb:id 2 ; snb:firstName ?fn . }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_string(), "Bob");
}

TEST_F(RdfEngineTest, OneHopOutgoing) {
  auto r = engine_.Execute(
      "SELECT ?fid WHERE { ?p snb:id 1 . ?p snb:knows ?f . ?f snb:id ?fid } "
      "ORDER BY ?fid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].as_int(), 2);
  EXPECT_EQ(r->rows[1][0].as_int(), 3);
}

TEST_F(RdfEngineTest, TwoHopDistinctWithFilter) {
  auto r = engine_.Execute(
      "SELECT DISTINCT ?ffid WHERE { ?p snb:id 1 . ?p snb:knows ?f . "
      "?f snb:knows ?ff . FILTER(?ff != ?p) . ?ff snb:id ?ffid } "
      "ORDER BY ?ffid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);  // 3 (via 2), 4 (via 3)
  EXPECT_EQ(r->rows[0][0].as_int(), 3);
  EXPECT_EQ(r->rows[1][0].as_int(), 4);
}

TEST_F(RdfEngineTest, ShortestPathExtension) {
  auto r = engine_.Execute(
      "SELECT (shortestPath(?a, ?b, snb:knows) AS ?d) "
      "WHERE { ?a snb:id 1 . ?b snb:id 5 }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 3);  // 1-3-4-5
  EXPECT_EQ(r->columns[0], "d");
}

TEST_F(RdfEngineTest, ShortestPathUnreachableAndSelf) {
  ASSERT_TRUE(engine_
                  .AddTriple(Term::Iri("person:9"), "snb:id",
                             Term::Literal(Value(9)))
                  .ok());
  auto r = engine_.Execute(
      "SELECT (shortestPath(?a, ?b, snb:knows) AS ?d) "
      "WHERE { ?a snb:id 1 . ?b snb:id 9 }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].as_int(), -1);

  auto self = engine_.Execute(
      "SELECT (shortestPath(?a, ?b, snb:knows) AS ?d) "
      "WHERE { ?a snb:id 2 . ?b snb:id 2 }");
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->rows[0][0].as_int(), 0);
}

TEST_F(RdfEngineTest, UnknownConstantGivesEmptyResult) {
  auto r = engine_.Execute("SELECT ?x WHERE { ?x snb:id 999 }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  auto r2 = engine_.Execute("SELECT ?x WHERE { ?x snb:nonexistent ?y }");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->rows.empty());
}

TEST_F(RdfEngineTest, OverlongNumberIsAnError) {
  EXPECT_TRUE(engine_.Execute("SELECT ?x WHERE { ?x snb:id "
                              "99999999999999999999999 }")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine_.Execute("SELECT ?x WHERE { ?x snb:id 1.2.3 }")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RdfEngineTest, TypeScanReturnsAllPersons) {
  auto r = engine_.Execute(
      "SELECT ?id WHERE { ?p rdf:type snb:Person . ?p snb:id ?id } "
      "ORDER BY DESC(?id) LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].as_int(), 5);
  EXPECT_EQ(r->rows[2][0].as_int(), 3);
}

TEST_F(RdfEngineTest, DuplicateTripleInsertIsIdempotent) {
  uint64_t before = engine_.TripleCount();
  ASSERT_TRUE(engine_
                  .AddTriple(Term::Iri("person:1"), "snb:knows",
                             Term::Iri("person:2"))
                  .ok());
  EXPECT_EQ(engine_.TripleCount(), before);
}

TEST_F(RdfEngineTest, CountWithGroupBy) {
  // Friend count per person over the whole graph.
  auto r = engine_.Execute(
      "SELECT ?pid (COUNT(?f) AS ?n) WHERE { "
      "?p snb:knows ?f . ?p snb:id ?pid } "
      "GROUP BY ?pid ORDER BY DESC(?n) ?pid LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  // knows stored one direction here: out-degrees 1:{2,3}=2, 2:{3}=1,
  // 3:{4}=1, 4:{5}=1.
  EXPECT_EQ(r->rows[0][0].as_int(), 1);
  EXPECT_EQ(r->rows[0][1].as_int(), 2);
  EXPECT_EQ(r->rows[1][1].as_int(), 1);
}

TEST_F(RdfEngineTest, GlobalCount) {
  auto r = engine_.Execute(
      "SELECT (COUNT(?p) AS ?n) WHERE { ?p rdf:type snb:Person }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 5);

  auto empty = engine_.Execute(
      "SELECT (COUNT(?p) AS ?n) WHERE { ?p rdf:type snb:Spaceship }");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->rows[0][0].as_int(), 0);
}

TEST_F(RdfEngineTest, ProjectionOutsideGroupByRejected) {
  auto r = engine_.Execute(
      "SELECT ?pid (COUNT(?f) AS ?n) WHERE { "
      "?p snb:knows ?f . ?p snb:id ?pid } GROUP BY ?other");
  EXPECT_FALSE(r.ok());
}

TEST_F(RdfEngineTest, ParserRejectsMalformedQueries) {
  EXPECT_FALSE(engine_.Execute("SELECT WHERE { ?a ?b ?c }").ok());
  EXPECT_FALSE(engine_.Execute("SELECT ?x { ?x snb:id 1 }").ok());
  EXPECT_FALSE(engine_.Execute("SELECT ?x WHERE { ?x snb:id }").ok());
  EXPECT_FALSE(
      engine_.Execute("SELECT ?x WHERE { ?x snb:id 1 } LIMIT ?x").ok());
  EXPECT_FALSE(engine_.Execute(
                       "SELECT ?y WHERE { ?x snb:id 1 }")
                   .ok());  // unknown projection var
}

TEST_F(RdfEngineTest, RepeatedVariableInOnePatternBindsEqualValues) {
  // No person knows itself, so ?x snb:knows ?x has no solution.
  auto none = engine_.Execute("SELECT ?x WHERE { ?x snb:knows ?x }");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->rows.empty());

  ASSERT_TRUE(engine_
                  .AddTriple(Term::Iri("person:2"), "snb:knows",
                             Term::Iri("person:2"))
                  .ok());
  auto loop = engine_.Execute("SELECT ?x WHERE { ?x snb:knows ?x }");
  ASSERT_TRUE(loop.ok()) << loop.status().ToString();
  ASSERT_EQ(loop->rows.size(), 1u);
  EXPECT_EQ(loop->rows[0][0].as_string(), "person:2");

  // The same, with ?x bound by an earlier pattern.
  for (int id : {1, 2}) {
    auto bound = engine_.Execute(
        "SELECT ?x WHERE { ?x snb:id $id . ?x snb:knows ?x }",
        {{"id", Value(id)}});
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    EXPECT_EQ(bound->rows.size(), id == 2 ? 1u : 0u) << id;
  }
}

TEST(TripleStoreTest, MatchUsesAllBoundCombinations) {
  TripleStore store(4);
  ASSERT_TRUE(store.Insert(1, 10, 100).ok());
  ASSERT_TRUE(store.Insert(1, 10, 101).ok());
  ASSERT_TRUE(store.Insert(2, 10, 100).ok());
  ASSERT_TRUE(store.Insert(1, 11, 100).ok());

  std::vector<Triple> out;
  out.clear();
  store.Match(1, kWildcard, kWildcard, &out);
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  store.Match(kWildcard, 10, kWildcard, &out);
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  store.Match(kWildcard, kWildcard, 100, &out);
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  store.Match(kWildcard, 10, 100, &out);
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  store.Match(1, 10, 100, &out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  store.Match(kWildcard, kWildcard, kWildcard, &out);
  EXPECT_EQ(out.size(), 4u);
  out.clear();
  store.Match(5, kWildcard, kWildcard, &out);
  EXPECT_TRUE(out.empty());
}

TEST(TripleStoreTest, ReducedIndexConfigurationsStayCorrect) {
  for (int n = 1; n <= 4; ++n) {
    TripleStore store(n);
    ASSERT_TRUE(store.Insert(1, 10, 100).ok());
    ASSERT_TRUE(store.Insert(2, 10, 101).ok());
    ASSERT_TRUE(store.Insert(2, 11, 100).ok());
    std::vector<Triple> out;
    out.clear();
    store.Match(kWildcard, 10, kWildcard, &out);
    EXPECT_EQ(out.size(), 2u) << "indexes=" << n;
    out.clear();
    store.Match(kWildcard, kWildcard, 100, &out);
    EXPECT_EQ(out.size(), 2u) << "indexes=" << n;
  }
}

TEST(TripleStoreTest, SizeScalesWithIndexCount) {
  TripleStore one(1), four(4);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(one.Insert(i, 1, i + 1).ok());
    ASSERT_TRUE(four.Insert(i, 1, i + 1).ok());
  }
  EXPECT_GT(four.ApproximateSizeBytes(), 3 * one.ApproximateSizeBytes());
}

TEST(TermDictionaryTest, InternAndDecode) {
  TermDictionary dict;
  uint64_t a = dict.InternIri("person:1");
  uint64_t b = dict.InternLiteral(Value(42));
  EXPECT_EQ(dict.InternIri("person:1"), a);  // stable
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Decode(a).iri, "person:1");
  EXPECT_EQ(dict.Decode(b).literal.as_int(), 42);
  ASSERT_TRUE(dict.LookupIri("person:1").has_value());
  EXPECT_FALSE(dict.LookupIri("person:2").has_value());
  EXPECT_FALSE(dict.LookupLiteral(Value(43)).has_value());
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TermDictionaryTest, LiteralTypesDoNotCollideWithIris) {
  TermDictionary dict;
  uint64_t iri = dict.InternIri("42");
  uint64_t lit = dict.InternLiteral(Value("42"));
  uint64_t num = dict.InternLiteral(Value(42));
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, num);
}

// --- Bind-time errors ----------------------------------------------------
// A name no triple pattern binds is an error before any triple is read, so
// the answer does not depend on whether the anchor exists.

TEST(SparqlBindTest, UnknownVariableIsInvalidArgumentWhateverTheData) {
  RdfEngine engine;
  for (int i = 1; i <= 3; ++i) {
    Term person = Term::Iri(Numbered("person:", i));
    ASSERT_TRUE(engine.AddTriple(person, "snb:id", Term::Literal(Value(i)))
                    .ok());
    ASSERT_TRUE(engine
                    .AddTriple(person, "snb:knows",
                               Term::Iri(Numbered("person:", i % 3 + 1)))
                    .ok());
  }
  // An existing id, an absent one, and a value never interned at all.
  const Value ids[] = {Value(1), Value(99), Value("never interned")};
  for (const char* sparql : {
           "SELECT ?f WHERE { ?p snb:id $id . ?p snb:knows ?f . "
           "FILTER(?f != ?nope) }",
           "SELECT ?f WHERE { ?p snb:id $id . ?p snb:knows ?f . "
           "FILTER(?nope = ?f) }",
           "SELECT ?f WHERE { ?p snb:id $id . ?p snb:knows ?f . "
           "?p snb:nowhere ?x . FILTER(?f != ?nope) }",
           "SELECT ?nope WHERE { ?p snb:id $id }",
           "SELECT ?p WHERE { ?p snb:id $id } ORDER BY ?nope",
           "SELECT ?p (COUNT(?f) AS ?n) WHERE { ?p snb:id $id . "
           "?p snb:knows ?f } GROUP BY ?nope",
           "SELECT ?p (COUNT(?f) AS ?n) WHERE { ?p snb:id $id . "
           "?p snb:knows ?f } GROUP BY ?p ORDER BY ?nope",
           "SELECT (shortestPath(?p, ?nope, snb:knows) AS ?len) WHERE { "
           "?p snb:id $id }",
       }) {
    for (const Value& id : ids) {
      Status s = engine.Execute(sparql, {{"id", id}}).status();
      EXPECT_TRUE(s.IsInvalidArgument())
          << sparql << " with $id " << id.ToString() << ": " << s.ToString();
    }
  }
}

// --- Allocation gate -----------------------------------------------------
// Heap allocations of one cached-plan execution of the TopPosters and
// TwoHop statements, on fixtures scaled by 4x. Solutions are one flat
// vector and the join buffers grow by doubling, so scaling the input may
// add only a few allocations beyond one per output row.

struct Counted {
  long allocations = 0;
  size_t rows = 0;
};

const char* SparqlText(std::string_view name) {
  for (const auto& s : workload_statements::kSparql) {
    if (s.name == name) return s.text;
  }
  return nullptr;
}

// Runs `sparql` once to fill the plan cache, then counts a second run.
Counted CountExecution(RdfEngine* engine, const char* sparql,
                       const RdfEngine::Params& params) {
  auto warm = engine->Execute(sparql, params);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  Counted c;
  c.allocations = AllocationsOf([&] {
    auto r = engine->Execute(sparql, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) c.rows = r->rows.size();
  });
  return c;
}

// `posts` posts spread over `creators` creators (creator i * 7 % creators
// writes post i, so post counts tie in long runs).
Counted TopPostersAllocations(int posts, int creators) {
  RdfEngine engine;
  for (int i = 0; i < creators; ++i) {
    EXPECT_TRUE(engine
                    .AddTriple(Term::Iri(Numbered("person:", i)), "snb:id",
                               Term::Literal(Value(1000 + i)))
                    .ok());
  }
  for (int i = 0; i < posts; ++i) {
    Term post = Term::Iri(Numbered("post:", i));
    EXPECT_TRUE(
        engine.AddTriple(post, "rdf:type", Term::Iri("snb:Post")).ok());
    EXPECT_TRUE(engine.AddTriple(post, "snb:id", Term::Literal(Value(i))).ok());
    EXPECT_TRUE(engine
                    .AddTriple(post, "snb:hasCreator",
                               Term::Iri(Numbered("person:", i * 7 % creators)))
                    .ok());
  }
  engine.EnablePlanCache();
  return CountExecution(&engine, SparqlText("top_posters"),
                        {{"limit", Value(20)}});
}

// Person 0 knows `friends` people, each of whom knows `fof` more (and the
// friend next to it); knows triples run both ways, as the SNB loader
// stores them.
Counted TwoHopAllocations(int friends, int fof) {
  RdfEngine engine;
  int64_t next_id = 0;
  auto person = [&] {
    int64_t id = next_id++;
    Term p = Term::Iri(Numbered("person:", id));
    EXPECT_TRUE(
        engine.AddTriple(p, "rdf:type", Term::Iri("snb:Person")).ok());
    EXPECT_TRUE(engine.AddTriple(p, "snb:id", Term::Literal(Value(id))).ok());
    return id;
  };
  auto knows = [&](int64_t a, int64_t b) {
    Term ta = Term::Iri(Numbered("person:", a));
    Term tb = Term::Iri(Numbered("person:", b));
    EXPECT_TRUE(engine.AddTriple(ta, "snb:knows", tb).ok());
    EXPECT_TRUE(engine.AddTriple(tb, "snb:knows", ta).ok());
  };
  int64_t root = person();
  std::vector<int64_t> fs;
  for (int i = 0; i < friends; ++i) {
    fs.push_back(person());
    knows(root, fs.back());
  }
  for (int i = 0; i < friends; ++i) {
    knows(fs[size_t(i)], fs[size_t((i + 1) % friends)]);
    for (int j = 0; j < fof; ++j) knows(fs[size_t(i)], person());
  }
  engine.EnablePlanCache();
  return CountExecution(&engine, SparqlText("two_hop"),
                        {{"person_id", Value(root)}});
}

TEST(SparqlAllocationTest, TopPostersAllocationsDoNotScaleWithInput) {
  Counted small = TopPostersAllocations(150, 60);
  Counted large = TopPostersAllocations(600, 240);
  std::printf("TopPosters: %ld allocations (150 posts, 60 creators), %ld "
              "(600 posts, 240 creators), %zu rows each\n",
              small.allocations, large.allocations, large.rows);
  ASSERT_EQ(small.rows, 20u);
  ASSERT_EQ(large.rows, 20u);
  EXPECT_LE(large.allocations - small.allocations, kAllocationGrowthBound);
}

TEST(SparqlAllocationTest, TwoHopAllocationsScaleOnlyWithOutputRows) {
  Counted small = TwoHopAllocations(8, 6);
  Counted large = TwoHopAllocations(16, 15);
  std::printf("TwoHop: %ld allocations for %zu rows (8 friends), %ld for "
              "%zu rows (16 friends)\n",
              small.allocations, small.rows, large.allocations, large.rows);
  ASSERT_GT(large.rows, small.rows);
  EXPECT_LE((large.allocations - long(large.rows)) -
                (small.allocations - long(small.rows)),
            kAllocationGrowthBound);
}

}  // namespace
}  // namespace graphbench
