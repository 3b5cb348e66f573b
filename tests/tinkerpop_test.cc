#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engines/native/native_graph.h"
#include "engines/relational/database.h"
#include "engines/titan/titan_graph.h"
#include "kv/btree_kv.h"
#include "kv/lsm_kv.h"
#include "numbered.h"
#include "obs/profiler.h"
#include "providers/native_provider.h"
#include "providers/sqlg_provider.h"
#include "tinkerpop/bytecode.h"
#include "tinkerpop/gremlin_server.h"
#include "tinkerpop/traversal.h"

namespace graphbench {
namespace {

// Every TinkerPop provider must produce identical traversal results on the
// same logical graph — the property that lets the paper run one Gremlin
// implementation against all compliant systems.
class ProviderContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    std::string which = GetParam();
    if (which == "native") {
      NativeGraphOptions opts;
      opts.checkpoint_interval_writes = 0;
      native_ = std::make_unique<NativeGraph>(opts);
      ASSERT_TRUE(native_->CreateUniqueIndex("Person", "id").ok());
      graph_ = std::make_unique<NativeProvider>(native_.get());
    } else if (which == "titan-b" || which == "titan-c") {
      std::unique_ptr<KvStore> kv;
      if (which == "titan-b") {
        kv = std::make_unique<BTreeKv>();
      } else {
        kv = std::make_unique<LsmKv>();
      }
      auto titan = std::make_unique<TitanGraph>(std::move(kv));
      ASSERT_TRUE(titan->RegisterUniqueIndex("Person", "id").ok());
      graph_ = std::move(titan);
    } else {  // sqlg
      db_ = std::make_unique<Database>(StorageMode::kRow);
      ASSERT_TRUE(db_->CreateTable(TableSchema(
                         "person", {{"id", Value::Type::kInt},
                                    {"firstName", Value::Type::kString}}))
                      .ok());
      ASSERT_TRUE(db_->CreateTable(TableSchema(
                         "knows", {{"person1Id", Value::Type::kInt},
                                   {"person2Id", Value::Type::kInt}}))
                      .ok());
      ASSERT_TRUE(db_->CreateIndex("person", "id", true).ok());
      ASSERT_TRUE(db_->CreateIndex("knows", "person1Id", false).ok());
      ASSERT_TRUE(db_->CreateIndex("knows", "person2Id", false).ok());
      auto sqlg = std::make_unique<SqlgProvider>(db_.get());
      ASSERT_TRUE(sqlg->RegisterVertexLabel("Person", "person").ok());
      ASSERT_TRUE(sqlg->RegisterEdgeLabel("knows", "knows", "person1Id",
                                          "person2Id", "Person", "Person")
                      .ok());
      graph_ = std::move(sqlg);
    }

    // Persons 1..5, knows chain 1-2-3-4-5 plus shortcut 1-3.
    const char* names[] = {"Ada", "Bob", "Cy", "Dee", "Eve"};
    std::vector<GVertex> v;
    for (int i = 1; i <= 5; ++i) {
      auto added = graph_->AddVertex(
          "Person",
          {{"id", Value(i)}, {"firstName", Value(names[i - 1])}});
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      v.push_back(*added);
    }
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}}) {
      ASSERT_TRUE(graph_
                      ->AddEdge("knows", v[size_t(a - 1)], v[size_t(b - 1)],
                                {{"creationDate", Value(20170707)}})
                      .ok());
    }
  }

  Result<std::vector<Value>> Run(const Traversal& t) {
    return ExecuteTraversal(graph_.get(), t);
  }

  std::unique_ptr<NativeGraph> native_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<GremlinGraph> graph_;
};

TEST_P(ProviderContractTest, CountsMatch) {
  EXPECT_EQ(graph_->VertexCount(), 5u);
  EXPECT_EQ(graph_->EdgeCount(), 5u);
  EXPECT_GT(graph_->ApproximateSizeBytes(), 0u);
}

TEST_P(ProviderContractTest, PointLookupTraversal) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(3)).Values("firstName");
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].as_string(), "Cy");
}

TEST_P(ProviderContractTest, OneHopBoth) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(3)).Both("knows").Values("id");
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> ids;
  for (const Value& v : *r) ids.push_back(v.as_int());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 4}));
}

TEST_P(ProviderContractTest, OutAndInRespectDirection) {
  Traversal out;
  out.V().HasIndexed("Person", "id", Value(1)).Out("knows").Count();
  auto r_out = Run(out);
  ASSERT_TRUE(r_out.ok());
  EXPECT_EQ((*r_out)[0].as_int(), 2);

  Traversal in;
  in.V().HasIndexed("Person", "id", Value(1)).In("knows").Count();
  auto r_in = Run(in);
  ASSERT_TRUE(r_in.ok());
  EXPECT_EQ((*r_in)[0].as_int(), 0);
}

TEST_P(ProviderContractTest, TwoHopWithDedupAndWhere) {
  Traversal t;
  t.V()
      .HasIndexed("Person", "id", Value(1))
      .As("p")
      .Both("knows")
      .Both("knows")
      .WhereNeq("p")
      .Dedup()
      .Values("id");
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> ids;
  for (const Value& v : *r) ids.push_back(v.as_int());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 3, 4}));
}

TEST_P(ProviderContractTest, ShortestPathStep) {
  Traversal t;
  t.V()
      .HasIndexed("Person", "id", Value(1))
      .ShortestPath("knows", "id", Value(5));
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].as_int(), 3);

  Traversal self;
  self.V()
      .HasIndexed("Person", "id", Value(2))
      .ShortestPath("knows", "id", Value(2));
  auto r_self = Run(self);
  ASSERT_TRUE(r_self.ok());
  EXPECT_EQ((*r_self)[0].as_int(), 0);
}

TEST_P(ProviderContractTest, VertexScanAndLimit) {
  Traversal t;
  t.V("Person").Values("id").Dedup().Limit(3);
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 3u);
}

TEST_P(ProviderContractTest, HasFilterMidTraversal) {
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(1)).Both("knows")
      .Has("firstName", Value("Cy")).Values("id");
  auto r = Run(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].as_int(), 3);
}

TEST_P(ProviderContractTest, DuplicateIdRejected) {
  auto dup = graph_->AddVertex("Person", {{"id", Value(1)}});
  EXPECT_TRUE(dup.status().IsAlreadyExists());
}

TEST_P(ProviderContractTest, UpdateTraversalAddVAndAddE) {
  Traversal addv;
  addv.AddV("Person", {{"id", Value(6)}, {"firstName", Value("Fay")}});
  auto r = Run(addv);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(graph_->VertexCount(), 6u);

  // Binding two independent anchors in one traversal is unsupported
  // (HasIndexed mid-traversal is a filter), so attach the edge through the
  // structure API as the loaders do.
  auto v5 = graph_->VerticesByProperty("Person", "id", Value(5));
  auto v6 = graph_->VerticesByProperty("Person", "id", Value(6));
  ASSERT_TRUE(v5.ok());
  ASSERT_TRUE(v6.ok());
  ASSERT_TRUE(graph_->AddEdge("knows", (*v5)[0], (*v6)[0], {}).ok());
  EXPECT_EQ(graph_->EdgeCount(), 6u);

  Traversal check;
  check.V().HasIndexed("Person", "id", Value(6)).Both("knows").Values("id");
  auto nb = Run(check);
  ASSERT_TRUE(nb.ok());
  ASSERT_EQ(nb->size(), 1u);
  EXPECT_EQ((*nb)[0].as_int(), 5);
}

INSTANTIATE_TEST_SUITE_P(Providers, ProviderContractTest,
                         ::testing::Values("native", "titan-b", "titan-c",
                                           "sqlg"));

TEST(BytecodeTest, TraversalRoundTrip) {
  Traversal t;
  t.V()
      .HasIndexed("Person", "id", Value(42))
      .As("p")
      .Both("knows")
      .WhereNeq("p")
      .Dedup()
      .Values("firstName")
      .Limit(10);
  std::string bytes = gremlinio::EncodeTraversal(t);
  auto decoded = gremlinio::DecodeTraversal(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->steps().size(), t.steps().size());
  for (size_t i = 0; i < t.steps().size(); ++i) {
    EXPECT_EQ(decoded->steps()[i].kind, t.steps()[i].kind);
    EXPECT_EQ(decoded->steps()[i].label, t.steps()[i].label);
    EXPECT_EQ(decoded->steps()[i].key, t.steps()[i].key);
    EXPECT_EQ(decoded->steps()[i].value, t.steps()[i].value);
    EXPECT_EQ(decoded->steps()[i].n, t.steps()[i].n);
  }
}

TEST(BytecodeTest, ResultsRoundTripAndCorruption) {
  std::vector<Value> results{Value(1), Value("x"), Value(2.5), Value()};
  std::string bytes = gremlinio::EncodeResults(results);
  auto decoded = gremlinio::DecodeResults(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, results);
  EXPECT_FALSE(
      gremlinio::DecodeResults(bytes.substr(0, bytes.size() - 2)).ok());
  EXPECT_FALSE(gremlinio::DecodeTraversal("garbage!").ok());
}

// g:Int64 travels as an exact integer through every path that carries
// one: a result, a step's value, a step's props and a step's n.
TEST(BytecodeTest, Int64RoundTripsExactlyOnEveryPath) {
  const int64_t kEdges[] = {std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(),
                            (int64_t{1} << 53) + 1, -(int64_t{1} << 53) - 1};
  for (int64_t i : kEdges) {
    auto results = gremlinio::DecodeResults(
        gremlinio::EncodeResults({Value(i)}));
    ASSERT_TRUE(results.ok()) << i << ": " << results.status().ToString();
    ASSERT_EQ(results->size(), 1u);
    ASSERT_TRUE((*results)[0].is_int()) << i;
    EXPECT_EQ((*results)[0].as_int(), i);

    Traversal t;
    t.V().HasIndexed("Person", "id", Value(i)).Limit(i);
    t.AddV("Person", {{"id", Value(i)}});
    auto decoded = gremlinio::DecodeTraversal(gremlinio::EncodeTraversal(t));
    ASSERT_TRUE(decoded.ok()) << i << ": " << decoded.status().ToString();
    const auto& steps = decoded->steps();
    ASSERT_EQ(steps.size(), 4u);
    ASSERT_TRUE(steps[1].value.is_int()) << i;
    EXPECT_EQ(steps[1].value.as_int(), i);
    EXPECT_EQ(steps[2].n, i);
    ASSERT_TRUE(steps[3].props.Get("id").is_int()) << i;
    EXPECT_EQ(steps[3].props.Get("id").as_int(), i);
  }
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(gremlinio::EncodeResults({Value(kMax)}),
            R"({"status":{"code":200},"result":{"data":[)"
            R"({"@type":"g:Int64","@value":9223372036854775807}]}})");
}

TEST(BytecodeTest, NonFiniteDoublesTravelAsGraphsonStrings) {
  const double inf = std::numeric_limits<double>::infinity();
  std::string bytes = gremlinio::EncodeResults(
      {Value(std::numeric_limits<double>::quiet_NaN()), Value(inf),
       Value(-inf)});
  EXPECT_EQ(bytes, R"({"status":{"code":200},"result":{"data":[)"
                   R"({"@type":"g:Double","@value":"NaN"},)"
                   R"({"@type":"g:Double","@value":"Infinity"},)"
                   R"({"@type":"g:Double","@value":"-Infinity"}]}})");
  auto decoded = gremlinio::DecodeResults(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_TRUE(std::isnan((*decoded)[0].as_double()));
  EXPECT_EQ((*decoded)[1].as_double(), inf);
  EXPECT_EQ((*decoded)[2].as_double(), -inf);

  Traversal t;
  t.V().Has("score", Value(-inf));
  auto step = gremlinio::DecodeTraversal(gremlinio::EncodeTraversal(t));
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step->steps()[1].value.as_double(), -inf);
}

// Malformed GraphSON is Corruption, never a silently converted value.
TEST(BytecodeTest, DecoderRejectsWrongTypedAndOutOfRangeFields) {
  auto frame = [](const std::string& value) {
    return R"({"status":{"code":200},"result":{"data":[)" + value + "]}}";
  };
  for (const char* bad :
       {R"({"@type":"g:Int64","@value":1.5})",
        R"({"@type":"g:Int64","@value":"7"})",
        R"({"@type":"g:Int64","@value":1e2})",
        R"({"@type":"g:Int64","@value":9223372036854775808})",
        R"({"@type":"g:Int64","@value":-9223372036854775809})",
        R"({"@type":"g:Int64","@value":true})",
        R"({"@type":"g:Int64"})",
        R"({"@type":"g:Double","@value":"nan"})",
        R"({"@type":"g:Double","@value":1e999})",
        R"({"@type":"g:Float","@value":1})",
        R"({"@type":"g:Int64","@value":1,"extra":2})",
        R"(7)", R"(nan)", R"(inf)"}) {
    auto decoded = gremlinio::DecodeResults(frame(bad));
    EXPECT_TRUE(decoded.status().IsCorruption())
        << bad << ": " << decoded.status().ToString();
  }
  for (const char* bad :
       {R"({"@type":"g:Bytecode","step":[{"op":"limit","n":1e300}]})",
        R"({"@type":"g:Bytecode","step":[{"op":"limit","n":1.5}]})",
        R"({"@type":"g:Bytecode","step":[{"op":"limit","n":"3"}]})",
        R"({"@type":"g:Bytecode","step":[{"op":"limit",)"
        R"("n":99999999999999999999}]})",
        R"({"@type":"g:Bytecode","step":[{"op":"has","label":7}]})",
        R"({"@type":"g:Bytecode","step":[{"op":"nope"}]})",
        R"({"@type":"g:Bytecode","step":[{"label":"x"}]})",
        R"({"@type":"g:Bytecode","step":[{"op":"V","bogus":1}]})",
        R"({"@type":"g:Traversal","step":[]})",
        R"({"@type":"g:Bytecode","step":[]} trailing)"}) {
    auto decoded = gremlinio::DecodeTraversal(bad);
    EXPECT_TRUE(decoded.status().IsCorruption())
        << bad << ": " << decoded.status().ToString();
  }
  EXPECT_TRUE(gremlinio::DecodeResults(R"({"status":{"code":500}})")
                  .status()
                  .IsCorruption());
}

// Keys may come in any order, as in any JSON object.
TEST(BytecodeTest, DecoderAcceptsKeysInAnyOrder) {
  auto t = gremlinio::DecodeTraversal(
      R"({"step":[{"n":3,"op":"limit"},{"value":{"@value":-2,)"
      R"("@type":"g:Int64"},"key":"k","op":"has"}],"@type":"g:Bytecode"})");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->steps().size(), 2u);
  EXPECT_EQ(t->steps()[0].kind, GremlinStep::Kind::kLimit);
  EXPECT_EQ(t->steps()[0].n, 3);
  EXPECT_EQ(t->steps()[1].kind, GremlinStep::Kind::kHas);
  EXPECT_EQ(t->steps()[1].key, "k");
  EXPECT_EQ(t->steps()[1].value.as_int(), -2);
  auto r = gremlinio::DecodeResults(
      R"({ "result" : { "data" : [ {"@value":0.5,"@type":"g:Double"} ] },)"
      R"( "status" : { "code" : 200 } })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].as_double(), 0.5);
}

// The same values end to end through the server: the worker encodes them
// and the client decodes them.
TEST(GremlinServerTest, ExactIntsAndNonFiniteDoublesThroughServer) {
  NativeGraphOptions opts;
  opts.checkpoint_interval_writes = 0;
  NativeGraph native(opts);
  ASSERT_TRUE(native.CreateUniqueIndex("Person", "id").ok());
  NativeProvider provider(&native);
  const int64_t big = (int64_t{1} << 53) + 1;
  const int64_t max = std::numeric_limits<int64_t>::max();
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(provider
                  .AddVertex("Person",
                             {{"id", Value(1)},
                              {"big", Value(big)},
                              {"max", Value(max)},
                              {"nan", Value(std::nan(""))},
                              {"inf", Value(-inf)}})
                  .ok());
  GremlinServer server(&provider, GremlinServerOptions{});
  Traversal t;
  t.V().HasIndexed("Person", "id", Value(1))
      .ValueMap({"big", "max", "nan", "inf"});
  auto r = server.Submit(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 4u);
  EXPECT_EQ((*r)[0].as_int(), big);
  EXPECT_EQ((*r)[1].as_int(), max);
  EXPECT_TRUE(std::isnan((*r)[2].as_double()));
  EXPECT_EQ((*r)[3].as_double(), -inf);
}

TEST(GremlinServerTest, RoundTripThroughServer) {
  NativeGraphOptions opts;
  opts.checkpoint_interval_writes = 0;
  NativeGraph native(opts);
  ASSERT_TRUE(native.CreateUniqueIndex("Person", "id").ok());
  NativeProvider provider(&native);
  ASSERT_TRUE(provider.AddVertex("Person", {{"id", Value(1)},
                                            {"firstName", Value("Ada")}})
                  .ok());
  GremlinServerOptions server_opts;
  server_opts.workers = 2;
  GremlinServer server(&provider, server_opts);

  Traversal t;
  t.V().HasIndexed("Person", "id", Value(1)).Values("firstName");
  auto r = server.Submit(t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].as_string(), "Ada");
  EXPECT_EQ(server.requests_served(), 1u);

  // Embedded mode bypasses the codec+queue.
  auto embedded = server.SubmitEmbedded(t);
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ((*embedded)[0].as_string(), "Ada");
}

// A native provider whose first index lookup blocks until Release(), so a
// test can hold the server's only worker busy.
class GatedProvider : public NativeProvider {
 public:
  using NativeProvider::NativeProvider;

  Result<std::vector<GVertex>> VerticesByProperty(
      std::string_view label, std::string_view key,
      const Value& value) override {
    if (!gated_.exchange(true)) {
      entered_.set_value();
      released_.wait();
    }
    return NativeProvider::VerticesByProperty(label, key, value);
  }

  void WaitEntered() { entered_future_.wait(); }
  void Release() { release_.set_value(); }

 private:
  std::atomic<bool> gated_{false};
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

TEST(GremlinServerTest, OverloadRejectsWithBusy) {
  NativeGraphOptions opts;
  opts.checkpoint_interval_writes = 0;
  NativeGraph native(opts);
  ASSERT_TRUE(native.CreateUniqueIndex("Person", "id").ok());
  GatedProvider provider(&native);
  ASSERT_TRUE(provider.AddVertex("Person", {{"id", Value(1)}}).ok());
  GremlinServerOptions server_opts;
  server_opts.workers = 1;
  server_opts.max_queue = 1;
  GremlinServer server(&provider, server_opts);
  Traversal lookup;
  lookup.V().HasIndexed("Person", "id", Value(1)).Values("id");

  // The first request holds the only worker at the gate.
  std::thread holder([&] { ASSERT_TRUE(server.Submit(lookup).ok()); });
  provider.WaitEntered();

  // Of the racing clients, one fills the one-slot queue and every other one
  // is rejected at once, while the gate is still shut.
  constexpr int kClients = 8;
  std::atomic<int> busy{0}, ok{0}, finished{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto r = server.Submit(lookup);
      if (r.ok()) ++ok;
      else if (r.status().IsBusy()) ++busy;
      ++finished;
    });
  }
  while (finished.load() < kClients - 1) std::this_thread::yield();
  provider.Release();
  for (auto& th : clients) th.join();
  holder.join();
  EXPECT_EQ(busy.load(), kClients - 1);
  EXPECT_EQ(ok.load(), 1);
  EXPECT_EQ(server.requests_rejected(), uint64_t(busy.load()));
  EXPECT_EQ(server.requests_served(), 2u);
}

// Eight clients on two workers: each reply must answer its own request,
// whichever worker served it and whether the hand-offs polled or parked.
TEST(GremlinServerTest, ConcurrentClientsGetTheirOwnReplies) {
  constexpr int kClients = 8, kIdsPerClient = 16, kLookups = 2000;
  NativeGraphOptions opts;
  opts.checkpoint_interval_writes = 0;
  NativeGraph native(opts);
  ASSERT_TRUE(native.CreateUniqueIndex("Person", "id").ok());
  NativeProvider provider(&native);
  for (int id = 0; id < kClients * kIdsPerClient; ++id) {
    ASSERT_TRUE(provider
                    .AddVertex("Person",
                               {{"id", Value(id)},
                                {"firstName", Value(Numbered("p", id))}})
                    .ok());
  }
  GremlinServerOptions server_opts;
  server_opts.workers = 2;
  GremlinServer server(&provider, server_opts);

  std::atomic<int> failed{0}, wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kLookups; ++i) {
        const int id = c * kIdsPerClient + i % kIdsPerClient;
        Traversal t;
        t.V().HasIndexed("Person", "id", Value(id)).Values("firstName");
        auto r = server.Submit(t);
        if (!r.ok()) {
          ++failed;
        } else if (r->size() != 1 ||
                   (*r)[0].as_string() != Numbered("p", id)) {
          ++wrong;
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(server.requests_served(), uint64_t(kClients) * kLookups);
}

// After each idle spell, far longer than the poll budget, every worker and
// client has parked; the burst that follows must still be served in full.
// A lost wake-up hangs here, and the test's ctest TIMEOUT fails it.
TEST(GremlinServerTest, BurstAfterIdleWakesParkedWorkers) {
  constexpr int kBursts = 10, kClients = 4, kLookups = 25;
  NativeGraphOptions opts;
  opts.checkpoint_interval_writes = 0;
  NativeGraph native(opts);
  ASSERT_TRUE(native.CreateUniqueIndex("Person", "id").ok());
  NativeProvider provider(&native);
  ASSERT_TRUE(provider.AddVertex("Person", {{"id", Value(1)}}).ok());
  GremlinServerOptions server_opts;
  server_opts.workers = 2;
  GremlinServer server(&provider, server_opts);
  Traversal lookup;
  lookup.V().HasIndexed("Person", "id", Value(1)).Values("id");

  std::atomic<int> failed{0};
  for (int burst = 0; burst < kBursts; ++burst) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (int i = 0; i < kLookups; ++i) {
          if (!server.Submit(lookup).ok()) ++failed;
        }
      });
    }
    for (auto& th : clients) th.join();
  }
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(server.requests_served(), uint64_t(kBursts) * kClients * kLookups);
}

// --- The server's profile rows -------------------------------------------
// GraphBench's layer split reads these rows by name (serialize,
// dispatchRequest, decodeRequest and encodeResults are the server's share),
// so their names, order and count per Submit are a contract.

class ServerProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NativeGraphOptions opts;
    opts.checkpoint_interval_writes = 0;
    native_ = std::make_unique<NativeGraph>(opts);
    ASSERT_TRUE(native_->CreateUniqueIndex("Person", "id").ok());
    provider_ = std::make_unique<GatedProvider>(native_.get());
    ASSERT_TRUE(provider_
                    ->AddVertex("Person", {{"id", Value(1)},
                                           {"firstName", Value("Ada")}})
                    .ok());
    lookup_.V().HasIndexed("Person", "id", Value(1)).Values("firstName");
  }

  // Every test but the Busy one opens the gate before its first Submit.
  void OpenGate() {
    provider_->Release();
    ASSERT_TRUE(provider_->VerticesByProperty("Person", "id", Value(1)).ok());
  }

  static std::vector<std::string> Names(const obs::QueryProfile& profile) {
    std::vector<std::string> names;
    for (const obs::OpStats& op : profile.ops()) names.push_back(op.name);
    return names;
  }

  std::unique_ptr<NativeGraph> native_;
  std::unique_ptr<GatedProvider> provider_;
  Traversal lookup_;
};

TEST_F(ServerProfileTest, OneSubmitRecordsEveryStageOnce) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  OpenGate();
  GremlinServer server(provider_.get());
  obs::QueryProfile profile;
  {
    obs::ProfileScope scope(&profile);
    auto r = server.Submit(lookup_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->size(), 1u);
  }
  std::vector<std::string> names = Names(profile);
  // Client rows, worker rows (the traversal's steps between decode and
  // encode), then the client's wake-up and decode, in execution order.
  ASSERT_GT(names.size(), 7u);
  const std::vector<std::string> head = {"serialize", "dispatchRequest",
                                         "queue", "decodeRequest"};
  const std::vector<std::string> tail = {"encodeResults", "awaitResponse",
                                         "deserialize"};
  EXPECT_EQ(std::vector<std::string>(names.begin(), names.begin() + 4), head);
  EXPECT_EQ(std::vector<std::string>(names.end() - 3, names.end()), tail);
  EXPECT_NE(profile.Find("has(indexed)"), nullptr);
  EXPECT_NE(profile.Find("values()"), nullptr);
  for (const obs::OpStats& op : profile.ops()) {
    EXPECT_EQ(op.invocations, 1u) << op.name;
    EXPECT_LE(op.self_micros, op.cumulative_micros) << op.name;
  }
  EXPECT_EQ(profile.Find("deserialize")->rows, 1u);
}

TEST_F(ServerProfileTest, PlanCacheHitStillRecordsDecodeRequest) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  OpenGate();
  GremlinServerOptions options;
  options.plan_cache_capacity = 4;
  GremlinServer server(provider_.get(), options);
  ASSERT_TRUE(server.Submit(lookup_).ok());
  obs::QueryProfile profile;
  {
    obs::ProfileScope scope(&profile);
    ASSERT_TRUE(server.Submit(lookup_).ok());
  }
  EXPECT_EQ(server.plan_cache_stats().hits, 1u);
  const obs::OpStats* decode = profile.Find("decodeRequest");
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->invocations, 1u);
  EXPECT_NE(profile.Find("deserialize"), nullptr);
}

TEST_F(ServerProfileTest, DecodeErrorRecordsQueueAndDecodeRequest) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  OpenGate();
  GremlinServer server(provider_.get());
  // A step kind the wire format has no name for: the client encodes it as
  // "unknown" and the worker fails to decode the request.
  Traversal bad;
  GremlinStep step;
  step.kind = GremlinStep::Kind(250);
  bad.mutable_steps()->push_back(step);
  obs::QueryProfile profile;
  Result<std::vector<Value>> r = std::vector<Value>{};
  {
    obs::ProfileScope scope(&profile);
    r = server.Submit(bad);
  }
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_EQ(Names(profile),
            (std::vector<std::string>{"serialize", "dispatchRequest", "queue",
                                      "decodeRequest", "awaitResponse"}));
}

TEST_F(ServerProfileTest, BusyRejectionRecordsNoWorkerRow) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  GremlinServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  GremlinServer server(provider_.get(), options);

  // The first request holds the only worker at the gate.
  std::thread holder([&] { ASSERT_TRUE(server.Submit(lookup_).ok()); });
  provider_->WaitEntered();

  // Of two more clients, one fills the one-slot queue and the other is
  // rejected at once. The rejected one finishes while the gate is shut.
  struct Client {
    obs::QueryProfile profile;
    Status status;
  };
  Client clients[2];
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&server, &c, &finished, this] {
      obs::ProfileScope scope(&c.profile);
      c.status = server.Submit(lookup_).status();
      ++finished;
    });
  }
  while (finished.load() == 0) std::this_thread::yield();
  provider_->Release();
  for (std::thread& t : threads) t.join();
  holder.join();

  EXPECT_EQ(server.requests_rejected(), 1u);
  int busy = 0;
  for (const Client& c : clients) {
    if (!c.status.IsBusy()) {
      EXPECT_TRUE(c.status.ok()) << c.status.ToString();
      EXPECT_NE(c.profile.Find("queue"), nullptr);
      continue;
    }
    ++busy;
    EXPECT_EQ(Names(c.profile),
              (std::vector<std::string>{"serialize", "dispatchRequest"}));
  }
  EXPECT_EQ(busy, 1);
}

TEST_F(ServerProfileTest, UnprofiledSubmitRecordsNothing) {
  OpenGate();
  GremlinServer server(provider_.get());
  ASSERT_TRUE(server.Submit(lookup_).ok());
  obs::QueryProfile profile;
  {
    obs::ProfileScope scope(&profile);
    // A null scope switches capture off, on the worker too.
    obs::ProfileScope off(nullptr);
    auto r = server.Submit(lookup_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->size(), 1u);
  }
  EXPECT_TRUE(profile.empty()) << profile.ToString();
  EXPECT_EQ(server.requests_served(), 2u);
}

}  // namespace
}  // namespace graphbench
