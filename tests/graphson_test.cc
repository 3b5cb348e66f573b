// GraphSON codec: the wire text is pinned byte for byte, seeded round
// trips and mutated texts exercise the reader, and a counting allocator
// gates the codec's heap allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "tinkerpop/bytecode.h"
#include "tinkerpop/traversal.h"
#include "util/json.h"
#include "util/random.h"

// Counts every heap allocation made through operator new in this binary,
// so the codec's allocations per request and frame can be gated exactly.
static std::atomic<long> g_allocations{0};

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
// Kept out of line: inlined, GCC sees free() on operator new's pointer
// and warns (-Wmismatched-new-delete), though new here is malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}

namespace graphbench {
namespace {

// Every traversal shape the Gremlin SUTs submit: the eight reads and each
// Apply traversal, built the way src/sut/gremlin_sut.cc builds them.
std::vector<std::pair<std::string, Traversal>> SutTraversals() {
  std::vector<std::pair<std::string, Traversal>> out;
  auto add = [&out](std::string name) -> Traversal& {
    out.emplace_back(std::move(name), Traversal());
    return out.back().second;
  };
  add("point_lookup")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .ValueMap({"firstName", "lastName", "gender", "birthday", "browserUsed",
                 "locationIP"});
  add("one_hop")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .Both("knows")
      .ValueMap({"id", "firstName", "lastName"});
  add("two_hop")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .As("p")
      .Both("knows")
      .Both("knows")
      .WhereNeq("p")
      .Dedup()
      .Values("id");
  add("shortest_path")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .ShortestPath("knows", "id", Value(int64_t{4398046511104}));
  add("recent_posts")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .In("postHasCreator")
      .OrderBy("creationDate", /*desc=*/true)
      .Limit(10)
      .ValueMap({"id", "content", "creationDate"});
  add("friends_with_name")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .Both("knows")
      .Has("firstName", Value("Mahinda"))
      .OrderBy("id", /*desc=*/false)
      .ValueMap({"id", "lastName"});
  add("replies_of_post")
      .V().HasIndexed("Post", "id", Value(int64_t{1236950581248}))
      .In("replyOfPost")
      .OrderBy("creationDate", /*desc=*/true)
      .ValueMap({"id", "content", "creatorId"});
  add("top_posters").V("Post").Out("postHasCreator").GroupCount("id", 20);
  add("add_person").AddV("Person",
                         {{"id", Value(int64_t{10995116277761})},
                          {"firstName", Value("Ali")},
                          {"lastName", Value("Abouba")},
                          {"gender", Value("male")},
                          {"birthday", Value(int64_t{-86400000})},
                          {"creationDate", Value(int64_t{1262304000000})},
                          {"browserUsed", Value("Firefox")},
                          {"locationIP", Value("41.203.147.168")},
                          {"cityId", Value(int64_t{1226})}});
  add("add_friendship")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .AddEdgeTo("knows", "Person", "id", Value(int64_t{1129}),
                 {{"creationDate", Value(int64_t{1266161530447})}});
  add("remove_friendship")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .DropEdgeTo("knows", "Person", "id", Value(int64_t{1129}));
  add("add_forum").AddV("Forum",
                        {{"id", Value(int64_t{77})},
                         {"title", Value("Wall of \"Ali\" Abouba")},
                         {"creationDate", Value(int64_t{1262304000000})},
                         {"moderatorId", Value(int64_t{933})}});
  add("link_moderator")
      .V().HasIndexed("Forum", "id", Value(int64_t{77}))
      .AddEdgeTo("hasModerator", "Person", "id", Value(int64_t{933}), {});
  add("add_forum_member")
      .V().HasIndexed("Forum", "id", Value(int64_t{77}))
      .AddEdgeTo("hasMember", "Person", "id", Value(int64_t{1129}),
                 {{"joinDate", Value(int64_t{1262304000001})}});
  add("add_post").AddV("Post",
                       {{"id", Value(int64_t{1236950581249})},
                        {"content", Value("About Gemini,\ta \\ sign\n")},
                        {"creationDate", Value(int64_t{1262304000002})},
                        {"creatorId", Value(int64_t{933})},
                        {"forumId", Value(int64_t{77})},
                        {"browserUsed", Value("Chrome")}});
  add("link_post_creator")
      .V().HasIndexed("Post", "id", Value(int64_t{1236950581249}))
      .AddEdgeTo("postHasCreator", "Person", "id", Value(int64_t{933}), {});
  add("link_post_container")
      .V().HasIndexed("Forum", "id", Value(int64_t{77}))
      .AddEdgeTo("containerOf", "Post", "id", Value(int64_t{1236950581249}),
                 {});
  add("add_comment").AddV("Comment",
                          {{"id", Value(int64_t{1236950581250})},
                           {"content", Value("thx")},
                           {"creationDate", Value(int64_t{1262304000003})},
                           {"creatorId", Value(int64_t{1129})},
                           {"replyOfPost", Value(int64_t{1236950581249})},
                           {"replyOfComment", Value(int64_t{-1})}});
  add("link_comment_creator")
      .V().HasIndexed("Comment", "id", Value(int64_t{1236950581250}))
      .AddEdgeTo("commentHasCreator", "Person", "id", Value(int64_t{1129}),
                 {});
  add("link_reply_of_post")
      .V().HasIndexed("Comment", "id", Value(int64_t{1236950581250}))
      .AddEdgeTo("replyOfPost", "Post", "id", Value(int64_t{1236950581249}),
                 {});
  add("link_reply_of_comment")
      .V().HasIndexed("Comment", "id", Value(int64_t{1236950581251}))
      .AddEdgeTo("replyOfComment", "Comment", "id",
                 Value(int64_t{1236950581250}), {});
  add("add_like_post")
      .V().HasIndexed("Person", "id", Value(int64_t{1129}))
      .AddEdgeTo("likesPost", "Post", "id", Value(int64_t{1236950581249}),
                 {{"creationDate", Value(int64_t{1262304000004})}});
  add("add_like_comment")
      .V().HasIndexed("Person", "id", Value(int64_t{933}))
      .AddEdgeTo("likesComment", "Comment", "id",
                 Value(int64_t{1236950581250}),
                 {{"creationDate", Value(int64_t{1262304000005})}});
  return out;
}

// Result frames covering every value kind the encoder writes.
std::vector<std::pair<std::string, std::vector<Value>>> ResultFrames() {
  return {
      {"empty", {}},
      {"point_lookup",
       {Value("Mahinda"), Value("Perera"), Value("male"),
        Value(int64_t{628646400000}), Value("Firefox"),
        Value("119.235.7.103")}},
      {"scalars",
       {Value(), Value(true), Value(false), Value(int64_t{0}),
        Value(int64_t{-1}), Value(int64_t{8999999999999999}),
        Value(int64_t{-8999999999999999})}},
      {"strings",
       {Value(""), Value("say \"hi\""), Value("back\\slash"),
        Value("line\nbreak\r\ttab"), Value(std::string("ctl\x01\x1f\x7f", 6)),
        Value("na\xc3\xafve \xe6\x97\xa5\xe6\x9c\xac"), Value("/solidus/")}},
      {"doubles",
       {Value(2.0), Value(-3.0), Value(0.5), Value(0.1), Value(-2.75e-7),
        Value(1e20), Value(123456.789)}},
  };
}

// The wire text of each case above, as the JSON-document codec this one
// replaced wrote it.
const std::pair<const char*, const char*> kGoldenTraversals[] = {
    {"point_lookup",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"valueMap","props":{"firstName":null,"lastName":null,"ge)"
      R"(nder":null,"birthday":null,"browserUsed":null,"locationIP":null})"
      R"(}]})"},
    {"one_hop",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"both","label":"knows"},{"op":"valueMap","props":{"id":n)"
      R"(ull,"firstName":null,"lastName":null}}]})"},
    {"two_hop",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"as","name":"p"},{"op":"both","label":"knows"},{"op":"bo)"
      R"(th","label":"knows"},{"op":"whereNeq","name":"p"},{"op":"dedup"})"
      R"(,{"op":"values","key":"id"}]})"},
    {"shortest_path",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"shortestPath","label":"knows","key":"id","value":{"@typ)"
      R"(e":"g:Int64","@value":4398046511104},"n":64}]})"},
    {"recent_posts",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"in","label":"postHasCreator"},{"op":"orderBy","key":"cr)"
      R"(eationDate","n":1},{"op":"limit","n":10},{"op":"valueMap","props)"
      R"(":{"id":null,"content":null,"creationDate":null}}]})"},
    {"friends_with_name",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"both","label":"knows"},{"op":"has","key":"firstName","v)"
      R"(alue":"Mahinda"},{"op":"orderBy","key":"id"},{"op":"valueMap","p)"
      R"(rops":{"id":null,"lastName":null}}]})"},
    {"replies_of_post",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Post","key":"id","value":{"@type":"g:Int64","@value":123695)"
      R"(0581248}},{"op":"in","label":"replyOfPost"},{"op":"orderBy","key)"
      R"(":"creationDate","n":1},{"op":"valueMap","props":{"id":null,"con)"
      R"(tent":null,"creatorId":null}}]})"},
    {"top_posters",
      R"({"@type":"g:Bytecode","step":[{"op":"V","label":"Post"},{"op":"o)"
      R"(ut","label":"postHasCreator"},{"op":"groupCount","key":"id","n":)"
      R"(20}]})"},
    {"add_person",
      R"({"@type":"g:Bytecode","step":[{"op":"addV","label":"Person","pro)"
      R"(ps":{"id":{"@type":"g:Int64","@value":10995116277761},"firstName)"
      R"(":"Ali","lastName":"Abouba","gender":"male","birthday":{"@type":)"
      R"("g:Int64","@value":-86400000},"creationDate":{"@type":"g:Int64",)"
      R"("@value":1262304000000},"browserUsed":"Firefox","locationIP":"41)"
      R"(.203.147.168","cityId":{"@type":"g:Int64","@value":1226}}}]})"},
    {"add_friendship",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"addEdgeTo","label":"knows","key":"id","value":{"@type":)"
      R"("g:Int64","@value":1129},"name":"Person","props":{"creationDate")"
      R"(:{"@type":"g:Int64","@value":1266161530447}}}]})"},
    {"remove_friendship",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"dropEdgeTo","label":"knows","key":"id","value":{"@type")"
      R"(:"g:Int64","@value":1129},"name":"Person"}]})"},
    {"add_forum",
      R"({"@type":"g:Bytecode","step":[{"op":"addV","label":"Forum","prop)"
      R"(s":{"id":{"@type":"g:Int64","@value":77},"title":"Wall of \"Ali\)"
      R"(" Abouba","creationDate":{"@type":"g:Int64","@value":12623040000)"
      R"(00},"moderatorId":{"@type":"g:Int64","@value":933}}}]})"},
    {"link_moderator",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Forum","key":"id","value":{"@type":"g:Int64","@value":77}},)"
      R"({"op":"addEdgeTo","label":"hasModerator","key":"id","value":{"@t)"
      R"(ype":"g:Int64","@value":933},"name":"Person"}]})"},
    {"add_forum_member",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Forum","key":"id","value":{"@type":"g:Int64","@value":77}},)"
      R"({"op":"addEdgeTo","label":"hasMember","key":"id","value":{"@type)"
      R"(":"g:Int64","@value":1129},"name":"Person","props":{"joinDate":{)"
      R"("@type":"g:Int64","@value":1262304000001}}}]})"},
    {"add_post",
      R"({"@type":"g:Bytecode","step":[{"op":"addV","label":"Post","props)"
      R"(":{"id":{"@type":"g:Int64","@value":1236950581249},"content":"Ab)"
      R"(out Gemini,\ta \\ sign\n","creationDate":{"@type":"g:Int64","@va)"
      R"(lue":1262304000002},"creatorId":{"@type":"g:Int64","@value":933})"
      R"(,"forumId":{"@type":"g:Int64","@value":77},"browserUsed":"Chrome)"
      R"("}}]})"},
    {"link_post_creator",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Post","key":"id","value":{"@type":"g:Int64","@value":123695)"
      R"(0581249}},{"op":"addEdgeTo","label":"postHasCreator","key":"id",)"
      R"("value":{"@type":"g:Int64","@value":933},"name":"Person"}]})"},
    {"link_post_container",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Forum","key":"id","value":{"@type":"g:Int64","@value":77}},)"
      R"({"op":"addEdgeTo","label":"containerOf","key":"id","value":{"@ty)"
      R"(pe":"g:Int64","@value":1236950581249},"name":"Post"}]})"},
    {"add_comment",
      R"({"@type":"g:Bytecode","step":[{"op":"addV","label":"Comment","pr)"
      R"(ops":{"id":{"@type":"g:Int64","@value":1236950581250},"content":)"
      R"("thx","creationDate":{"@type":"g:Int64","@value":1262304000003},)"
      R"("creatorId":{"@type":"g:Int64","@value":1129},"replyOfPost":{"@t)"
      R"(ype":"g:Int64","@value":1236950581249},"replyOfComment":{"@type")"
      R"(:"g:Int64","@value":-1}}}]})"},
    {"link_comment_creator",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Comment","key":"id","value":{"@type":"g:Int64","@value":123)"
      R"(6950581250}},{"op":"addEdgeTo","label":"commentHasCreator","key")"
      R"(:"id","value":{"@type":"g:Int64","@value":1129},"name":"Person"})"
      R"(]})"},
    {"link_reply_of_post",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Comment","key":"id","value":{"@type":"g:Int64","@value":123)"
      R"(6950581250}},{"op":"addEdgeTo","label":"replyOfPost","key":"id",)"
      R"("value":{"@type":"g:Int64","@value":1236950581249},"name":"Post")"
      R"(}]})"},
    {"link_reply_of_comment",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Comment","key":"id","value":{"@type":"g:Int64","@value":123)"
      R"(6950581251}},{"op":"addEdgeTo","label":"replyOfComment","key":"i)"
      R"(d","value":{"@type":"g:Int64","@value":1236950581250},"name":"Co)"
      R"(mment"}]})"},
    {"add_like_post",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":1129)"
      R"(}},{"op":"addEdgeTo","label":"likesPost","key":"id","value":{"@t)"
      R"(ype":"g:Int64","@value":1236950581249},"name":"Post","props":{"c)"
      R"(reationDate":{"@type":"g:Int64","@value":1262304000004}}}]})"},
    {"add_like_comment",
      R"({"@type":"g:Bytecode","step":[{"op":"V"},{"op":"hasIndexed","lab)"
      R"(el":"Person","key":"id","value":{"@type":"g:Int64","@value":933})"
      R"(},{"op":"addEdgeTo","label":"likesComment","key":"id","value":{")"
      R"(@type":"g:Int64","@value":1236950581250},"name":"Comment","props)"
      R"(":{"creationDate":{"@type":"g:Int64","@value":1262304000005}}}]})"},
};

const std::pair<const char*, const char*> kGoldenFrames[] = {
    {"empty",
      R"({"status":{"code":200},"result":{"data":[]}})"},
    {"point_lookup",
      R"({"status":{"code":200},"result":{"data":["Mahinda","Perera","mal)"
      R"(e",{"@type":"g:Int64","@value":628646400000},"Firefox","119.235.)"
      R"(7.103"]}})"},
    {"scalars",
      R"({"status":{"code":200},"result":{"data":[null,true,false,{"@type)"
      R"(":"g:Int64","@value":0},{"@type":"g:Int64","@value":-1},{"@type")"
      R"(:"g:Int64","@value":8999999999999999},{"@type":"g:Int64","@value)"
      R"(":-8999999999999999}]}})"},
    {"strings",
      R"({"status":{"code":200},"result":{"data":["","say \"hi\"","back\\)"
      "slash\",\"line\\nbreak\\r\\ttab\",\"ctl\\u0001\\u001f\177\","
      "\"na\303\257ve \346\227\245\346\234\254\",\""
      R"(/solidus/"]}})"},
    {"doubles",
      R"({"status":{"code":200},"result":{"data":[{"@type":"g:Double","@v)"
      R"(alue":2},{"@type":"g:Double","@value":-3},{"@type":"g:Double","@)"
      R"(value":0.5},{"@type":"g:Double","@value":0.10000000000000001},{")"
      R"(@type":"g:Double","@value":-2.7500000000000001e-07},{"@type":"g:)"
      R"(Double","@value":1e+20},{"@type":"g:Double","@value":123456.789})"
      R"(]}})"},
};

// Same type and same value; NaN matches NaN.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_double() && std::isnan(a.as_double())) {
    return std::isnan(b.as_double());
  }
  return a == b;
}

void ExpectSameSteps(const Traversal& got, const Traversal& want,
                     const std::string& what) {
  ASSERT_EQ(got.steps().size(), want.steps().size()) << what;
  for (size_t i = 0; i < want.steps().size(); ++i) {
    const GremlinStep& g = got.steps()[i];
    const GremlinStep& w = want.steps()[i];
    EXPECT_EQ(g.kind, w.kind) << what << " step " << i;
    EXPECT_EQ(g.label, w.label) << what << " step " << i;
    EXPECT_EQ(g.key, w.key) << what << " step " << i;
    EXPECT_TRUE(SameValue(g.value, w.value)) << what << " step " << i;
    EXPECT_EQ(g.n, w.n) << what << " step " << i;
    EXPECT_EQ(g.name, w.name) << what << " step " << i;
    EXPECT_EQ(g.name2, w.name2) << what << " step " << i;
    ASSERT_EQ(g.props.size(), w.props.size()) << what << " step " << i;
    for (size_t p = 0; p < w.props.size(); ++p) {
      EXPECT_EQ(g.props.entries()[p].first, w.props.entries()[p].first)
          << what << " step " << i;
      EXPECT_TRUE(SameValue(g.props.entries()[p].second,
                            w.props.entries()[p].second))
          << what << " step " << i << " prop " << p;
    }
  }
}

void ExpectSameValues(const std::vector<Value>& got,
                      const std::vector<Value>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameValue(got[i], want[i]))
        << what << " value " << i << ": " << got[i].ToString() << " vs "
        << want[i].ToString();
  }
}

// --- Golden bytes -----------------------------------------------------------

TEST(GraphsonGoldenTest, TraversalsEncodeToThePinnedBytes) {
  auto cases = SutTraversals();
  ASSERT_EQ(cases.size(), std::size(kGoldenTraversals));
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, traversal] = cases[i];
    ASSERT_EQ(name, kGoldenTraversals[i].first);
    const std::string golden = kGoldenTraversals[i].second;
    EXPECT_EQ(gremlinio::EncodeTraversal(traversal), golden) << name;
    auto decoded = gremlinio::DecodeTraversal(golden);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    ExpectSameSteps(*decoded, traversal, name);
  }
}

TEST(GraphsonGoldenTest, FramesEncodeToThePinnedBytes) {
  auto cases = ResultFrames();
  ASSERT_EQ(cases.size(), std::size(kGoldenFrames));
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, values] = cases[i];
    ASSERT_EQ(name, kGoldenFrames[i].first);
    const std::string golden = kGoldenFrames[i].second;
    EXPECT_EQ(gremlinio::EncodeResults(values), golden) << name;
    auto decoded = gremlinio::DecodeResults(golden);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    ExpectSameValues(*decoded, values, name);
  }
}

// --- Seeded round trips -----------------------------------------------------

std::string RandomText(Rng& rng) {
  static const char* kPieces[] = {"a", "Z", "9", " ", "\"", "\\", "/", "\n",
                                  "\t", "\r", "\x01", "\x1f", "\x7f",
                                  "\xc3\xaf", "\xe6\x97\xa5", "{", "}", ":",
                                  ",", "[", "]", "@type", "g:Int64"};
  std::string out;
  for (uint64_t n = rng.Uniform(24); n > 0; --n) {
    out += kPieces[rng.Uniform(std::size(kPieces))];
  }
  return out;
}

Value RandomValue(Rng& rng) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (rng.Uniform(9)) {
    case 0: return Value();
    case 1: return Value(rng.Uniform(2) == 1);
    case 2: return Value(int64_t(rng.Next()));
    case 3: {
      const int64_t edges[] = {kMin, kMax, 0, -1, (int64_t{1} << 53) + 1,
                               -(int64_t{1} << 53) - 1, 8999999999999999,
                               9000000000000000};
      return Value(edges[rng.Uniform(std::size(edges))]);
    }
    case 4: return Value(rng.UniformRange(-100000, 100000));
    case 5: {
      uint64_t bits = rng.Next();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case 6: {
      const double edges[] = {0.0, -0.5, 2.0, 1e20, 9e15, -9e15, 0.1,
                              std::numeric_limits<double>::max(),
                              std::numeric_limits<double>::min(),
                              std::numeric_limits<double>::denorm_min(),
                              kInf, -kInf,
                              std::numeric_limits<double>::quiet_NaN()};
      return Value(edges[rng.Uniform(std::size(edges))]);
    }
    case 7: return Value(rng.NextDouble() * 1e6 - 5e5);
    default: return Value(RandomText(rng));
  }
}

Traversal RandomTraversal(Rng& rng) {
  Traversal t;
  for (uint64_t n = rng.Uniform(8); n > 0; --n) {
    GremlinStep step{};
    step.kind = GremlinStep::Kind(rng.Uniform(20));
    if (rng.Uniform(2)) step.label = RandomText(rng);
    if (rng.Uniform(2)) step.key = RandomText(rng);
    if (rng.Uniform(2)) step.value = RandomValue(rng);
    if (rng.Uniform(2)) step.n = int64_t(rng.Next());
    if (rng.Uniform(3) == 0) step.name = RandomText(rng);
    if (rng.Uniform(3) == 0) step.name2 = RandomText(rng);
    for (uint64_t p = rng.Uniform(4); p > 0; --p) {
      step.props.Set(RandomText(rng), RandomValue(rng));
    }
    t.mutable_steps()->push_back(std::move(step));
  }
  return t;
}

TEST(GraphsonRoundTripTest, RandomTraversalsDecodeToWhatWasEncoded) {
  Rng rng(18);
  for (int i = 0; i < 3000; ++i) {
    Traversal t = RandomTraversal(rng);
    std::string bytes = gremlinio::EncodeTraversal(t);
    auto decoded = gremlinio::DecodeTraversal(bytes);
    ASSERT_TRUE(decoded.ok()) << bytes << ": " << decoded.status().ToString();
    ExpectSameSteps(*decoded, t, bytes);
    // Stable: re-encoding the decoded traversal writes the same text.
    EXPECT_EQ(gremlinio::EncodeTraversal(*decoded), bytes);
  }
}

TEST(GraphsonRoundTripTest, RandomFramesDecodeToWhatWasEncoded) {
  Rng rng(19);
  for (int i = 0; i < 3000; ++i) {
    std::vector<Value> values;
    for (uint64_t n = rng.Uniform(30); n > 0; --n) {
      values.push_back(RandomValue(rng));
    }
    std::string bytes = gremlinio::EncodeResults(values);
    auto decoded = gremlinio::DecodeResults(bytes);
    ASSERT_TRUE(decoded.ok()) << bytes << ": " << decoded.status().ToString();
    ExpectSameValues(*decoded, values, bytes);
    EXPECT_EQ(gremlinio::EncodeResults(*decoded), bytes);
  }
}

// --- Mutants ----------------------------------------------------------------

std::vector<std::string> GoldenTexts() {
  std::vector<std::string> texts;
  for (const auto& [name, text] : kGoldenTraversals) texts.push_back(text);
  for (const auto& [name, text] : kGoldenFrames) texts.push_back(text);
  return texts;
}

// Decodes `text` as both a request and a frame. Either may fail; neither
// may crash, and a decoded value re-encodes.
void DecodeBoth(const std::string& text) {
  auto t = gremlinio::DecodeTraversal(text);
  if (t.ok()) gremlinio::EncodeTraversal(*t);
  auto r = gremlinio::DecodeResults(text);
  if (r.ok()) gremlinio::EncodeResults(*r);
}

TEST(GraphsonMutantTest, TruncatedTextIsAnError) {
  for (const std::string& text : GoldenTexts()) {
    for (size_t len = 0; len < text.size(); ++len) {
      std::string cut = text.substr(0, len);
      EXPECT_FALSE(gremlinio::DecodeTraversal(cut).ok()) << cut;
      EXPECT_FALSE(gremlinio::DecodeResults(cut).ok()) << cut;
    }
  }
}

TEST(GraphsonMutantTest, FlippedDroppedAndDuplicatedBytesNeverCrash) {
  Rng rng(20);
  for (const std::string& text : GoldenTexts()) {
    for (size_t i = 0; i < text.size(); ++i) {
      std::string flipped = text;
      flipped[i] = char(flipped[i] ^ (1 << rng.Uniform(8)));
      DecodeBoth(flipped);
      std::string replaced = text;
      replaced[i] = char(rng.Uniform(256));
      DecodeBoth(replaced);
      DecodeBoth(text.substr(0, i) + text.substr(i + 1));
      DecodeBoth(text.substr(0, i + 1) + text.substr(i));
    }
  }
}

// Rebuilds a JSON document with the members of every object shuffled,
// except a step's "props", whose order is data (valueMap's output order).
Json ShuffleKeys(const Json& j, Rng& rng, bool keep_order = false) {
  if (j.type() == Json::Type::kArray) {
    Json out = Json::Array();
    for (size_t i = 0; i < j.size(); ++i) out.Append(ShuffleKeys(j.at(i), rng));
    return out;
  }
  if (j.type() != Json::Type::kObject) return j;
  std::vector<size_t> order(j.object_pairs().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (!keep_order) rng.Shuffle(&order);
  Json out = Json::Object();
  for (size_t i : order) {
    const auto& [key, value] = j.object_pairs()[i];
    out.Set(key, ShuffleKeys(value, rng, key == "props"));
  }
  return out;
}

TEST(GraphsonMutantTest, ReorderedKeysDecodeTheSame) {
  Rng rng(21);
  auto traversals = SutTraversals();
  auto frames = ResultFrames();
  for (int round = 0; round < 20; ++round) {
    for (const auto& [name, traversal] : traversals) {
      auto doc = Json::Parse(gremlinio::EncodeTraversal(traversal));
      ASSERT_TRUE(doc.ok()) << name;
      std::string shuffled = ShuffleKeys(*doc, rng).Serialize();
      auto decoded = gremlinio::DecodeTraversal(shuffled);
      ASSERT_TRUE(decoded.ok()) << shuffled << ": "
                                << decoded.status().ToString();
      ExpectSameSteps(*decoded, traversal, shuffled);
    }
    for (const auto& [name, values] : frames) {
      auto doc = Json::Parse(gremlinio::EncodeResults(values));
      ASSERT_TRUE(doc.ok()) << name;
      std::string shuffled = ShuffleKeys(*doc, rng).Serialize();
      auto decoded = gremlinio::DecodeResults(shuffled);
      ASSERT_TRUE(decoded.ok()) << shuffled << ": "
                                << decoded.status().ToString();
      ExpectSameValues(*decoded, values, shuffled);
    }
  }
}

// --- Deterministic allocation gate ------------------------------------------

long AllocationsOf(const std::function<void()>& fn) {
  long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Encoding reserves its one string up front; decoding allocates only what
// the decoded steps and values keep. The JSON-document codec this one
// replaced made, over the same cases, 540 allocations to encode and 533 to
// decode the 23 requests (75 steps), and 79 and 64 for the 5 frames (27
// values).
constexpr long kDecodeAllocationsPerStep = 2;
constexpr long kDecodeAllocationsPerValue = 1;

TEST(GraphsonAllocationTest, CodecAllocationsStayWithinBounds) {
  long encode_requests = 0, decode_requests = 0, steps = 0;
  for (const auto& [name, traversal] : SutTraversals()) {
    std::string bytes;
    long n = AllocationsOf(
        [&] { bytes = gremlinio::EncodeTraversal(traversal); });
    EXPECT_LE(n, 1) << name;
    encode_requests += n;
    long m = AllocationsOf([&] {
      ASSERT_TRUE(gremlinio::DecodeTraversal(bytes).ok()) << name;
    });
    decode_requests += m;
    steps += long(traversal.steps().size());
    std::printf("  %-22s encode %ld  decode %3ld  (%zu steps)\n", name.c_str(),
                n, m, traversal.steps().size());
  }
  long encode_frames = 0, decode_frames = 0, values = 0;
  for (const auto& [name, frame] : ResultFrames()) {
    std::string bytes;
    long n = AllocationsOf([&] { bytes = gremlinio::EncodeResults(frame); });
    EXPECT_LE(n, 1) << name;
    encode_frames += n;
    long m = AllocationsOf([&] {
      ASSERT_TRUE(gremlinio::DecodeResults(bytes).ok()) << name;
    });
    decode_frames += m;
    values += long(frame.size());
    std::printf("  %-22s encode %ld  decode %3ld  (%zu values)\n", name.c_str(),
                n, m, frame.size());
  }
  std::printf("requests: encode %ld (DOM codec 540), decode %ld (DOM 533) "
              "over %ld steps\n",
              encode_requests, decode_requests, steps);
  std::printf("frames:   encode %ld (DOM codec 79), decode %ld (DOM 64) "
              "over %ld values\n",
              encode_frames, decode_frames, values);
  EXPECT_LE(decode_requests, kDecodeAllocationsPerStep * steps);
  EXPECT_LE(decode_frames, kDecodeAllocationsPerValue * values);
}

}  // namespace
}  // namespace graphbench
