#include "util/json.h"

#include <gtest/gtest.h>

namespace graphbench {
namespace {

TEST(JsonTest, SerializeScalars) {
  EXPECT_EQ(Json::Null().Serialize(), "null");
  EXPECT_EQ(Json::Bool(true).Serialize(), "true");
  EXPECT_EQ(Json::Bool(false).Serialize(), "false");
  EXPECT_EQ(Json::Int(42).Serialize(), "42");
  EXPECT_EQ(Json::Int(-7).Serialize(), "-7");
  EXPECT_EQ(Json::Str("hi").Serialize(), "\"hi\"");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(Json::Str("a\"b\\c\nd").Serialize(), "\"a\\\"b\\\\c\\nd\"");
  auto parsed = Json::Parse("\"a\\\"b\\\\c\\nd\\t\\u0041\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\nd\tA");
}

TEST(JsonTest, ArraysAndObjects) {
  Json arr = Json::Array();
  arr.Append(Json::Int(1));
  arr.Append(Json::Str("two"));
  Json obj = Json::Object();
  obj.Set("list", std::move(arr));
  obj.Set("flag", Json::Bool(true));
  EXPECT_EQ(obj.Serialize(), "{\"list\":[1,\"two\"],\"flag\":true}");
}

TEST(JsonTest, ParseRoundTrip) {
  const char* doc =
      "{\"a\":1,\"b\":[true,null,2.5],\"c\":{\"nested\":\"x\"}}";
  auto parsed = Json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("a").as_int(), 1);
  EXPECT_EQ(parsed->Get("b").size(), 3u);
  EXPECT_TRUE(parsed->Get("b").at(1).is_null());
  EXPECT_DOUBLE_EQ(parsed->Get("b").at(2).as_number(), 2.5);
  EXPECT_EQ(parsed->Get("c").Get("nested").as_string(), "x");
  EXPECT_FALSE(parsed->Has("zzz"));
  EXPECT_TRUE(parsed->Get("zzz").is_null());
  // Re-serialize and re-parse: stable.
  auto again = Json::Parse(parsed->Serialize());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Serialize(), parsed->Serialize());
}

TEST(JsonTest, ParseWhitespaceAndNegatives) {
  auto parsed = Json::Parse("  { \"k\" : [ -3 , 1e2 ] }  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("k").at(0).as_int(), -3);
  EXPECT_DOUBLE_EQ(parsed->Get("k").at(1).as_number(), 100.0);
}

TEST(JsonTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("{} extra").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
}

TEST(JsonTest, ParseNumbersFollowTheJsonGrammar) {
  // Each of these used to abort the process (std::stod threw) or parse a
  // prefix; all are InvalidArgument now.
  for (const char* bad : {"-", "[-]", "[1e999]", "1.2.3", "[1.2.3]", "01",
                          "1.", ".5", "+1", "1e", "1e+", "--1", "[-e1]"}) {
    auto parsed = Json::Parse(bad);
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
  for (auto [text, want] : {std::pair{"0", 0.0}, std::pair{"-0.5", -0.5},
                            std::pair{"12.25e2", 1225.0},
                            std::pair{"1E-2", 0.01}, std::pair{"2e+3", 2000.0},
                            std::pair{"1e308", 1e308}}) {
    auto parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_DOUBLE_EQ(parsed->as_number(), want) << text;
  }
}

TEST(JsonTest, SetOverwritesKey) {
  Json obj = Json::Object();
  obj.Set("k", Json::Int(1));
  obj.Set("k", Json::Int(2));
  EXPECT_EQ(obj.Get("k").as_int(), 2);
  EXPECT_EQ(obj.object_pairs().size(), 1u);
}

}  // namespace
}  // namespace graphbench
