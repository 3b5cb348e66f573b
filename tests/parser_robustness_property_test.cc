// Robustness of the SQL, Cypher and SPARQL front ends under mutation. Every
// workload statement text is cut at each token boundary, has one token
// dropped, duplicated or swapped, gets stray punctuation inserted, and has
// its keywords' case flipped. All three parsers must return OK or a
// non-OK Status for every mutant, never crash; under the sanitizer build
// this is also where a token view that outlives its text would show.
// A keyword-case flip of each read, executed on the sut_equivalence_test
// dataset, must return the same rows as the original text.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lang/cypher/parser.h"
#include "lang/lexer.h"
#include "lang/sparql/parser.h"
#include "lang/sql/parser.h"
#include "snb/datagen.h"
#include "sut/cypher_sut.h"
#include "sut/relational_sut.h"
#include "sut/sparql_sut.h"
#include "util/random.h"
#include "workload_statements.h"

namespace graphbench {
namespace {

using workload_statements::Statement;

LexerOptions OptionsFor(bool sparql) {
  LexerOptions o;
  o.question_mark_is_variable = sparql;
  o.colon_in_identifiers = sparql;
  return o;
}

// The statement's tokens spelled back as source text (sigils and quotes
// restored), so mutants can be built a token at a time.
std::vector<std::string> Pieces(std::string_view text, bool sparql) {
  TokenStream tokens;
  Status s = Tokenize(text, OptionsFor(sparql), &tokens);
  EXPECT_TRUE(s.ok()) << text << ": " << s.ToString();
  std::vector<std::string> out;
  for (const Token& t : tokens.tokens()) {
    std::string piece;
    switch (t.kind) {
      case Token::Kind::kEnd:
        continue;
      case Token::Kind::kParam:
        piece = t.text.empty() ? "?" : "$";
        break;
      case Token::Kind::kVariable:
        piece = "?";
        break;
      case Token::Kind::kString:
        piece = "'";
        break;
      default:
        break;
    }
    piece += t.text;
    if (t.kind == Token::Kind::kString) piece += "'";
    out.push_back(std::move(piece));
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces, size_t n) {
  std::string out;
  for (size_t i = 0; i < n && i < pieces.size(); ++i) {
    if (i) out += ' ';
    out += pieces[i];
  }
  return out;
}

// `text` with the case of every keyword changed: mode 0 lower, 1 upper,
// 2 a random case per letter. Edits go through the token views, which
// point into the text.
std::string FlipKeywordCase(const std::string& text, bool sparql, int mode,
                            Rng* rng) {
  std::string out = text;
  TokenStream tokens;
  EXPECT_TRUE(Tokenize(text, OptionsFor(sparql), &tokens).ok());
  for (const Token& t : tokens.tokens()) {
    if (t.kind != Token::Kind::kIdentifier || t.sym == Sym::kNone) continue;
    size_t at = size_t(t.text.data() - text.data());
    for (size_t i = 0; i < t.text.size(); ++i) {
      char c = t.text[i];
      bool upper = mode == 1 || (mode == 2 && rng->Uniform(2) == 1);
      if (c >= 'a' && c <= 'z' && upper) c = char(c - 'a' + 'A');
      if (c >= 'A' && c <= 'Z' && !upper) c = char(c - 'A' + 'a');
      out[at + i] = c;
    }
  }
  return out;
}

std::vector<std::string> Mutants(const std::string& text, bool sparql,
                                 Rng* rng) {
  static const char* kStrays[] = {
      "(", ")", ",", ".", "..", ";", ":", "{", "}", "[", "]", "-", "->",
      "<-", "*", "=", "<>", "!=", "?", "$", "$x", "?x", "'", "\"", "\\",
      "@", "AND", "SELECT", "MATCH", "LIMIT", "99999999999999999999999",
      "1.2.3", "-1", "''"};
  std::vector<std::string> pieces = Pieces(text, sparql);
  const size_t n = pieces.size();
  std::vector<std::string> out;
  for (size_t k = 0; k <= n; ++k) out.push_back(Join(pieces, k));
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> p = pieces;
    p.erase(p.begin() + long(i));
    out.push_back(Join(p, p.size()));
    p = pieces;
    p.insert(p.begin() + long(i), pieces[i]);
    out.push_back(Join(p, p.size()));
    if (i + 1 < n) {
      p = pieces;
      std::swap(p[i], p[i + 1]);
      out.push_back(Join(p, p.size()));
    }
    p = pieces;
    std::swap(p[i], p[rng->Uniform(n)]);
    out.push_back(Join(p, p.size()));
  }
  for (int k = 0; k < 40; ++k) {
    std::vector<std::string> p = pieces;
    p.insert(p.begin() + long(rng->Uniform(n + 1)),
             kStrays[rng->Uniform(std::size(kStrays))]);
    out.push_back(Join(p, p.size()));
  }
  for (int mode = 0; mode < 3; ++mode) {
    out.push_back(FlipKeywordCase(text, sparql, mode, rng));
  }
  return out;
}

TEST(ParserRobustnessTest, EveryParserSurvivesEveryMutant) {
  struct Set {
    const Statement* begin;
    const Statement* end;
    bool sparql;
  };
  Rng rng(2017);
  size_t mutants = 0, parsed_ok = 0;
  for (Set set : {Set{std::begin(workload_statements::kSql),
                      std::end(workload_statements::kSql), false},
                  Set{std::begin(workload_statements::kCypher),
                      std::end(workload_statements::kCypher), false},
                  Set{std::begin(workload_statements::kSparql),
                      std::end(workload_statements::kSparql), true}}) {
    for (const Statement* s = set.begin; s != set.end; ++s) {
      for (const std::string& m : Mutants(s->text, set.sparql, &rng)) {
        // The parsers run on a private copy that dies first, so a view
        // kept past the call would read freed memory.
        auto copy = std::make_unique<std::string>(m);
        Status a = sql::Parse(*copy).status();
        Status b = cypher::Parse(*copy).status();
        Status c = sparql::Parse(*copy).status();
        copy.reset();
        for (const Status& st : {a, b, c}) {
          EXPECT_TRUE(st.ok() || st.IsInvalidArgument())
              << st.ToString() << " for: " << m;
          parsed_ok += st.ok();
        }
        ++mutants;
      }
    }
  }
  std::printf("%zu mutants, %zu parses accepted\n", mutants, parsed_ok);
  EXPECT_GT(mutants, 5000u);
}

// --- Keyword case flips against the equivalence fixture ---------------------

const snb::Dataset& SharedDataset() {
  static const snb::Dataset* data = [] {
    snb::DatagenOptions o;  // the sut_equivalence_test dataset
    o.num_persons = 60;
    o.seed = 99;
    o.max_degree = 20;
    return new snb::Dataset(snb::Generate(o));
  }();
  return *data;
}

// Parameters of one read, chosen so that the reads return rows.
struct ReadArgs {
  int64_t person = 0, other = 0, post = 0, limit = 5;
  std::string friend_name;
};

ReadArgs ChooseArgs() {
  const snb::Dataset& d = SharedDataset();
  ReadArgs a;
  const snb::Knows& k = d.knows.front();
  a.person = k.person1;
  a.other = d.persons.back().id;
  for (const snb::Person& p : d.persons) {
    if (p.id == k.person2) a.friend_name = p.first_name;
  }
  for (const snb::Comment& c : d.comments) {
    if (c.reply_of_post >= 0) {
      a.post = c.reply_of_post;
      break;
    }
  }
  return a;
}

Result<QueryResult> RunSql(Database* db, const std::string& name,
                           const std::string& text, const ReadArgs& a) {
  std::map<std::string, std::vector<Value>> params = {
      {"point_lookup", {Value(a.person)}},
      {"one_hop", {Value(a.person)}},
      {"two_hop", {Value(a.person), Value(a.person)}},
      {"shortest_path", {Value(a.person), Value(a.other)}},
      {"recent_posts", {Value(a.person), Value(a.limit)}},
      {"friends_with_name", {Value(a.person), Value(a.friend_name)}},
      {"replies_of_post", {Value(a.post)}},
      {"top_posters", {Value(a.limit)}},
  };
  return db->Execute(text, params.at(name));
}

std::map<std::string, Value> NamedParams(const std::string& name,
                                         const ReadArgs& a, bool sparql) {
  if (name == "shortest_path") {
    return sparql ? std::map<std::string, Value>{{"from_id", Value(a.person)},
                                                 {"to_id", Value(a.other)}}
                  : std::map<std::string, Value>{{"a", Value(a.person)},
                                                 {"b", Value(a.other)}};
  }
  const std::string id = sparql ? (name == "replies_of_post" ? "post_id"
                                                             : "person_id")
                                : "id";
  std::map<std::string, Value> p;
  if (name != "top_posters") {
    p[id] = Value(name == "replies_of_post" ? a.post : a.person);
  }
  if (name == "recent_posts" || name == "top_posters") {
    p["limit"] = Value(a.limit);
  }
  if (name == "friends_with_name") {
    p[sparql ? "first_name" : "name"] = Value(a.friend_name);
  }
  return p;
}

TEST(ParserRobustnessTest, KeywordCaseFlipsReturnTheSameRows) {
  const ReadArgs args = ChooseArgs();
  ASSERT_FALSE(args.friend_name.empty());
  Rng rng(44);
  size_t non_empty = 0;
  for (SutKind kind : {SutKind::kPostgresSql, SutKind::kVirtuosoSql,
                       SutKind::kNeo4jCypher, SutKind::kVirtuosoSparql}) {
    std::unique_ptr<Sut> sut = MakeSut(kind);
    ASSERT_TRUE(sut->Load(SharedDataset()).ok()) << sut->name();
    auto* relational = dynamic_cast<RelationalSut*>(sut.get());
    auto* cypher = dynamic_cast<CypherSut*>(sut.get());
    auto* sparql = dynamic_cast<SparqlSut*>(sut.get());
    const bool is_sparql = sparql != nullptr;
    const Statement* table = relational != nullptr
                                 ? workload_statements::kSql
                             : cypher != nullptr ? workload_statements::kCypher
                                                 : workload_statements::kSparql;
    auto run = [&](const std::string& name, const std::string& text) {
      if (relational != nullptr) {
        return RunSql(relational->database(), name, text, args);
      }
      if (cypher != nullptr) {
        return cypher->engine()->Execute(text,
                                         NamedParams(name, args, false));
      }
      return sparql->engine()->Execute(text, NamedParams(name, args, true));
    };
    for (size_t i = 0; i < 8; ++i) {  // the eight reads lead each table
      const std::string name = table[i].name;
      const std::string text = table[i].text;
      auto want = run(name, text);
      ASSERT_TRUE(want.ok()) << sut->name() << " " << name << ": "
                             << want.status().ToString();
      non_empty += !want->rows.empty();
      for (int mode = 0; mode < 3; ++mode) {
        std::string flipped = FlipKeywordCase(text, is_sparql, mode, &rng);
        auto got = run(name, flipped);
        ASSERT_TRUE(got.ok()) << flipped << ": " << got.status().ToString();
        EXPECT_EQ(got->columns, want->columns) << flipped;
        EXPECT_TRUE(got->rows == want->rows) << flipped;
      }
    }
  }
  // Most reads must have had rows to compare.
  EXPECT_GE(non_empty, 24u);
}

}  // namespace
}  // namespace graphbench
