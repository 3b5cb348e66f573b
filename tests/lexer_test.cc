#include "lang/lexer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <string>

#include "lang/cypher/parser.h"
#include "lang/sparql/parser.h"
#include "lang/sql/parser.h"
#include "sut/sut.h"
#include "util/string_util.h"
#include "workload_statements.h"

// Counts every heap allocation made through operator new in this binary
// (the aligned forms too: std::pmr's default resource uses them), so the
// front end's allocations per statement can be gated exactly.
static std::atomic<long> g_allocations{0};

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size_t a = size_t(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new[](size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace graphbench {
namespace {

LexerOptions SparqlOptions() {
  LexerOptions o;
  o.question_mark_is_variable = true;
  o.colon_in_identifiers = true;
  return o;
}

// One token as "<kind>:<text>"; keywords render as "kw:<spelling>".
std::string Render(const Token& t) {
  std::string text(t.text);
  switch (t.kind) {
    case Token::Kind::kIdentifier:
      return t.sym == Sym::kNone ? "id:" + text
                                 : "kw:" + std::string(SymSpelling(t.sym));
    case Token::Kind::kInteger:
      return "int:" + std::to_string(t.int_value);
    case Token::Kind::kFloat:
      return "float:" + std::to_string(t.float_value);
    case Token::Kind::kString:
      return "str:" + text;
    case Token::Kind::kParam:
      return "param:" + text;
    case Token::Kind::kVariable:
      return "var:" + text;
    case Token::Kind::kPunct:
      return "p:" + text;
    case Token::Kind::kEnd:
      return "end";
  }
  return "?";
}

// The whole stream rendered and space-joined, or "error: <message>".
std::string Lexed(std::string_view text, const LexerOptions& options = {}) {
  TokenStream tokens;
  Status s = Tokenize(text, options, &tokens);
  if (!s.ok()) return "error: " + s.message();
  std::string out;
  for (const Token& t : tokens.tokens()) {
    if (!out.empty()) out += ' ';
    out += Render(t);
  }
  return out;
}

struct LexCase {
  const char* input;
  bool sparql;  // SparqlOptions() instead of the SQL/Cypher defaults
  const char* want;
};

TEST(LexerTest, OracleTable) {
  const LexCase kCases[] = {
      // Keywords in any case carry their code; other words do not.
      {"SeLeCt name FROM t", false, "kw:SELECT id:name kw:FROM id:t end"},
      {"match RETURN Limit order by", false,
       "kw:MATCH kw:RETURN kw:LIMIT kw:ORDER kw:BY end"},
      {"shortestpath SHORTEST_PATH selected count_", false,
       "kw:shortestPath kw:SHORTEST_PATH id:selected id:count_ end"},
      // '?' is a positional parameter in SQL, a variable sigil in SPARQL.
      {"id = ?", false, "id:id p:= param: end"},
      {"?x", false, "param: id:x end"},
      {"?x ? ?y_2", true, "var:x param: var:y_2 end"},
      // $name parameters; a bare '$' is punctuation.
      {"$name $a1 $ 1", false, "param:name param:a1 p:$ int:1 end"},
      // Prefixed names need the SPARQL option.
      {"snb:knows ?p", true, "id:snb:knows var:p end"},
      {"snb:knows", false, "id:snb p:: id:knows end"},
      // An integer before '..' stays an integer.
      {"*1..2", false, "p:* int:1 p:.. int:2 end"},
      {"[:knows*2..]", false, "p:[ p:: id:knows p:* int:2 p:.. p:] end"},
      // Two-byte operators, and their one-byte prefixes.
      {"<- -> <> != <= >= < > - !", false,
       "p:<- p:-> p:<> p:!= p:<= p:>= p:< p:> p:- p:! end"},
      {"a<-b", false, "id:a p:<- id:b end"},
      // A '-' after punctuation (or first) signs a number; after an operand
      // it is binary minus.
      {"= -5", false, "p:= int:-5 end"},
      {"-7", false, "int:-7 end"},
      {"x -5", false, "id:x p:- int:5 end"},
      {"2 -5", false, "int:2 p:- int:5 end"},
      {"(-2.5)", false, "p:( float:-2.500000 p:) end"},
      // Floats versus member access.
      {"a.b 2.5 3.x", false,
       "id:a p:. id:b float:2.500000 int:3 p:. id:x end"},
      // Strings: both quotes, escapes removed.
      {"'D\\'Arcy'", false, "str:D'Arcy end"},
      {"\"c\\\"d\" ''", false, "str:c\"d str: end"},
      {"'it''s'", false, "str:it str:s end"},
      // Bytes in no class lex as one-byte punctuation.
      {"a @ b + c/d|", false, "id:a p:@ id:b p:+ id:c p:/ id:d p:| end"},
      {"", false, "end"},
      {"  \t\n ", false, "end"},
      // Errors.
      {"'oops", false, "error: unterminated string"},
      {"'oops\\", false, "error: unterminated string"},
      {"SELECT 'a\\'b", false, "error: unterminated string"},
  };
  for (const LexCase& c : kCases) {
    EXPECT_EQ(Lexed(c.input, c.sparql ? SparqlOptions() : LexerOptions{}),
              c.want)
        << "input: " << c.input;
  }
}

TEST(LexerTest, EveryKeywordLexesToItsCodeInAnyCase) {
  for (int code = int(Sym::kAnd); code <= int(Sym::kWhere); ++code) {
    Sym sym = Sym(code);
    std::string word(SymSpelling(sym));
    std::string lower = word, upper = word;
    for (char& c : lower) c = AsciiToLower(c);
    for (char& c : upper) c = char(std::toupper(static_cast<unsigned char>(c)));
    for (const std::string& w : {word, lower, upper, word + "x", "x" + word}) {
      TokenStream tokens;
      ASSERT_TRUE(Tokenize(w, {}, &tokens).ok()) << w;
      ASSERT_EQ(tokens.size(), 2u) << w;
      bool exact = w.size() == word.size();
      EXPECT_EQ(tokens[0].sym, exact ? sym : Sym::kNone) << w;
      EXPECT_EQ(tokens[0].kind, Token::Kind::kIdentifier) << w;
    }
  }
}

TEST(LexerTest, NumbersConvertExactlyOrFail) {
  EXPECT_EQ(Lexed("9223372036854775807, -9223372036854775808"),
            "int:9223372036854775807 p:, int:-9223372036854775808 end");
  // Out of range or malformed is an error, never an abort or a prefix.
  for (const char* bad : {"99999999999999999999999", "9223372036854775808",
                          "= -9223372036854775809", "1.2.3", "1.5.5.5"}) {
    TokenStream tokens;
    EXPECT_TRUE(Tokenize(bad, {}, &tokens).IsInvalidArgument()) << bad;
  }
  TokenStream tokens;
  Status s = Tokenize("WHERE id = 99999999999999999999999", {}, &tokens);
  EXPECT_EQ(s.message(), "number out of range: '99999999999999999999999'");
}

TEST(LexerTest, LiteralsOwnTheirValues) {
  TokenStream tokens;
  ASSERT_TRUE(Tokenize("42 2.5 'abc'", {}, &tokens).ok());
  EXPECT_EQ(tokens[0].literal(), Value(int64_t{42}));
  EXPECT_EQ(tokens[1].literal(), Value(2.5));
  EXPECT_EQ(tokens[2].literal(), Value(std::string("abc")));
}

TEST(LexerTest, ViewsPointIntoTheTextOrTheStream) {
  const std::string text = "MATCH 'plain' 'esc\\'aped' $p";
  TokenStream tokens;
  ASSERT_TRUE(Tokenize(text, {}, &tokens).ok());
  auto in_text = [&](std::string_view v) {
    return v.data() >= text.data() && v.data() + v.size() <= text.data() +
                                                               text.size();
  };
  EXPECT_TRUE(in_text(tokens[0].text));
  EXPECT_TRUE(in_text(tokens[1].text));
  EXPECT_FALSE(in_text(tokens[2].text));  // unescaped into the stream
  EXPECT_EQ(tokens[2].text, "esc'aped");
  EXPECT_TRUE(in_text(tokens[3].text));
  EXPECT_EQ(tokens[3].text, "p");
}

TEST(LexerTest, RelexingAStreamReplacesItsTokens) {
  TokenStream tokens;
  ASSERT_TRUE(Tokenize("'a\\'b' x y z", {}, &tokens).ok());
  ASSERT_TRUE(Tokenize("'c\\'d'", {}, &tokens).ok());
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "c'd");
}

TEST(LexerTest, CursorHelpers) {
  TokenStream tokens;
  ASSERT_TRUE(Tokenize("MATCH ( x )", {}, &tokens).ok());
  TokenCursor cur(tokens);
  EXPECT_TRUE(cur.TryKeyword(Sym::kMatch));
  EXPECT_FALSE(cur.TryKeyword(Sym::kReturn));
  EXPECT_EQ(cur.CountAhead(Sym::kRParen), 1u);
  EXPECT_TRUE(cur.ExpectPunct(Sym::kLParen).ok());
  EXPECT_EQ(cur.Advance().text, "x");
  EXPECT_TRUE(cur.ExpectPunct(Sym::kRParen).ok());
  EXPECT_TRUE(cur.AtEnd());
  Status s = cur.ExpectPunct(Sym::kLParen);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "expected '(' near ''");
  EXPECT_EQ(cur.ExpectKeyword(Sym::kShortestPath).message(),
            "expected keyword 'shortestPath' near ''");
}

// --- Deterministic work gate ------------------------------------------------

long AllocationsOf(const std::function<void()>& fn) {
  long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

enum class Lang { kSql, kCypher, kSparql };

struct Workload {
  Lang lang;
  const workload_statements::Statement* begin;
  const workload_statements::Statement* end;
};

const Workload kWorkloads[] = {
    {Lang::kSql, std::begin(workload_statements::kSql),
     std::end(workload_statements::kSql)},
    {Lang::kCypher, std::begin(workload_statements::kCypher),
     std::end(workload_statements::kCypher)},
    {Lang::kSparql, std::begin(workload_statements::kSparql),
     std::end(workload_statements::kSparql)},
};

const char* LangName(Lang lang) {
  switch (lang) {
    case Lang::kSql: return "sql";
    case Lang::kCypher: return "cypher";
    case Lang::kSparql: return "sparql";
  }
  return "?";
}

TEST(LexerAllocationTest, TokenizeAllocatesAtMostOnce) {
  for (const Workload& w : kWorkloads) {
    LexerOptions options = w.lang == Lang::kSparql ? SparqlOptions()
                                                   : LexerOptions{};
    for (auto* s = w.begin; s != w.end; ++s) {
      size_t count = 0;
      long n = AllocationsOf([&] {
        TokenStream tokens;
        ASSERT_TRUE(Tokenize(s->text, options, &tokens).ok()) << s->text;
        count = tokens.size();
      });
      // Every workload statement fits the inline tokens.
      ASSERT_LE(count, TokenStream::kInlineTokens) << s->name;
      EXPECT_EQ(n, 0) << LangName(w.lang) << " " << s->name;
    }
  }
  // A longer statement moves to the heap once, never growing after that.
  std::string in_list = "SELECT id FROM person WHERE id IN (0";
  for (int i = 1; i < 500; ++i) in_list += ", " + std::to_string(i);
  in_list += ")";
  long n = AllocationsOf([&] {
    TokenStream tokens;
    ASSERT_TRUE(Tokenize(in_list, {}, &tokens).ok());
    EXPECT_EQ(tokens.size(), 1009u);
  });
  EXPECT_EQ(n, 1);
}

// Heap allocations per Parse, summed per language over every workload
// text: the AST the engines keep (the tokens are inline). The bounds are what
// this front end makes with libstdc++; the lexer it replaced, which copied
// every token's text into a std::string, made 324, 429 and 112.
TEST(LexerAllocationTest, ParseAllocationsStayWithinBounds) {
  const long kBound[] = {169, 265, 36};
  for (const Workload& w : kWorkloads) {
    long total = 0;
    for (auto* s = w.begin; s != w.end; ++s) {
      long n = AllocationsOf([&] {
        Status st;
        switch (w.lang) {
          case Lang::kSql: st = sql::Parse(s->text).status(); break;
          case Lang::kCypher: st = cypher::Parse(s->text).status(); break;
          case Lang::kSparql: st = sparql::Parse(s->text).status(); break;
        }
        ASSERT_TRUE(st.ok()) << s->text << ": " << st.ToString();
      });
      std::printf("  %-7s %-27s %3ld allocations\n", LangName(w.lang),
                  s->name, n);
      total += n;
    }
    std::printf("%s parse allocations: %ld (bound %ld)\n", LangName(w.lang),
                total, kBound[int(w.lang)]);
    EXPECT_LE(total, kBound[int(w.lang)]) << LangName(w.lang);
  }
}

// The table above is what the SUTs send: their reported statement texts are
// entries of it.
TEST(LexerAllocationTest, WorkloadTableMatchesTheSuts) {
  struct Entry {
    SutKind kind;
    const Workload* workload;
  };
  for (Entry e : {Entry{SutKind::kPostgresSql, &kWorkloads[0]},
                  Entry{SutKind::kVirtuosoSql, &kWorkloads[0]},
                  Entry{SutKind::kNeo4jCypher, &kWorkloads[1]},
                  Entry{SutKind::kVirtuosoSparql, &kWorkloads[2]}}) {
    std::unique_ptr<Sut> sut = MakeSut(e.kind);
    for (const char* kind :
         {"point_lookup", "one_hop", "two_hop", "recent_posts"}) {
      std::string text = sut->StatementText(kind);
      ASSERT_FALSE(text.empty()) << sut->name() << " " << kind;
      bool found = false;
      for (auto* s = e.workload->begin; s != e.workload->end; ++s) {
        found |= std::string(s->name) == kind && text == s->text;
      }
      EXPECT_TRUE(found) << sut->name() << " " << kind << ": " << text;
    }
  }
}

}  // namespace
}  // namespace graphbench
