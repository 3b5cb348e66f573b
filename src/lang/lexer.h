#ifndef GRAPHBENCH_LANG_LEXER_H_
#define GRAPHBENCH_LANG_LEXER_H_

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/value.h"

namespace graphbench {

/// Keyword and punctuation codes, assigned once by the lexer so the
/// parsers compare integers. A punctuation token always carries its code;
/// an identifier carries the code of the keyword it spells (ASCII
/// case-insensitively) or kNone. The keywords are the union of the SQL,
/// Cypher and SPARQL subsets; a keyword still lexes as an identifier, so a
/// language that does not reserve it can use it as a name.
enum class Sym : uint8_t {
  kNone,
  // Punctuation.
  kLParen, kRParen, kLBracket, kRBracket, kLBrace, kRBrace,
  kComma, kDot, kDotDot, kSemicolon, kColon,
  kEq, kNe /* <> */, kBangEq /* != */, kLt, kLe, kGt, kGe,
  kArrowLeft /* <- */, kArrowRight /* -> */,
  kMinus, kStar,
  kOtherPunct,  // any other single byte, e.g. + / | @
  // Keywords.
  kAnd, kAs, kAsc, kAvg, kBy, kCount, kCreate, kDelete, kDesc, kDistinct,
  kFilter, kFrom, kGroup, kInsert, kInto, kJoin, kLength, kLimit, kMatch,
  kMax, kMin, kOn, kOrder, kReturn, kSelect, kSet,
  kShortestPath,     // shortestPath (Cypher, SPARQL)
  kShortestPathSql,  // SHORTEST_PATH (SQL)
  kSum, kUpdate, kUsing, kValues, kWhere,
};

/// The canonical spelling of a code, for error messages.
std::string_view SymSpelling(Sym sym);

/// One lexical token: a kind, a code, and a view of its text. Shared by the
/// SQL, Cypher, and SPARQL parsers: all three languages tokenize into
/// identifiers, numbers, quoted strings, parameters, and punctuation.
struct Token {
  enum class Kind : uint8_t {
    kIdentifier,   // person, firstName, snb:knows (SPARQL prefixed names)
    kInteger,      // 42
    kFloat,        // 3.14
    kString,       // 'abc' or "abc"
    kParam,        // ?  (positional) or $name (named)
    kVariable,     // ?name (SPARQL variable)
    kPunct,        // ( ) , . ; = <> <= >= < > - * [ ] { } : != .. and
                   // any other byte outside the classes above
    kEnd,
  };

  Kind kind = Kind::kEnd;
  Sym sym = Sym::kNone;
  /// Identifier, number or punctuation spelling; parameter or variable
  /// name without its sigil (empty for a positional `?`); string body
  /// with escapes removed. Points into the statement text, except for a
  /// string body that had escapes, which lives in the TokenStream.
  std::string_view text;
  union {
    int64_t int_value = 0;  // kInteger
    double float_value;     // kFloat
  };

  bool IsKeyword(Sym kw) const {
    return kind == Kind::kIdentifier && sym == kw;
  }
  bool IsPunct(Sym p) const { return kind == Kind::kPunct && sym == p; }
  /// The owned value of a kInteger, kFloat or kString token.
  Value literal() const;
};

/// Options controlling language-specific lexing quirks.
struct LexerOptions {
  /// SPARQL: "?x" is a variable; SQL: "?" is a positional parameter.
  bool question_mark_is_variable = false;
  /// SPARQL: allow ':' inside identifiers (prefixed names like snb:knows).
  bool colon_in_identifiers = false;
};

/// The tokens of one statement, terminated by a kEnd token. Token views
/// point into the statement text and into storage this stream owns, so a
/// stream is valid only while that text is, and it neither copies nor
/// moves. The first kInlineTokens tokens live inside the stream; a longer
/// statement moves them once to a heap vector sized for the whole text.
class TokenStream {
 public:
  static constexpr size_t kInlineTokens = 64;

  TokenStream() = default;
  TokenStream(const TokenStream&) = delete;
  TokenStream& operator=(const TokenStream&) = delete;

  const std::pmr::vector<Token>& tokens() const { return tokens_; }
  size_t size() const { return tokens_.size(); }
  const Token& operator[](size_t i) const { return tokens_[i]; }

 private:
  friend Status Tokenize(std::string_view, const LexerOptions&, TokenStream*);

  alignas(Token) std::byte inline_[kInlineTokens * sizeof(Token)];
  std::pmr::monotonic_buffer_resource arena_{inline_, sizeof(inline_)};
  std::pmr::vector<Token> tokens_{&arena_};
  /// Bodies of strings that had escapes. Reserved to the statement length
  /// before the first one is written, so it never reallocates under the
  /// views into it.
  std::string unescaped_;
};

/// Lexes `input` in one pass, classifying every token once. A malformed or
/// out-of-range number and an unterminated string are InvalidArgument.
Status Tokenize(std::string_view input, const LexerOptions& options,
                TokenStream* out);

/// Cursor over a token stream with the helpers recursive-descent parsers
/// need.
class TokenCursor {
 public:
  explicit TokenCursor(const TokenStream& stream)
      : tokens_(stream.tokens()) {}

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().kind == Token::Kind::kEnd; }

  /// Consumes the keyword if present.
  bool TryKeyword(Sym kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  /// Consumes the punctuation if present.
  bool TryPunct(Sym p) {
    if (Peek().IsPunct(p)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(Sym kw);
  Status ExpectPunct(Sym p);

  /// How many `p` tokens are left. Parsers size a list from it before
  /// parsing the list (a hint: a wrong count costs a reallocation only).
  size_t CountAhead(Sym p) const;

 private:
  const std::pmr::vector<Token>& tokens_;
  size_t pos_ = 0;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_LANG_LEXER_H_
