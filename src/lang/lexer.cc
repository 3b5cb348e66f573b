#include "lang/lexer.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <iterator>
#include <utility>

#include "util/string_util.h"

namespace graphbench {

namespace {

// Spellings indexed by Sym, in declaration order.
constexpr std::string_view kSpellings[] = {
    "",
    "(", ")", "[", "]", "{", "}",
    ",", ".", "..", ";", ":",
    "=", "<>", "!=", "<", "<=", ">", ">=",
    "<-", "->",
    "-", "*",
    "other",
    "AND", "AS", "ASC", "AVG", "BY", "COUNT", "CREATE", "DELETE", "DESC",
    "DISTINCT", "FILTER", "FROM", "GROUP", "INSERT", "INTO", "JOIN",
    "LENGTH", "LIMIT", "MATCH", "MAX", "MIN", "ON", "ORDER", "RETURN",
    "SELECT", "SET", "shortestPath", "SHORTEST_PATH", "SUM", "UPDATE",
    "USING", "VALUES", "WHERE",
};
static_assert(std::size(kSpellings) == size_t(Sym::kWhere) + 1);

// The keywords in an open-addressed table hashed on the length and the
// first and last letters, so a lookup usually compares one spelling.
constexpr size_t kKeywordSlots = 128;
constexpr size_t kFirstKeyword = size_t(Sym::kAnd);
constexpr size_t kLastKeyword = size_t(Sym::kWhere);

constexpr size_t KeywordHash(std::string_view w) {
  return (w.size() * 31 + size_t(AsciiToLower(w.front())) * 7 +
          size_t(AsciiToLower(w.back()))) % kKeywordSlots;
}

constexpr auto kKeywordTable = [] {
  std::array<Sym, kKeywordSlots> table{};
  for (size_t s = kFirstKeyword; s <= kLastKeyword; ++s) {
    size_t h = KeywordHash(kSpellings[s]);
    while (table[h] != Sym::kNone) h = (h + 1) % kKeywordSlots;
    table[h] = Sym(s);
  }
  return table;
}();

constexpr auto kKeywordLengths = [] {
  std::pair<size_t, size_t> minmax{kSpellings[kFirstKeyword].size(), 0};
  for (size_t s = kFirstKeyword; s <= kLastKeyword; ++s) {
    minmax.first = std::min(minmax.first, kSpellings[s].size());
    minmax.second = std::max(minmax.second, kSpellings[s].size());
  }
  return minmax;
}();

Sym LookupKeyword(std::string_view word) {
  if (word.size() < kKeywordLengths.first ||
      word.size() > kKeywordLengths.second) {
    return Sym::kNone;
  }
  for (size_t h = KeywordHash(word); kKeywordTable[h] != Sym::kNone;
       h = (h + 1) % kKeywordSlots) {
    Sym sym = kKeywordTable[h];
    if (EqualsIgnoreCase(kSpellings[size_t(sym)], word)) return sym;
  }
  return Sym::kNone;
}

// ASCII character classes, one table lookup per byte. Bytes >= 0x80 are in
// no class, so they lex as single-byte punctuation.
enum : uint8_t { kSpace = 1, kDigit = 2, kAlpha = 4 };

constexpr auto kClass = [] {
  std::array<uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[uint8_t(c)] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kAlpha;
  t[uint8_t('_')] = kAlpha;
  return t;
}();

bool IsSpace(char c) { return kClass[uint8_t(c)] & kSpace; }
bool IsDigit(char c) { return kClass[uint8_t(c)] & kDigit; }
bool IsIdentStart(char c) { return kClass[uint8_t(c)] & kAlpha; }
bool IsIdentChar(char c) { return kClass[uint8_t(c)] & (kAlpha | kDigit); }

// The punctuation token at input[i], one or two bytes long.
Sym LexPunct(std::string_view input, size_t i, size_t* len) {
  char next = i + 1 < input.size() ? input[i + 1] : '\0';
  *len = 2;
  switch (input[i]) {
    case '.': if (next == '.') return Sym::kDotDot; break;
    case '<':
      if (next == '>') return Sym::kNe;
      if (next == '=') return Sym::kLe;
      if (next == '-') return Sym::kArrowLeft;
      break;
    case '>': if (next == '=') return Sym::kGe; break;
    case '!': if (next == '=') return Sym::kBangEq; break;
    case '-': if (next == '>') return Sym::kArrowRight; break;
    default: break;
  }
  *len = 1;
  switch (input[i]) {
    case '(': return Sym::kLParen;
    case ')': return Sym::kRParen;
    case '[': return Sym::kLBracket;
    case ']': return Sym::kRBracket;
    case '{': return Sym::kLBrace;
    case '}': return Sym::kRBrace;
    case ',': return Sym::kComma;
    case '.': return Sym::kDot;
    case ';': return Sym::kSemicolon;
    case ':': return Sym::kColon;
    case '=': return Sym::kEq;
    case '<': return Sym::kLt;
    case '>': return Sym::kGt;
    case '-': return Sym::kMinus;
    case '*': return Sym::kStar;
    default: return Sym::kOtherPunct;
  }
}

}  // namespace

std::string_view SymSpelling(Sym sym) { return kSpellings[size_t(sym)]; }

Value Token::literal() const {
  switch (kind) {
    case Kind::kInteger: return Value(int_value);
    case Kind::kFloat: return Value(float_value);
    case Kind::kString: return Value(text);
    default: return Value();
  }
}

Status Tokenize(std::string_view input, const LexerOptions& options,
                TokenStream* out) {
  std::pmr::vector<Token>& tokens = out->tokens_;
  tokens.clear();
  out->unescaped_.clear();
  // Every token but kEnd consumes at least one byte, so n + 1 slots hold
  // any statement: a statement that outgrows the inline slots gets them
  // in one heap allocation, after which the vector never grows again.
  const size_t n = input.size();
  tokens.reserve(std::min(n + 1, TokenStream::kInlineTokens));
  auto reserve_all = [&] {
    if (tokens.size() == tokens.capacity()) tokens.reserve(n + 1);
  };
  auto span = [&](size_t from, size_t to) {
    return std::string_view(input.data() + from, to - from);
  };
  auto ident_end = [&](size_t i, bool allow_colon) {
    while (i < n &&
           (IsIdentChar(input[i]) || (allow_colon && input[i] == ':'))) {
      ++i;
    }
    return i;
  };
  size_t i = 0;
  while (i < n) {
    char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    reserve_all();
    Token& tok = tokens.emplace_back();
    size_t start = i;
    if (IsIdentStart(c)) {
      i = ident_end(i + 1, options.colon_in_identifiers);
      tok.kind = Token::Kind::kIdentifier;
      tok.text = span(start, i);
      tok.sym = LookupKeyword(tok.text);
    } else if (IsDigit(c) ||
               (c == '-' && i + 1 < n && IsDigit(input[i + 1]) &&
                (tokens.size() == 1 ||
                 tokens[tokens.size() - 2].kind == Token::Kind::kPunct))) {
      // A '-' right after punctuation (or first) is a sign, else binary.
      ++i;
      bool is_float = false;
      while (i < n && (IsDigit(input[i]) || input[i] == '.')) {
        // ".." or ".name" terminates the number (ranges, alias.column).
        if (input[i] == '.') {
          if (i + 1 >= n || !IsDigit(input[i + 1])) break;
          is_float = true;
        }
        ++i;
      }
      tok.text = span(start, i);
      const char* first = tok.text.data();
      const char* last = first + tok.text.size();
      std::from_chars_result r;
      if (is_float) {
        tok.kind = Token::Kind::kFloat;
        r = std::from_chars(first, last, tok.float_value);
      } else {
        tok.kind = Token::Kind::kInteger;
        r = std::from_chars(first, last, tok.int_value);
      }
      if (r.ec == std::errc::result_out_of_range) {
        return Status::InvalidArgument("number out of range: '" +
                                       std::string(tok.text) + "'");
      }
      if (r.ec != std::errc() || r.ptr != last) {
        return Status::InvalidArgument("malformed number: '" +
                                       std::string(tok.text) + "'");
      }
    } else if (c == '\'' || c == '"') {
      // The body is a view of the text until the first escape; from there
      // it is copied, unescaped, into the stream's own storage.
      const char quote = c;
      size_t body = ++i;
      while (i < n && input[i] != quote && input[i] != '\\') ++i;
      if (i < n && input[i] == '\\') {
        std::string& store = out->unescaped_;
        if (store.capacity() < n) store.reserve(n);
        size_t store_start = store.size();
        store.append(span(body, i));
        while (i < n && input[i] != quote) {
          if (input[i] == '\\' && i + 1 < n) ++i;
          store.push_back(input[i++]);
        }
        tok.text = std::string_view(store).substr(store_start);
      } else {
        tok.text = span(body, i);
      }
      if (i >= n) return Status::InvalidArgument("unterminated string");
      ++i;  // closing quote
      tok.kind = Token::Kind::kString;
    } else if (c == '?' && options.question_mark_is_variable && i + 1 < n &&
               IsIdentStart(input[i + 1])) {
      i = ident_end(i + 2, false);
      tok.kind = Token::Kind::kVariable;
      tok.text = span(start + 1, i);
    } else if (c == '?') {
      ++i;
      tok.kind = Token::Kind::kParam;
      tok.text = span(i, i);
    } else if (c == '$' && i + 1 < n && IsIdentStart(input[i + 1])) {
      i = ident_end(i + 2, false);
      tok.kind = Token::Kind::kParam;
      tok.text = span(start + 1, i);
    } else {
      size_t len;
      tok.kind = Token::Kind::kPunct;
      tok.sym = LexPunct(input, i, &len);
      tok.text = span(i, i + len);
      i += len;
    }
  }
  reserve_all();
  tokens.emplace_back();  // kEnd sentinel
  return Status::OK();
}

size_t TokenCursor::CountAhead(Sym p) const {
  size_t n = 0;
  for (size_t i = pos_; i < tokens_.size(); ++i) n += tokens_[i].IsPunct(p);
  return n;
}

Status TokenCursor::ExpectKeyword(Sym kw) {
  if (!TryKeyword(kw)) {
    return Status::InvalidArgument("expected keyword '" +
                                   std::string(SymSpelling(kw)) + "' near '" +
                                   std::string(Peek().text) + "'");
  }
  return Status::OK();
}

Status TokenCursor::ExpectPunct(Sym p) {
  if (!TryPunct(p)) {
    return Status::InvalidArgument("expected '" +
                                   std::string(SymSpelling(p)) + "' near '" +
                                   std::string(Peek().text) + "'");
  }
  return Status::OK();
}

}  // namespace graphbench
