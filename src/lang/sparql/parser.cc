#include "lang/sparql/parser.h"

#include "lang/lexer.h"

namespace graphbench {
namespace sparql {

namespace {

class Parser {
 public:
  explicit Parser(const TokenStream& tokens) : cur_(tokens) {}

  Result<Query> ParseQuery() {
    Query q;
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kSelect));
    q.distinct = cur_.TryKeyword(Sym::kDistinct);
    // Projections.
    for (;;) {
      const Token& t = cur_.Peek();
      if (t.kind == Token::Kind::kVariable) {
        SelectExpr e;
        e.var = cur_.Advance().text;
        q.select.push_back(std::move(e));
      } else if (t.IsPunct(Sym::kLParen)) {
        cur_.Advance();
        GB_ASSIGN_OR_RETURN(SelectExpr e, ParsePathExpr());
        q.select.push_back(std::move(e));
        GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      } else {
        break;
      }
    }
    if (q.select.empty()) {
      return Status::InvalidArgument("SELECT needs at least one projection");
    }
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kWhere));
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLBrace));
    q.patterns.reserve(cur_.CountAhead(Sym::kDot) +
                       cur_.CountAhead(Sym::kSemicolon) + 1);
    while (!cur_.Peek().IsPunct(Sym::kRBrace)) {
      if (cur_.TryKeyword(Sym::kFilter)) {
        GB_ASSIGN_OR_RETURN(Filter f, ParseFilter());
        q.filters.push_back(std::move(f));
        cur_.TryPunct(Sym::kDot);
        continue;
      }
      // Patterns are built in place: on an error the query is dropped.
      TriplePattern& tp = q.patterns.emplace_back();
      GB_RETURN_IF_ERROR(ParseTerm(&tp.s));
      GB_RETURN_IF_ERROR(ParseTerm(&tp.p));
      GB_RETURN_IF_ERROR(ParseTerm(&tp.o));
      // Predicate-object lists: "?s p1 o1 ; p2 o2 ."
      while (cur_.TryPunct(Sym::kSemicolon)) {
        TriplePattern& more = q.patterns.emplace_back();
        more.s = q.patterns[q.patterns.size() - 2].s;
        GB_RETURN_IF_ERROR(ParseTerm(&more.p));
        GB_RETURN_IF_ERROR(ParseTerm(&more.o));
      }
      cur_.TryPunct(Sym::kDot);
    }
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRBrace));
    if (cur_.TryKeyword(Sym::kGroup)) {
      GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kBy));
      while (cur_.Peek().kind == Token::Kind::kVariable) {
        q.group_by.emplace_back(cur_.Advance().text);
      }
      if (q.group_by.empty()) {
        return Status::InvalidArgument("GROUP BY needs variables");
      }
    }
    if (cur_.TryKeyword(Sym::kOrder)) {
      GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kBy));
      for (;;) {
        bool desc = false;
        if (cur_.TryKeyword(Sym::kDesc)) {
          GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
          desc = true;
        } else {
          cur_.TryKeyword(Sym::kAsc);
        }
        const Token& v = cur_.Peek();
        if (v.kind != Token::Kind::kVariable) break;
        q.order_by.emplace_back(cur_.Advance().text, desc);
        if (desc) GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
        // SPARQL keys are space-separated; a comma is accepted too.
        cur_.TryPunct(Sym::kComma);
        if (cur_.Peek().kind != Token::Kind::kVariable &&
            !cur_.Peek().IsKeyword(Sym::kDesc) &&
            !cur_.Peek().IsKeyword(Sym::kAsc)) {
          break;
        }
      }
      if (q.order_by.empty()) {
        return Status::InvalidArgument("ORDER BY needs a variable");
      }
    }
    if (cur_.TryKeyword(Sym::kLimit)) {
      const Token& t = cur_.Advance();
      if (t.kind == Token::Kind::kParam && !t.text.empty()) {
        q.limit_param = t.text;
      } else if (t.kind == Token::Kind::kInteger) {
        q.limit = t.int_value;
      } else {
        return Status::InvalidArgument(
            "LIMIT expects an integer or $parameter");
      }
    }
    if (!cur_.AtEnd()) {
      return Status::InvalidArgument("trailing tokens near '" +
                                     std::string(cur_.Peek().text) + "'");
    }
    return q;
  }

 private:
  Result<SelectExpr> ParsePathExpr() {
    SelectExpr e;
    const Token& fn = cur_.Advance();
    if (fn.IsKeyword(Sym::kCount)) {
      e.is_count = true;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      const Token& v = cur_.Advance();
      if (v.kind != Token::Kind::kVariable) {
        return Status::InvalidArgument("COUNT expects a variable");
      }
      e.var = v.text;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kAs));
      const Token& as = cur_.Advance();
      if (as.kind != Token::Kind::kVariable) {
        return Status::InvalidArgument("AS target must be a variable");
      }
      e.as_name = as.text;
      return e;
    }
    e.is_path = true;
    if (!fn.IsKeyword(Sym::kShortestPath)) {
      return Status::InvalidArgument("expected shortestPath(...) or COUNT");
    }
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
    const Token& a = cur_.Advance();
    if (a.kind != Token::Kind::kVariable) {
      return Status::InvalidArgument("shortestPath arg must be a variable");
    }
    e.from_var = a.text;
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kComma));
    const Token& b = cur_.Advance();
    if (b.kind != Token::Kind::kVariable) {
      return Status::InvalidArgument("shortestPath arg must be a variable");
    }
    e.to_var = b.text;
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kComma));
    const Token& p = cur_.Advance();
    if (p.kind != Token::Kind::kIdentifier) {
      return Status::InvalidArgument("shortestPath predicate must be an IRI");
    }
    e.pred_iri = p.text;
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kAs));
    const Token& as = cur_.Advance();
    if (as.kind != Token::Kind::kVariable) {
      return Status::InvalidArgument("AS target must be a variable");
    }
    e.as_name = as.text;
    return e;
  }

  Result<Filter> ParseFilter() {
    Filter f;
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
    const Token& a = cur_.Advance();
    if (a.kind != Token::Kind::kVariable) {
      return Status::InvalidArgument("FILTER expects variables");
    }
    f.var_a = a.text;
    if (cur_.TryPunct(Sym::kBangEq)) {
      f.not_equal = true;
    } else if (cur_.TryPunct(Sym::kEq)) {
      f.not_equal = false;
    } else {
      return Status::InvalidArgument("FILTER supports = and != only");
    }
    const Token& b = cur_.Advance();
    if (b.kind != Token::Kind::kVariable) {
      return Status::InvalidArgument("FILTER expects variables");
    }
    f.var_b = b.text;
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
    return f;
  }

  Status ParseTerm(TermPattern* out) {
    const Token& t = cur_.Peek();
    switch (t.kind) {
      case Token::Kind::kVariable:
        out->kind = TermPattern::Kind::kVariable;
        out->text = cur_.Advance().text;
        return Status::OK();
      case Token::Kind::kIdentifier:
        out->kind = TermPattern::Kind::kIri;
        out->text = cur_.Advance().text;
        return Status::OK();
      case Token::Kind::kInteger:
      case Token::Kind::kFloat:
      case Token::Kind::kString:
        out->kind = TermPattern::Kind::kLiteral;
        out->literal = cur_.Advance().literal();
        return Status::OK();
      case Token::Kind::kParam:
        if (t.text.empty()) {
          return Status::InvalidArgument(
              "SPARQL parameters must be named ($name)");
        }
        out->kind = TermPattern::Kind::kParam;
        out->text = cur_.Advance().text;
        return Status::OK();
      default:
        return Status::InvalidArgument("unexpected token '" +
                                       std::string(t.text) +
                                       "' in triple pattern");
    }
  }

  TokenCursor cur_;
};

}  // namespace

Result<Query> Parse(std::string_view text) {
  LexerOptions options;
  options.question_mark_is_variable = true;
  options.colon_in_identifiers = true;
  TokenStream tokens;
  GB_RETURN_IF_ERROR(Tokenize(text, options, &tokens));
  Parser parser(tokens);
  return parser.ParseQuery();
}

}  // namespace sparql
}  // namespace graphbench
