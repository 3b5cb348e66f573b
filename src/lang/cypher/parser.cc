#include "lang/cypher/parser.h"

#include "lang/lexer.h"

namespace graphbench {
namespace cypher {

namespace {

class Parser {
 public:
  explicit Parser(const TokenStream& tokens) : cur_(tokens) {}

  Result<Query> ParseQuery() {
    Query q;
    if (cur_.TryKeyword(Sym::kMatch)) {
      do {
        GB_RETURN_IF_ERROR(ParseChain(&q.match.emplace_back()));
      } while (cur_.TryPunct(Sym::kComma));
      if (cur_.TryKeyword(Sym::kWhere)) {
        GB_ASSIGN_OR_RETURN(q.where, ParseExpr());
      }
    }
    if (cur_.TryKeyword(Sym::kCreate)) {
      do {
        PatternChain chain;
        GB_RETURN_IF_ERROR(ParseChain(&chain));
        if (chain.rels.empty()) {
          if (chain.nodes.size() != 1) {
            return Status::InvalidArgument("CREATE node pattern malformed");
          }
          q.create_nodes.push_back(std::move(chain.nodes[0]));
        } else if (chain.rels.size() == 1 && chain.nodes.size() == 2) {
          if (chain.rels[0].dir == Direction::kBoth) {
            return Status::InvalidArgument(
                "CREATE relationships must be directed");
          }
          if (chain.rels[0].max_hops != 1) {
            return Status::InvalidArgument(
                "CREATE cannot use variable-length patterns");
          }
          Query::CreateRel cr;
          bool forward = chain.rels[0].dir == Direction::kOut;
          cr.from_var = chain.nodes[forward ? 0 : 1].var;
          cr.to_var = chain.nodes[forward ? 1 : 0].var;
          cr.rel = std::move(chain.rels[0]);
          cr.rel.dir = Direction::kOut;
          q.create_rels.push_back(std::move(cr));
        } else {
          return Status::InvalidArgument(
              "CREATE supports single nodes or single relationships");
        }
      } while (cur_.TryPunct(Sym::kComma));
    }
    if (cur_.TryKeyword(Sym::kReturn)) {
      q.distinct = cur_.TryKeyword(Sym::kDistinct);
      q.ret.reserve(cur_.CountAhead(Sym::kComma) + 1);
      do {
        ReturnItem& item = q.ret.emplace_back();
        GB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (cur_.TryKeyword(Sym::kAs)) {
          item.name = cur_.Advance().text;
        } else {
          item.name = DeriveName(*item.expr);
        }
      } while (cur_.TryPunct(Sym::kComma));
      if (cur_.TryKeyword(Sym::kOrder)) {
        GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kBy));
        do {
          OrderItem& item = q.order_by.emplace_back();
          GB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
          if (cur_.TryKeyword(Sym::kDesc)) {
            item.desc = true;
          } else {
            cur_.TryKeyword(Sym::kAsc);
          }
        } while (cur_.TryPunct(Sym::kComma));
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
    }
    if (q.match.empty() && q.create_nodes.empty() && q.create_rels.empty()) {
      return Status::InvalidArgument("expected MATCH or CREATE");
    }
    if (!cur_.AtEnd()) {
      return Status::InvalidArgument("trailing tokens near '" +
                                     std::string(cur_.Peek().text) + "'");
    }
    return q;
  }

 private:
  // The AST is built in place: on an error the caller drops the query.
  Status ParseChain(PatternChain* chain) {
    GB_RETURN_IF_ERROR(ParseNode(&chain->nodes.emplace_back()));
    for (;;) {
      Direction dir;
      if (cur_.Peek().IsPunct(Sym::kArrowLeft)) {
        cur_.Advance();
        dir = Direction::kIn;
      } else if (cur_.Peek().IsPunct(Sym::kMinus)) {
        cur_.Advance();
        dir = Direction::kBoth;  // may become kOut after the closing arrow
      } else {
        break;
      }
      RelPattern& rel = chain->rels.emplace_back();
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLBracket));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kColon));
      rel.type = cur_.Advance().text;
      if (cur_.TryPunct(Sym::kStar)) {
        // -[:T*]- (unbounded is capped), -[:T*n]-, or -[:T*min..max]-.
        rel.min_hops = 1;
        rel.max_hops = 16;  // engine-enforced cap for bare '*'
        if (cur_.Peek().kind == Token::Kind::kInteger) {
          rel.min_hops = int(cur_.Advance().int_value);
          rel.max_hops = rel.min_hops;
          if (cur_.TryPunct(Sym::kDotDot)) {
            if (cur_.Peek().kind != Token::Kind::kInteger) {
              return Status::InvalidArgument("expected upper hop bound");
            }
            rel.max_hops = int(cur_.Advance().int_value);
          }
        }
        if (rel.min_hops < 1 || rel.max_hops < rel.min_hops) {
          return Status::InvalidArgument("bad variable-length bounds");
        }
      }
      if (cur_.Peek().IsPunct(Sym::kLBrace)) {
        GB_RETURN_IF_ERROR(ParsePropBlock(&rel.props));
      }
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRBracket));
      if (dir == Direction::kIn) {
        GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kMinus));
      } else if (cur_.TryPunct(Sym::kArrowRight)) {
        dir = Direction::kOut;
      } else {
        GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kMinus));
      }
      rel.dir = dir;
      GB_RETURN_IF_ERROR(ParseNode(&chain->nodes.emplace_back()));
    }
    return Status::OK();
  }

  Status ParseNode(NodePattern* node) {
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
    if (cur_.Peek().kind == Token::Kind::kIdentifier) {
      node->var = cur_.Advance().text;
    }
    if (cur_.TryPunct(Sym::kColon)) {
      node->label = cur_.Advance().text;
    }
    if (cur_.Peek().IsPunct(Sym::kLBrace)) {
      GB_RETURN_IF_ERROR(ParsePropBlock(&node->props));
    }
    return cur_.ExpectPunct(Sym::kRParen);
  }

  Status ParsePropBlock(
      std::vector<std::pair<std::string, std::unique_ptr<Expr>>>* out) {
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLBrace));
    do {
      std::string key(cur_.Advance().text);
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kColon));
      auto value_or = ParseExpr();
      if (!value_or.ok()) return value_or.status();
      out->emplace_back(std::move(key), std::move(value_or).value());
    } while (cur_.TryPunct(Sym::kComma));
    return cur_.ExpectPunct(Sym::kRBrace);
  }

  Result<std::unique_ptr<Expr>> ParseExpr() {
    GB_ASSIGN_OR_RETURN(auto lhs, ParseComparison());
    while (cur_.TryKeyword(Sym::kAnd)) {
      GB_ASSIGN_OR_RETURN(auto rhs, ParseComparison());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = BinOp::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    GB_ASSIGN_OR_RETURN(auto lhs, ParsePrimary());
    BinOp op;
    switch (cur_.Peek().sym) {
      case Sym::kEq: op = BinOp::kEq; break;
      case Sym::kNe: case Sym::kBangEq: op = BinOp::kNe; break;
      case Sym::kLt: op = BinOp::kLt; break;
      case Sym::kLe: op = BinOp::kLe; break;
      case Sym::kGt: op = BinOp::kGt; break;
      case Sym::kGe: op = BinOp::kGe; break;
      default: return lhs;
    }
    cur_.Advance();
    GB_ASSIGN_OR_RETURN(auto rhs, ParsePrimary());
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kBinary;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    auto node = std::make_unique<Expr>();
    const Token& t = cur_.Peek();
    switch (t.kind) {
      case Token::Kind::kInteger:
      case Token::Kind::kFloat:
      case Token::Kind::kString:
        node->kind = Expr::Kind::kLiteral;
        node->literal = cur_.Advance().literal();
        return node;
      case Token::Kind::kParam:
        node->kind = Expr::Kind::kParam;
        node->var = cur_.Advance().text;
        if (node->var.empty()) {
          return Status::InvalidArgument("Cypher parameters must be named");
        }
        return node;
      case Token::Kind::kIdentifier:
        break;
      default:
        return Status::InvalidArgument("unexpected token '" +
                                       std::string(t.text) + "'");
    }
    if (t.IsKeyword(Sym::kCount)) {
      cur_.Advance();
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kStar));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      node->kind = Expr::Kind::kCountStar;
      return node;
    }
    if (t.IsKeyword(Sym::kLength)) {
      // length(shortestPath((a)-[:T*]-(b)))
      cur_.Advance();
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kShortestPath));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      node->path_from = cur_.Advance().text;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kMinus));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLBracket));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kColon));
      node->path_rel_type = cur_.Advance().text;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kStar));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRBracket));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kMinus));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      node->path_to = cur_.Advance().text;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      node->kind = Expr::Kind::kPathLength;
      return node;
    }
    // var.prop or bare var (bare vars are only valid as property-less
    // references inside shortestPath, handled above, so require ".prop").
    std::string_view var = cur_.Advance().text;
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kDot));
    node->kind = Expr::Kind::kProp;
    node->var = var;
    node->key = cur_.Advance().text;
    return node;
  }

  static std::string DeriveName(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kProp:
        return e.var + "." + e.key;
      case Expr::Kind::kCountStar:
        return "count";
      case Expr::Kind::kPathLength:
        return "length";
      default:
        return "expr";
    }
  }

  TokenCursor cur_;
};

}  // namespace

Result<Query> Parse(std::string_view text) {
  TokenStream tokens;
  GB_RETURN_IF_ERROR(Tokenize(text, LexerOptions{}, &tokens));
  Parser parser(tokens);
  return parser.ParseQuery();
}

}  // namespace cypher
}  // namespace graphbench
