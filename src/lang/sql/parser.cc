#include "lang/sql/parser.h"

#include <utility>

#include "lang/lexer.h"

namespace graphbench {
namespace sql {

namespace {

/// Recursive-descent parser over the shared token stream.
class Parser {
 public:
  explicit Parser(const TokenStream& tokens) : cur_(tokens) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    const Token& first = cur_.Peek();
    if (first.IsKeyword(Sym::kSelect)) {
      GB_ASSIGN_OR_RETURN(auto select, ParseSelect());
      stmt.kind = Statement::Kind::kSelect;
      stmt.select = std::move(select);
    } else if (first.IsKeyword(Sym::kInsert)) {
      GB_ASSIGN_OR_RETURN(auto insert, ParseInsert());
      stmt.kind = Statement::Kind::kInsert;
      stmt.insert = std::move(insert);
    } else if (first.IsKeyword(Sym::kUpdate)) {
      GB_ASSIGN_OR_RETURN(auto update, ParseUpdate());
      stmt.kind = Statement::Kind::kUpdate;
      stmt.update = std::move(update);
    } else if (first.IsKeyword(Sym::kDelete)) {
      GB_ASSIGN_OR_RETURN(auto del, ParseDelete());
      stmt.kind = Statement::Kind::kDelete;
      stmt.del = std::move(del);
    } else {
      return Status::InvalidArgument(
          "expected SELECT, INSERT, UPDATE, or DELETE");
    }
    if (cur_.TryPunct(Sym::kSemicolon)) {
      // trailing semicolon ok
    }
    if (!cur_.AtEnd()) {
      return Status::InvalidArgument("trailing tokens after statement: '" +
                                     std::string(cur_.Peek().text) + "'");
    }
    return stmt;
  }

 private:
  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kSelect));
    auto stmt = std::make_unique<SelectStmt>();
    stmt->distinct = cur_.TryKeyword(Sym::kDistinct);
    stmt->items.reserve(cur_.CountAhead(Sym::kComma) + 1);
    // Select list, built in place: on an error the statement is dropped.
    do {
      SelectItem& item = stmt->items.emplace_back();
      GB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (cur_.TryKeyword(Sym::kAs)) {
        item.name = cur_.Advance().text;
      } else {
        item.name = DeriveName(*item.expr);
      }
    } while (cur_.TryPunct(Sym::kComma));

    if (cur_.TryKeyword(Sym::kFrom)) {
      do {
        TableRef& ref = stmt->from.emplace_back();
        ref.table = cur_.Advance().text;
        ref.alias = ref.table;
        if (cur_.Peek().kind == Token::Kind::kIdentifier &&
            !IsClauseKeyword(cur_.Peek())) {
          ref.alias = cur_.Advance().text;
        }
        if (stmt->from.size() > 1) {
          GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kOn));
          GB_ASSIGN_OR_RETURN(ref.on, ParseExpr());
        }
      } while (cur_.TryKeyword(Sym::kJoin) || cur_.TryPunct(Sym::kComma));
    }
    if (cur_.TryKeyword(Sym::kWhere)) {
      GB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (cur_.TryKeyword(Sym::kGroup)) {
      GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kBy));
      do {
        GB_ASSIGN_OR_RETURN(auto key, ParseExpr());
        stmt->group_by.push_back(std::move(key));
      } while (cur_.TryPunct(Sym::kComma));
    }
    if (cur_.TryKeyword(Sym::kOrder)) {
      GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kBy));
      do {
        OrderItem& item = stmt->order_by.emplace_back();
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
      if (t.kind == Token::Kind::kParam) {
        stmt->limit_param = next_param_++;
      } else if (t.kind == Token::Kind::kInteger) {
        stmt->limit = t.int_value;
      } else {
        return Status::InvalidArgument(
            "LIMIT expects an integer or parameter");
      }
    }
    return stmt;
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kInsert));
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kInto));
    auto stmt = std::make_unique<InsertStmt>();
    stmt->table = cur_.Advance().text;
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
    stmt->columns.reserve(cur_.CountAhead(Sym::kComma) / 2 + 1);
    do {
      stmt->columns.emplace_back(cur_.Advance().text);
    } while (cur_.TryPunct(Sym::kComma));
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kValues));
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
    stmt->values.reserve(stmt->columns.size());
    do {
      GB_ASSIGN_OR_RETURN(auto expr, ParseExpr());
      stmt->values.push_back(std::move(expr));
    } while (cur_.TryPunct(Sym::kComma));
    GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
    return stmt;
  }

  Result<std::unique_ptr<UpdateStmt>> ParseUpdate() {
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kUpdate));
    auto stmt = std::make_unique<UpdateStmt>();
    stmt->table = cur_.Advance().text;
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kSet));
    do {
      std::string column(cur_.Advance().text);
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kEq));
      GB_ASSIGN_OR_RETURN(auto value, ParsePrimary());
      stmt->sets.emplace_back(std::move(column), std::move(value));
    } while (cur_.TryPunct(Sym::kComma));
    if (cur_.TryKeyword(Sym::kWhere)) {
      GB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  Result<std::unique_ptr<DeleteStmt>> ParseDelete() {
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kDelete));
    GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kFrom));
    auto stmt = std::make_unique<DeleteStmt>();
    stmt->table = cur_.Advance().text;
    if (cur_.TryKeyword(Sym::kWhere)) {
      GB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  // Keywords that end a table reference, so they cannot be its alias.
  static bool IsClauseKeyword(const Token& t) {
    if (t.kind != Token::Kind::kIdentifier) return false;
    switch (t.sym) {
      case Sym::kFrom: case Sym::kJoin: case Sym::kOn: case Sym::kWhere:
      case Sym::kOrder: case Sym::kLimit: case Sym::kAs: case Sym::kGroup:
      case Sym::kBy: case Sym::kUsing:
        return true;
      default:
        return false;
    }
  }

  // Reserved words, which cannot name a column (catches malformed queries
  // like "SELECT FROM t").
  static bool IsReserved(const Token& t) {
    if (IsClauseKeyword(t)) return true;
    switch (t.sym) {
      case Sym::kSelect: case Sym::kAnd: case Sym::kInsert:
      case Sym::kValues: case Sym::kDistinct:
        return true;
      default:
        return false;
    }
  }

  // Expression grammar: expr := cmp (AND cmp)* ; cmp := primary (op primary)?
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
        cur_.Advance();
        node->kind = Expr::Kind::kParam;
        node->param_index = next_param_++;
        return node;
      case Token::Kind::kIdentifier:
        break;
      default:
        if (t.IsPunct(Sym::kLParen)) {
          cur_.Advance();
          GB_ASSIGN_OR_RETURN(auto inner, ParseExpr());
          GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
          return inner;
        }
        return Status::InvalidArgument("unexpected token '" +
                                       std::string(t.text) + "'");
    }
    if (t.IsKeyword(Sym::kCount) && cur_.Peek(1).IsPunct(Sym::kLParen)) {
      cur_.Advance();
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      if (cur_.TryPunct(Sym::kStar)) {
        GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
        node->kind = Expr::Kind::kCountStar;
        return node;
      }
      GB_ASSIGN_OR_RETURN(node->lhs, ParseExpr());
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      node->kind = Expr::Kind::kAggregate;
      node->agg_fn = AggFn::kCount;
      return node;
    }
    // Aggregate only when called like a function; "min" stays usable as a
    // column name otherwise.
    AggFn fn;
    if (AggregateOf(t.sym, &fn) && cur_.Peek(1).IsPunct(Sym::kLParen)) {
      cur_.Advance();
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      GB_ASSIGN_OR_RETURN(node->lhs, ParseExpr());
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      node->kind = Expr::Kind::kAggregate;
      node->agg_fn = fn;
      return node;
    }
    if (t.IsKeyword(Sym::kShortestPathSql)) {
      cur_.Advance();
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      GB_ASSIGN_OR_RETURN(node->sp_from, ParseExpr());
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kComma));
      GB_ASSIGN_OR_RETURN(node->sp_to, ParseExpr());
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      GB_RETURN_IF_ERROR(cur_.ExpectKeyword(Sym::kUsing));
      node->sp_table = cur_.Advance().text;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kLParen));
      node->sp_src_col = cur_.Advance().text;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kComma));
      node->sp_dst_col = cur_.Advance().text;
      GB_RETURN_IF_ERROR(cur_.ExpectPunct(Sym::kRParen));
      node->kind = Expr::Kind::kShortestPath;
      return node;
    }
    // Column reference: ident or alias.ident.
    if (IsReserved(t)) {
      return Status::InvalidArgument("unexpected keyword '" +
                                     std::string(t.text) + "'");
    }
    node->kind = Expr::Kind::kColumn;
    std::string_view first = cur_.Advance().text;
    if (cur_.TryPunct(Sym::kDot)) {
      node->table_alias = first;
      node->column = cur_.Advance().text;
    } else {
      node->column = first;
    }
    return node;
  }

  static bool AggregateOf(Sym sym, AggFn* fn) {
    switch (sym) {
      case Sym::kSum: *fn = AggFn::kSum; return true;
      case Sym::kMin: *fn = AggFn::kMin; return true;
      case Sym::kMax: *fn = AggFn::kMax; return true;
      case Sym::kAvg: *fn = AggFn::kAvg; return true;
      default: return false;
    }
  }

  static std::string DeriveName(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kColumn:
        return e.column;
      case Expr::Kind::kCountStar:
        return "count";
      case Expr::Kind::kAggregate:
        switch (e.agg_fn) {
          case AggFn::kCount: return "count";
          case AggFn::kSum: return "sum";
          case AggFn::kMin: return "min";
          case AggFn::kMax: return "max";
          case AggFn::kAvg: return "avg";
        }
        return "agg";
      case Expr::Kind::kShortestPath:
        return "shortest_path";
      default:
        return "expr";
    }
  }

  TokenCursor cur_;
  int next_param_ = 0;
};

}  // namespace

Result<Statement> Parse(std::string_view text) {
  TokenStream tokens;
  GB_RETURN_IF_ERROR(Tokenize(text, LexerOptions{}, &tokens));
  Parser parser(tokens);
  return parser.ParseStatement();
}

}  // namespace sql
}  // namespace graphbench
