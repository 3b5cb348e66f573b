#ifndef GRAPHBENCH_LANG_SQL_AST_H_
#define GRAPHBENCH_LANG_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "util/value.h"

namespace graphbench {
namespace sql {

enum class BinOp { kEq, kNe, kLt, kLe, kGt, kGe, kAnd };

/// SQL expression tree. A deliberately small surface: column refs,
/// literals, positional parameters, comparisons/AND, COUNT(*), and the
/// SHORTEST_PATH(...) USING ... extension (our analog of Virtuoso's
/// transitivity support, which the paper credits for its shortest-path
/// performance).
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

struct Expr {
  enum class Kind {
    kColumn,
    kLiteral,
    kParam,
    kBinary,
    kCountStar,
    kAggregate,  // SUM/MIN/MAX/AVG/COUNT(expr) over the group
    kShortestPath,
  };

  Kind kind = Kind::kLiteral;

  // kColumn
  std::string table_alias;  // empty when unqualified
  std::string column;

  // kLiteral
  Value literal;

  // kParam: positional index assigned left-to-right
  int param_index = -1;

  // kBinary
  BinOp op = BinOp::kEq;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;

  // kAggregate: fn over `lhs` (the aggregated expression)
  AggFn agg_fn = AggFn::kCount;

  // kShortestPath: SHORTEST_PATH(from, to) USING table(src_col, dst_col).
  // `from`/`to` evaluate to application-level vertex ids.
  std::unique_ptr<Expr> sp_from;
  std::unique_ptr<Expr> sp_to;
  std::string sp_table;
  std::string sp_src_col;
  std::string sp_dst_col;
};

struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string name;  // output column name (AS alias or derived)
};

/// One FROM entry. The first entry has no join condition; each subsequent
/// entry carries its ON equality (JOIN ... ON a.x = b.y).
struct TableRef {
  std::string table;
  std::string alias;
  std::unique_ptr<Expr> on;  // null for the first table
};

struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool desc = false;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;  // may be empty (SELECT SHORTEST_PATH(...))
  std::unique_ptr<Expr> where;
  /// Aggregation keys; with aggregates and no GROUP BY the whole result is
  /// one group. In aggregate mode ORDER BY may reference select aliases.
  std::vector<std::unique_ptr<Expr>> group_by;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1: no limit
  /// LIMIT ? — positional parameter index supplying the limit at bind
  /// time; -1 when the limit is a literal (or absent). Lets one cached
  /// plan serve every limit value.
  int limit_param = -1;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;
  std::vector<std::unique_ptr<Expr>> values;  // literals or params
};

/// UPDATE t SET c = expr [, ...] WHERE cond (single table).
struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> sets;
  std::unique_ptr<Expr> where;  // null = all rows
};

/// DELETE FROM t WHERE cond (single table).
struct DeleteStmt {
  std::string table;
  std::unique_ptr<Expr> where;  // null = all rows
};

struct Statement {
  enum class Kind { kSelect, kInsert, kUpdate, kDelete };
  Kind kind = Kind::kSelect;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
};

}  // namespace sql
}  // namespace graphbench

#endif  // GRAPHBENCH_LANG_SQL_AST_H_
