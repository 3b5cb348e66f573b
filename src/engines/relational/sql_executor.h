#ifndef GRAPHBENCH_ENGINES_RELATIONAL_SQL_EXECUTOR_H_
#define GRAPHBENCH_ENGINES_RELATIONAL_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "engines/query_ops.h"
#include "engines/relational/database.h"
#include "lang/sql/ast.h"
#include "util/result.h"

namespace graphbench {

/// Executes a parsed SELECT against a Database. Planning is heuristic and
/// query-shape-appropriate for the SNB workload:
///   - the driving table is FROM[0]; an indexed equality predicate on it
///     becomes an index lookup, otherwise a filtered scan;
///   - each JOIN uses an index nested-loop join when the new side's join
///     column is indexed, falling back to a hash join built over a scan;
///   - residual predicates apply as soon as their aliases are bound.
///
/// One execution binds once: every FROM alias to its slot and table, every
/// column reference to (slot, column index), every literal and parameter
/// to its value. An unknown table, alias or column is an InvalidArgument
/// then, before any row is read. The solutions are one flat RowId vector
/// with one slot per alias; joins append to a second buffer, filters
/// compact in place.
///
/// Column reads follow the storage engine. Row mode reads every column
/// value with one whole-tuple Table::Get (tuple-at-a-time, the Postgres
/// model). Columnar mode fetches only the referenced column (the Virtuoso
/// model), and an operator that needs one column of every solution it
/// holds (a filter operand, a join's probe key, a group key) reads it for
/// the whole batch with one Table::GetColumnBatch call. Projection, ORDER
/// BY keys and a group's first value are read per solution, on demand.
/// That asymmetry, not different plans, is what separates the two SQL
/// SUTs.
class SqlExecutor {
 public:
  SqlExecutor(Database* db, const sql::SelectStmt& stmt,
              const std::vector<Value>& params);

  Result<QueryResult> Run();

 private:
  // A column reference bound to its FROM slot and column index.
  struct ColumnRef {
    size_t slot = 0;
    size_t column = 0;
  };
  // An expression bound once per execution: operands are indices into
  // exprs_, constants point at their values.
  struct BoundExpr {
    const sql::Expr* ast = nullptr;
    ColumnRef col;                 // kColumn
    const Value* value = nullptr;  // kLiteral, kParam
    int lhs = -1;                  // kBinary; kShortestPath: from
    int rhs = -1;                  // kBinary; kShortestPath: to
    size_t ready = 0;              // reads only slots below this
  };
  // One FROM entry. For a JOIN: its `join_column` equals `probe`, a
  // column of an earlier slot; `index` is null when the join hash-builds.
  struct Source {
    Table* table = nullptr;
    size_t join_column = 0;
    ColumnRef probe;
    HashIndex* index = nullptr;
  };
  // RowId of a slot no join has bound yet.
  static constexpr RowId kUnbound = ~RowId{0};

  // Resolves every name of the statement, once, into sources_, exprs_
  // and the operator lists below.
  Status BindStatement();
  Result<ColumnRef> Resolve(const sql::Expr& e) const;
  // Binds `e` and its operands; returns its index in exprs_.
  Result<int> Bind(const sql::Expr& e);

  // Solution `i`: width_ consecutive RowIds in rows_.
  const RowId* row(size_t i) const { return rows_.data() + i * width_; }
  // Appends solution `b` with `slot` set to `id` to next_.
  void Extend(const RowId* b, size_t slot, RowId id);
  // Makes next_ the solutions.
  void Advance();

  // Reads one column value of solution `b` (row mode: one whole tuple).
  Result<Value> Fetch(ColumnRef c, const RowId* b);
  // Reads column `c` of every solution into `*out`: one batched table
  // call in columnar mode, one whole-tuple Get per solution in row mode.
  Status FetchAll(ColumnRef c, std::vector<Value>* out);
  Result<Value> Eval(int e, const RowId* b);
  // Operand `e` of every solution into `*out`; nothing for a constant.
  Status EvalAll(int e, std::vector<Value>* out);

  // The driving set: an index lookup or a scan of FROM[0].
  Status Scan();
  Status Join(size_t slot);
  // Applies and drops the conjuncts that read only slots below `bound`.
  Status Filter(size_t bound);
  query_ops::RowFn Values(const std::vector<int>& exprs);
  Result<std::vector<Row>> Aggregate();

  Database* db_;
  const sql::SelectStmt& stmt_;
  const std::vector<Value>& params_;
  const bool row_mode_;
  std::vector<Source> sources_;
  std::vector<BoundExpr> exprs_;
  size_t width_ = 0;
  // WHERE conjuncts not yet applied.
  std::vector<int> conjuncts_;
  // Select items; in aggregate mode their arguments (-1: COUNT(*)).
  std::vector<int> items_;
  std::vector<int> keys_;       // GROUP BY
  std::vector<int> sort_keys_;  // ORDER BY, without aggregation
  bool aggregate_ = false;
  query_ops::AggregateSpec agg_;
  query_ops::ProjectSpec project_;

  // The solutions; with no FROM, one empty solution.
  std::vector<RowId> rows_;
  size_t count_ = 1;
  std::vector<RowId> next_;
  size_t next_count_ = 0;
  // Scratch reused across operators: probe results, a batch's RowIds,
  // a whole tuple, and column values.
  std::vector<RowId> ids_;
  Row tuple_;
  std::vector<Value> lhs_, rhs_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_RELATIONAL_SQL_EXECUTOR_H_
