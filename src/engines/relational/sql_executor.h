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
/// Column access follows the storage engine: row mode materializes the
/// whole tuple per access (tuple-at-a-time, the Postgres model); columnar
/// mode fetches only the referenced column (the Virtuoso model). That
/// asymmetry — not different plans — is what separates the two SQL SUTs.
class SqlExecutor {
 public:
  SqlExecutor(Database* db, const sql::SelectStmt& stmt,
              const std::vector<Value>& params);

  Result<QueryResult> Run();

 private:
  struct AliasInfo {
    std::string alias;
    Table* table = nullptr;
  };
  // A binding assigns a RowId to each alias (kUnbound before its join).
  static constexpr RowId kUnbound = ~RowId{0};
  using Binding = std::vector<RowId>;

  int AliasIndex(const std::string& alias) const;
  // Resolves a column expr to (alias index, column index).
  Status ResolveColumn(const sql::Expr& e, int* alias_idx,
                       int* col_idx) const;
  // True when every column referenced by `e` belongs to a bound alias.
  bool AllBound(const sql::Expr& e, size_t bound_count) const;

  Result<Value> Eval(const sql::Expr& e, const Binding& binding) const;
  // The per-binding half of the query_ops tail: appends the values of
  // `exprs` over the binding at a given position.
  query_ops::RowFn EvalRow(std::vector<const sql::Expr*> exprs,
                           const std::vector<Binding>& bindings) const;
  // Column fetch honouring the storage model (see class comment).
  Result<Value> FetchColumn(int alias_idx, int col_idx,
                            const Binding& binding) const;

  Result<std::vector<Binding>> BuildDrivingSet(
      std::vector<const sql::Expr*>* conjuncts);
  Result<std::vector<Binding>> JoinNext(std::vector<Binding> input,
                                        size_t alias_idx,
                                        const sql::Expr& on);
  Status ApplyReadyConjuncts(std::vector<const sql::Expr*>* conjuncts,
                             size_t bound_count,
                             std::vector<Binding>* bindings) const;

  // Grouped/global aggregation over the final binding set, honouring
  // GROUP BY and ORDER BY on select-item aliases.
  Result<std::vector<Row>> Aggregate(const std::vector<Binding>& bindings,
                                     int64_t limit) const;

  Database* db_;
  const sql::SelectStmt& stmt_;
  const std::vector<Value>& params_;
  std::vector<AliasInfo> aliases_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_RELATIONAL_SQL_EXECUTOR_H_
