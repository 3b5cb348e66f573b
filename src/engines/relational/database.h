#ifndef GRAPHBENCH_ENGINES_RELATIONAL_DATABASE_H_
#define GRAPHBENCH_ENGINES_RELATIONAL_DATABASE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>

#include "obs/lock_timer.h"
#include <string>
#include <unordered_map>
#include <vector>

#include "engines/query_ops.h"
#include "lang/plan_cache.h"
#include "lang/sql/ast.h"
#include "storage/durability.h"
#include "storage/hash_index.h"
#include "storage/table.h"
#include "storage/table_schema.h"
#include "util/result.h"

namespace graphbench {

/// Physical layout of the relational engine.
enum class StorageMode {
  kRow,       // slotted-page heap tables: the Postgres analog
  kColumnar,  // per-column vectors: the Virtuoso analog
};

/// Relational database engine executing the SQL subset of
/// lang/sql/parser.h. One instance per SUT; each vertex and edge type of
/// the SNB schema maps to one table (§3.2 of the paper).
///
/// In columnar mode the engine additionally maintains a graph-aware
/// adjacency accelerator per registered edge relationship, modelling
/// Virtuoso's optimized transitivity support: SHORTEST_PATH queries run
/// over int64 adjacency vectors instead of tuple-at-a-time index probes.
class Database {
 public:
  explicit Database(StorageMode mode);
  /// Durable variant: tables are PagedTable over a shared pager/WAL in
  /// `durability.dir` (one db file per Database). Open failures are
  /// deferred to the first CreateTable. With durability disabled this is
  /// identical to Database(mode).
  Database(StorageMode mode, const storage::DurabilityOptions& durability);

  Status CreateTable(const TableSchema& schema);
  /// Index on `column` of `table`; vertex-id columns per the paper's rule.
  Status CreateIndex(std::string_view table, std::string_view column,
                     bool unique);

  /// Declares `table` as an edge relationship over integer vertex ids held
  /// in `src_col`/`dst_col`. Columnar mode builds its adjacency
  /// accelerator from this; row mode records metadata only.
  Status RegisterEdgeTable(std::string_view table, std::string_view src_col,
                           std::string_view dst_col);

  /// Parses and executes one statement. Parameters bind `?` positionally
  /// (LIMIT ? included). Parses per call — the paper-faithful default —
  /// unless the plan cache is enabled, in which case the parsed plan is
  /// looked up by statement text and only the parameters bind.
  Result<QueryResult> Execute(std::string_view sql,
                              const std::vector<Value>& params = {});

  /// Opts this instance into caching parsed plans keyed by statement
  /// text. Call before concurrent use (typically before Load). Off by
  /// default to preserve one-parse-per-query methodology.
  void EnablePlanCache(size_t capacity = lang::kDefaultPlanCacheCapacity);
  bool plan_cache_enabled() const { return plan_cache_ != nullptr; }
  lang::PlanCacheStats plan_cache_stats() const {
    return plan_cache_ == nullptr ? lang::PlanCacheStats{}
                                  : plan_cache_->Stats();
  }

  /// Inserts a full row (schema order), maintaining indexes and — in
  /// columnar mode — the adjacency accelerator. Unique violations roll the
  /// row back. The SQL INSERT path and the Sqlg provider both route here.
  Result<RowId> InsertRow(std::string_view table, const Row& row);

  Table* GetTable(std::string_view name) const;
  HashIndex* GetIndex(std::string_view table, std::string_view column) const;

  StorageMode mode() const { return mode_; }
  uint64_t TotalSizeBytes() const;

  bool durable() const { return pager_ != nullptr; }
  storage::Pager* pager() { return pager_.get(); }
  /// Durable mode: flush + publish + WAL reset (no-op otherwise).
  Status Checkpoint();

  /// Unweighted shortest-path length between application-level vertex ids
  /// over the registered edge table (undirected). -1 if unreachable.
  /// Public so tests can exercise both code paths directly.
  Result<int> ShortestPath(std::string_view edge_table,
                           std::string_view src_col,
                           std::string_view dst_col, const Value& from,
                           const Value& to) const;

 private:
  // Single-table predicate matching for UPDATE/DELETE: RowIds of `table`
  // (named `table_name`) whose row satisfies `where` (all rows when null).
  // Uses an index for a leading indexed equality conjunct, otherwise scans.
  Result<std::vector<RowId>> MatchRows(std::string_view table_name,
                                       Table* table, const sql::Expr* where,
                                       const std::vector<Value>& params);
  Result<QueryResult> ExecuteUpdate(const sql::UpdateStmt& stmt,
                                    const std::vector<Value>& params);
  Result<QueryResult> ExecuteDelete(const sql::DeleteStmt& stmt,
                                    const std::vector<Value>& params);
  // Removes/adds the row's entries in every index on `table`.
  void UnindexRow(const std::string& table, Table* t, RowId id,
                  const Row& row);
  Status IndexRow(std::string_view table, Table* t, RowId id,
                  const Row& row);
  // Columnar adjacency accelerator maintenance for one edge-table row:
  // links (`add`) or unlinks it in both directions; no-op in row mode.
  void AdjacencyUpdate(std::string_view table_name, const Table& table,
                       const Row& row, bool add);

  struct EdgeMeta {
    std::string src_col;
    std::string dst_col;
    // Columnar accelerator: app-id -> neighbour app-ids (undirected view),
    // maintained incrementally on INSERT. Guarded by adj_mu.
    std::unordered_map<int64_t, std::vector<int64_t>> adjacency;
    mutable obs::TimedSharedMutex adj_mu{"relational.lock_wait_us"};
  };

  // Dispatches a parsed statement: the shared tail of the cached and
  // parse-per-call paths of Execute.
  Result<QueryResult> ExecuteStatement(const sql::Statement& stmt,
                                       const std::vector<Value>& params);
  Result<QueryResult> ExecuteInsert(const sql::InsertStmt& stmt,
                                    const std::vector<Value>& params);

  StorageMode mode_;
  storage::DurabilityOptions durability_;
  std::unique_ptr<storage::Pager> pager_;
  Status durability_error_;  // deferred pager-open failure
  mutable obs::TimedSharedMutex catalog_mu_{"relational.lock_wait_us"};
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  // "table.column" -> index
  std::unordered_map<std::string, std::unique_ptr<HashIndex>> indexes_;
  std::unordered_map<std::string, std::unique_ptr<EdgeMeta>> edge_tables_;
  std::unique_ptr<lang::PlanCache<sql::Statement>> plan_cache_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_RELATIONAL_DATABASE_H_
