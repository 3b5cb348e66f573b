#include "engines/relational/database.h"

#include "obs/lock_timer.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "engines/relational/sql_executor.h"
#include "graph/shortest_path.h"
#include "lang/sql/parser.h"
#include "obs/profiler.h"
#include "storage/column_table.h"
#include "storage/heap_table.h"
#include "storage/paged_table.h"

namespace graphbench {

Database::Database(StorageMode mode) : mode_(mode) {}

Database::Database(StorageMode mode,
                   const storage::DurabilityOptions& durability)
    : mode_(mode), durability_(durability) {
  if (!durability_.enabled) return;
  const char* component =
      mode == StorageMode::kRow ? "rel_row" : "rel_col";
  auto pager = storage::Pager::Open(
      storage::ResolveFileSystem(durability_),
      storage::DbPath(durability_, component),
      storage::WalPath(durability_, component),
      storage::ToPagerOptions(durability_));
  if (pager.ok()) {
    pager_ = std::move(pager).value();
  } else {
    durability_error_ = pager.status();
  }
}

Status Database::CreateTable(const TableSchema& schema) {
  std::unique_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  if (durability_.enabled && !durability_error_.ok()) {
    return durability_error_;
  }
  if (tables_.count(schema.name())) {
    return Status::AlreadyExists("table " + schema.name());
  }
  std::unique_ptr<Table> table;
  if (pager_ != nullptr) {
    // Durable mode: both layouts persist through the slotted paged table
    // (the columnar mode keeps its in-memory adjacency accelerator on
    // top — DESIGN.md §12 discusses the deviation).
    GB_ASSIGN_OR_RETURN(table, PagedTable::Create(pager_.get(), schema));
  } else if (mode_ == StorageMode::kRow) {
    table = std::make_unique<HeapTable>(schema);
  } else {
    table = std::make_unique<ColumnTable>(schema);
  }
  tables_.emplace(schema.name(), std::move(table));
  return Status::OK();
}

Status Database::Checkpoint() {
  if (pager_ == nullptr) return Status::OK();
  return pager_->Checkpoint();
}

Status Database::CreateIndex(std::string_view table, std::string_view column,
                             bool unique) {
  std::unique_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  auto it = tables_.find(std::string(table));
  if (it == tables_.end()) return Status::NotFound("table");
  if (it->second->schema().ColumnIndex(column) < 0) {
    return Status::NotFound("column");
  }
  std::string key = std::string(table) + "." + std::string(column);
  if (indexes_.count(key)) return Status::OK();  // idempotent
  auto index = std::make_unique<HashIndex>(key, unique);
  // Back-fill existing rows.
  int ci = it->second->schema().ColumnIndex(column);
  for (auto scan = it->second->NewScanIterator(); scan->Valid();
       scan->Next()) {
    Value v;
    GB_RETURN_IF_ERROR(
        it->second->GetColumn(scan->row_id(), size_t(ci), &v));
    GB_RETURN_IF_ERROR(index->Insert(v, scan->row_id()));
  }
  indexes_.emplace(std::move(key), std::move(index));
  return Status::OK();
}

Status Database::RegisterEdgeTable(std::string_view table,
                                   std::string_view src_col,
                                   std::string_view dst_col) {
  std::unique_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  auto it = tables_.find(std::string(table));
  if (it == tables_.end()) return Status::NotFound("table");
  auto meta = std::make_unique<EdgeMeta>();
  meta->src_col = std::string(src_col);
  meta->dst_col = std::string(dst_col);
  if (mode_ == StorageMode::kColumnar) {
    // Build the adjacency accelerator from existing rows.
    int si = it->second->schema().ColumnIndex(src_col);
    int di = it->second->schema().ColumnIndex(dst_col);
    if (si < 0 || di < 0) return Status::NotFound("edge column");
    for (auto scan = it->second->NewScanIterator(); scan->Valid();
         scan->Next()) {
      Value s, d;
      GB_RETURN_IF_ERROR(it->second->GetColumn(scan->row_id(), size_t(si), &s));
      GB_RETURN_IF_ERROR(it->second->GetColumn(scan->row_id(), size_t(di), &d));
      meta->adjacency[s.as_int()].push_back(d.as_int());
      meta->adjacency[d.as_int()].push_back(s.as_int());
    }
  }
  edge_tables_[std::string(table)] = std::move(meta);
  return Status::OK();
}

Table* Database::GetTable(std::string_view name) const {
  std::shared_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

HashIndex* Database::GetIndex(std::string_view table,
                              std::string_view column) const {
  std::shared_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  auto it = indexes_.find(std::string(table) + "." + std::string(column));
  return it == indexes_.end() ? nullptr : it->second.get();
}

uint64_t Database::TotalSizeBytes() const {
  std::shared_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table->ApproximateSizeBytes();
  }
  for (const auto& [name, index] : indexes_) {
    total += index->ApproximateSizeBytes();
  }
  for (const auto& [name, meta] : edge_tables_) {
    std::shared_lock<obs::TimedSharedMutex> adj(meta->adj_mu);
    total += meta->adjacency.size() * 48;
    for (const auto& [k, v] : meta->adjacency) total += v.size() * 8;
  }
  return total;
}

namespace {

// Evaluates a single-table expression against one materialized row.
Result<Value> EvalRowExpr(const sql::Expr& e, const TableSchema& schema,
                          const Row& row,
                          const std::vector<Value>& params) {
  using K = sql::Expr::Kind;
  switch (e.kind) {
    case K::kLiteral:
      return e.literal;
    case K::kParam:
      if (e.param_index < 0 || size_t(e.param_index) >= params.size()) {
        return Status::InvalidArgument("parameter index out of range");
      }
      return params[size_t(e.param_index)];
    case K::kColumn: {
      int ci = schema.ColumnIndex(e.column);
      if (ci < 0) {
        return Status::InvalidArgument("unknown column " + e.column);
      }
      return row[size_t(ci)];
    }
    case K::kBinary: {
      GB_ASSIGN_OR_RETURN(Value l,
                          EvalRowExpr(*e.lhs, schema, row, params));
      if (e.op == sql::BinOp::kAnd) {
        if (!l.is_bool() || !l.as_bool()) return Value(false);
        return EvalRowExpr(*e.rhs, schema, row, params);
      }
      GB_ASSIGN_OR_RETURN(Value r,
                          EvalRowExpr(*e.rhs, schema, row, params));
      return Value(query_ops::Satisfies(e.op, l.Compare(r)));
    }
    default:
      return Status::NotSupported("expression not allowed in DML WHERE");
  }
}

}  // namespace

Result<std::vector<RowId>> Database::MatchRows(
    std::string_view table_name, Table* table, const sql::Expr* where,
    const std::vector<Value>& params) {
  // Leading indexed equality: WHERE col = const [AND ...].
  const sql::Expr* probe = where;
  while (probe != nullptr && probe->kind == sql::Expr::Kind::kBinary &&
         probe->op == sql::BinOp::kAnd) {
    probe = probe->lhs.get();
  }
  std::vector<RowId> candidates;
  bool used_index = false;
  if (probe != nullptr && probe->kind == sql::Expr::Kind::kBinary &&
      probe->op == sql::BinOp::kEq &&
      probe->lhs->kind == sql::Expr::Kind::kColumn &&
      (probe->rhs->kind == sql::Expr::Kind::kLiteral ||
       probe->rhs->kind == sql::Expr::Kind::kParam)) {
    HashIndex* index = GetIndex(table_name, probe->lhs->column);
    if (index != nullptr) {
      GB_ASSIGN_OR_RETURN(
          Value key, EvalRowExpr(*probe->rhs, table->schema(), {}, params));
      index->Lookup(key, &candidates);
      used_index = true;
    }
  }
  if (!used_index) {
    for (auto it = table->NewScanIterator(); it->Valid(); it->Next()) {
      candidates.push_back(it->row_id());
    }
  }
  std::vector<RowId> out;
  for (RowId id : candidates) {
    if (where == nullptr) {
      out.push_back(id);
      continue;
    }
    Row row;
    GB_RETURN_IF_ERROR(table->Get(id, &row));
    GB_ASSIGN_OR_RETURN(Value pass,
                        EvalRowExpr(*where, table->schema(), row, params));
    if (pass.is_bool() && pass.as_bool()) out.push_back(id);
  }
  return out;
}

void Database::UnindexRow(const std::string& table_name, Table* table,
                          RowId id, const Row& row) {
  std::shared_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  std::string prefix = table_name + ".";
  for (const auto& [key, index] : indexes_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    int ci = table->schema().ColumnIndex(key.substr(prefix.size()));
    index->Remove(row[size_t(ci)], id);
  }
}

Status Database::IndexRow(std::string_view table_name, Table* table,
                          RowId id, const Row& row) {
  std::shared_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  std::string prefix = std::string(table_name) + ".";
  std::vector<HashIndex*> touched;
  std::vector<int> touched_cols;
  for (const auto& [key, index] : indexes_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    int ci = table->schema().ColumnIndex(key.substr(prefix.size()));
    Status s = index->Insert(row[size_t(ci)], id);
    if (!s.ok()) {
      for (size_t i = 0; i < touched.size(); ++i) {
        touched[i]->Remove(row[size_t(touched_cols[i])], id);
      }
      return s;
    }
    touched.push_back(index.get());
    touched_cols.push_back(ci);
  }
  return Status::OK();
}

void Database::AdjacencyUpdate(std::string_view table_name,
                               const Table& table, const Row& row,
                               bool add) {
  if (mode_ != StorageMode::kColumnar) return;
  std::shared_lock<obs::TimedSharedMutex> lock(catalog_mu_);
  auto it = edge_tables_.find(std::string(table_name));
  if (it == edge_tables_.end()) return;
  EdgeMeta* meta = it->second.get();
  const TableSchema& schema = table.schema();
  int64_t s = row[size_t(schema.ColumnIndex(meta->src_col))].as_int();
  int64_t d = row[size_t(schema.ColumnIndex(meta->dst_col))].as_int();
  std::unique_lock<obs::TimedSharedMutex> adj(meta->adj_mu);
  for (auto [from, to] : {std::pair{s, d}, std::pair{d, s}}) {
    std::vector<int64_t>& list = meta->adjacency[from];
    if (add) {
      list.push_back(to);
      continue;
    }
    auto pos = std::find(list.begin(), list.end(), to);
    if (pos != list.end()) list.erase(pos);
  }
}

Result<QueryResult> Database::ExecuteUpdate(
    const sql::UpdateStmt& stmt, const std::vector<Value>& params) {
  Table* table = GetTable(stmt.table);
  if (table == nullptr) {
    return Status::InvalidArgument("unknown table " + stmt.table);
  }
  GB_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                      MatchRows(stmt.table, table, stmt.where.get(), params));
  QueryResult result;
  for (RowId id : ids) {
    Row old_row;
    GB_RETURN_IF_ERROR(table->Get(id, &old_row));
    Row new_row = old_row;
    for (const auto& [column, expr] : stmt.sets) {
      int ci = table->schema().ColumnIndex(column);
      if (ci < 0) {
        return Status::InvalidArgument("unknown column " + column);
      }
      GB_ASSIGN_OR_RETURN(
          new_row[size_t(ci)],
          EvalRowExpr(*expr, table->schema(), old_row, params));
    }
    UnindexRow(stmt.table, table, id, old_row);
    Status reindexed = IndexRow(stmt.table, table, id, new_row);
    if (!reindexed.ok()) {
      // Unique violation: restore the old entries and stop.
      IndexRow(stmt.table, table, id, old_row);
      return reindexed;
    }
    GB_RETURN_IF_ERROR(table->Update(id, new_row));
    AdjacencyUpdate(stmt.table, *table, old_row, /*add=*/false);
    AdjacencyUpdate(stmt.table, *table, new_row, /*add=*/true);
    ++result.affected;
  }
  return result;
}

Result<QueryResult> Database::ExecuteDelete(
    const sql::DeleteStmt& stmt, const std::vector<Value>& params) {
  Table* table = GetTable(stmt.table);
  if (table == nullptr) {
    return Status::InvalidArgument("unknown table " + stmt.table);
  }
  GB_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                      MatchRows(stmt.table, table, stmt.where.get(), params));
  QueryResult result;
  for (RowId id : ids) {
    Row row;
    GB_RETURN_IF_ERROR(table->Get(id, &row));
    UnindexRow(stmt.table, table, id, row);
    GB_RETURN_IF_ERROR(table->Delete(id));
    AdjacencyUpdate(stmt.table, *table, row, /*add=*/false);
    ++result.affected;
  }
  return result;
}

void Database::EnablePlanCache(size_t capacity) {
  plan_cache_ =
      std::make_unique<lang::PlanCache<sql::Statement>>("sql", capacity);
}

Result<QueryResult> Database::Execute(std::string_view sql_text,
                                      const std::vector<Value>& params) {
  // Root phase: cumulative spans the whole statement; self is the
  // dispatch/assembly work the phases below do not account for.
  obs::OpTimer root_op("execute");
  if (plan_cache_ != nullptr) {
    if (auto cached = plan_cache_->Lookup(sql_text)) {
      return ExecuteStatement(*cached, params);
    }
    obs::OpTimer cached_parse_op("parse");
    GB_ASSIGN_OR_RETURN(sql::Statement parsed, sql::Parse(sql_text));
    cached_parse_op.Stop();
    auto shared = std::make_shared<const sql::Statement>(std::move(parsed));
    plan_cache_->Insert(sql_text, shared);
    return ExecuteStatement(*shared, params);
  }
  obs::OpTimer parse_op("parse");
  GB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql_text));
  parse_op.Stop();
  return ExecuteStatement(stmt, params);
}

Result<QueryResult> Database::ExecuteStatement(
    const sql::Statement& stmt, const std::vector<Value>& params) {
  if (stmt.kind == sql::Statement::Kind::kSelect) {
    // Read committed: a SELECT that bound a row a concurrent DELETE then
    // removed (Aborted, see SqlExecutor::FetchColumn) runs again.
    while (true) {
      SqlExecutor exec(this, *stmt.select, params);
      Result<QueryResult> result = exec.Run();
      if (result.ok() || !result.status().IsAborted()) return result;
    }
  }
  if (stmt.kind == sql::Statement::Kind::kUpdate) {
    return ExecuteUpdate(*stmt.update, params);
  }
  if (stmt.kind == sql::Statement::Kind::kDelete) {
    return ExecuteDelete(*stmt.del, params);
  }
  return ExecuteInsert(*stmt.insert, params);
}

Result<QueryResult> Database::ExecuteInsert(const sql::InsertStmt& ins,
                                            const std::vector<Value>& params) {
  Table* table = GetTable(ins.table);
  if (table == nullptr) {
    return Status::InvalidArgument("unknown table " + ins.table);
  }
  if (ins.columns.size() != ins.values.size()) {
    return Status::InvalidArgument("INSERT arity mismatch");
  }
  Row row(table->schema().num_columns());  // Nulls for unnamed columns
  for (size_t i = 0; i < ins.columns.size(); ++i) {
    int ci = table->schema().ColumnIndex(ins.columns[i]);
    if (ci < 0) {
      return Status::InvalidArgument("unknown column " + ins.columns[i]);
    }
    const sql::Expr& e = *ins.values[i];
    if (e.kind != sql::Expr::Kind::kLiteral &&
        e.kind != sql::Expr::Kind::kParam) {
      return Status::NotSupported("INSERT values must be literals/params");
    }
    GB_ASSIGN_OR_RETURN(row[size_t(ci)],
                        EvalRowExpr(e, table->schema(), {}, params));
  }
  GB_RETURN_IF_ERROR(InsertRow(ins.table, row).status());
  QueryResult result;
  result.affected = 1;
  return result;
}

Result<RowId> Database::InsertRow(std::string_view table_name,
                                  const Row& row) {
  Table* table = GetTable(table_name);
  if (table == nullptr) {
    return Status::InvalidArgument("unknown table " +
                                   std::string(table_name));
  }
  GB_ASSIGN_OR_RETURN(RowId id, table->Insert(row));
  // Maintain indexes; a unique violation rolls the row back.
  Status indexed = IndexRow(table_name, table, id, row);
  if (!indexed.ok()) {
    table->Delete(id);
    return indexed;
  }

  // Maintain the columnar adjacency accelerator (Virtuoso's graph-aware
  // structures add write-path work; §4.3's row-vs-column write gap).
  AdjacencyUpdate(table_name, *table, row, /*add=*/true);
  return id;
}

Result<int> Database::ShortestPath(std::string_view edge_table,
                                   std::string_view src_col,
                                   std::string_view dst_col,
                                   const Value& from, const Value& to) const {
  Table* table = GetTable(edge_table);
  if (table == nullptr) return Status::InvalidArgument("unknown edge table");
  if (mode_ == StorageMode::kColumnar) {
    std::shared_lock<obs::TimedSharedMutex> lock(catalog_mu_);
    auto it = edge_tables_.find(std::string(edge_table));
    if (it != edge_tables_.end()) {
      EdgeMeta* meta = it->second.get();
      lock.unlock();
      // Bidirectional BFS over int64 adjacency vectors (Virtuoso's
      // optimized transitivity path).
      if (!from.is_int() || !to.is_int()) {
        return Status::InvalidArgument("vertex ids must be integers");
      }
      std::shared_lock<obs::TimedSharedMutex> adj_lock(meta->adj_mu);
      const auto& adj = meta->adjacency;
      return BidirectionalBfsDistance(
          from.as_int(), to.as_int(), [&adj](int64_t v, auto&& emit) {
            auto found = adj.find(v);
            if (found == adj.end()) return Status::OK();
            for (int64_t next : found->second) {
              if (!emit(next)) break;
            }
            return Status::OK();
          });
    }
    lock.unlock();
  }
  HashIndex* src_idx = GetIndex(edge_table, src_col);
  HashIndex* dst_idx = GetIndex(edge_table, dst_col);
  if (src_idx == nullptr || dst_idx == nullptr) {
    return Status::InvalidArgument(
        "SHORTEST_PATH requires indexes on both edge columns");
  }
  const size_t si = size_t(table->schema().ColumnIndex(src_col));
  const size_t di = size_t(table->schema().ColumnIndex(dst_col));
  // Single-sided BFS, one index probe + full-tuple fetch per edge — the
  // iterated self-join a row engine without transitivity support runs.
  // The probe and tuple buffers are reused from edge to edge.
  std::vector<RowId> ids;
  Row row;
  return BfsDistance<Value, ValueHash>(
      from, to, [&](const Value& v, auto&& emit) -> Status {
        for (auto [index, col] : {std::pair{src_idx, di},
                                  std::pair{dst_idx, si}}) {
          ids.clear();
          index->Lookup(v, &ids);
          for (RowId id : ids) {
            // Tuple-at-a-time: materialize the whole edge row.
            Status got = table->Get(id, &row);
            if (got.IsNotFound()) continue;  // deleted after the probe
            GB_RETURN_IF_ERROR(got);
            if (!emit(row[col])) return Status::OK();
          }
        }
        return Status::OK();
      });
}

}  // namespace graphbench
