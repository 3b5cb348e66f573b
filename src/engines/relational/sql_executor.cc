#include "engines/relational/sql_executor.h"

#include <unordered_map>
#include <utility>

#include "obs/profiler.h"

namespace graphbench {

using sql::BinOp;
using sql::Expr;

namespace {

// Flattens an AND tree into individual conjuncts.
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kBinary && e->op == BinOp::kAnd) {
    FlattenConjuncts(e->lhs.get(), out);
    FlattenConjuncts(e->rhs.get(), out);
    return;
  }
  out->push_back(e);
}

}  // namespace

SqlExecutor::SqlExecutor(Database* db, const sql::SelectStmt& stmt,
                         const std::vector<Value>& params)
    : db_(db), stmt_(stmt), params_(params) {}

int SqlExecutor::AliasIndex(const std::string& alias) const {
  for (size_t i = 0; i < aliases_.size(); ++i) {
    if (aliases_[i].alias == alias) return int(i);
  }
  return -1;
}

Status SqlExecutor::ResolveColumn(const Expr& e, int* alias_idx,
                                  int* col_idx) const {
  if (!e.table_alias.empty()) {
    int ai = AliasIndex(e.table_alias);
    if (ai < 0) {
      return Status::InvalidArgument("unknown alias " + e.table_alias);
    }
    int ci = aliases_[size_t(ai)].table->schema().ColumnIndex(e.column);
    if (ci < 0) {
      return Status::InvalidArgument("unknown column " + e.table_alias +
                                     "." + e.column);
    }
    *alias_idx = ai;
    *col_idx = ci;
    return Status::OK();
  }
  // Unqualified: first table whose schema has the column.
  for (size_t i = 0; i < aliases_.size(); ++i) {
    int ci = aliases_[i].table->schema().ColumnIndex(e.column);
    if (ci >= 0) {
      *alias_idx = int(i);
      *col_idx = ci;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown column " + e.column);
}

bool SqlExecutor::AllBound(const Expr& e, size_t bound_count) const {
  switch (e.kind) {
    case Expr::Kind::kColumn: {
      int ai, ci;
      if (!ResolveColumn(e, &ai, &ci).ok()) return false;
      return size_t(ai) < bound_count;
    }
    case Expr::Kind::kBinary:
      return AllBound(*e.lhs, bound_count) && AllBound(*e.rhs, bound_count);
    case Expr::Kind::kShortestPath:
      return AllBound(*e.sp_from, bound_count) &&
             AllBound(*e.sp_to, bound_count);
    default:
      return true;
  }
}

Result<Value> SqlExecutor::FetchColumn(int alias_idx, int col_idx,
                                       const Binding& binding) const {
  RowId id = binding[size_t(alias_idx)];
  Table* table = aliases_[size_t(alias_idx)].table;
  Row row;
  Value v;
  // Tuple-at-a-time: the row store hands back the whole tuple and the
  // executor projects out of it, as a row engine does.
  const bool whole_row = db_->mode() == StorageMode::kRow;
  Status got = whole_row ? table->Get(id, &row)
                         : table->GetColumn(id, size_t(col_idx), &v);
  // A concurrent DELETE removed the row after the probe or join that
  // bound it: Aborted makes Database::Execute re-run the SELECT.
  if (got.IsNotFound()) return Status::Aborted("row deleted during read");
  GB_RETURN_IF_ERROR(got);
  return whole_row ? row[size_t(col_idx)] : v;
}

Result<Value> SqlExecutor::Eval(const Expr& e, const Binding& binding) const {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kParam:
      if (e.param_index < 0 || size_t(e.param_index) >= params_.size()) {
        return Status::InvalidArgument("parameter index out of range");
      }
      return params_[size_t(e.param_index)];
    case Expr::Kind::kColumn: {
      int ai, ci;
      GB_RETURN_IF_ERROR(ResolveColumn(e, &ai, &ci));
      if (binding[size_t(ai)] == kUnbound) {
        return Status::Internal("column evaluated before its join");
      }
      return FetchColumn(ai, ci, binding);
    }
    case Expr::Kind::kBinary: {
      if (e.op == BinOp::kAnd) {
        GB_ASSIGN_OR_RETURN(Value l, Eval(*e.lhs, binding));
        if (!l.as_bool()) return Value(false);
        return Eval(*e.rhs, binding);
      }
      GB_ASSIGN_OR_RETURN(Value l, Eval(*e.lhs, binding));
      GB_ASSIGN_OR_RETURN(Value r, Eval(*e.rhs, binding));
      return Value(query_ops::Satisfies(e.op, l.Compare(r)));
    }
    case Expr::Kind::kShortestPath: {
      obs::OpTimer op("shortest_path");
      GB_ASSIGN_OR_RETURN(Value from, Eval(*e.sp_from, binding));
      GB_ASSIGN_OR_RETURN(Value to, Eval(*e.sp_to, binding));
      GB_ASSIGN_OR_RETURN(
          int len, db_->ShortestPath(e.sp_table, e.sp_src_col, e.sp_dst_col,
                                     from, to));
      return Value(int64_t{len});
    }
    case Expr::Kind::kCountStar:
      return Status::Internal("COUNT(*) outside aggregation context");
    case Expr::Kind::kAggregate:
      // Aggregates are computed by Aggregate() from select items; one
      // anywhere else (WHERE, a non-aggregate ORDER BY) has no group.
      return Status::InvalidArgument(
          "aggregate function outside an aggregate select item");
  }
  return Status::Internal("unhandled expression kind");
}

Result<std::vector<SqlExecutor::Binding>> SqlExecutor::BuildDrivingSet(
    std::vector<const Expr*>* conjuncts) {
  Table* driving = aliases_[0].table;
  const std::string& table_name = stmt_.from[0].table;

  // Look for an indexed equality conjunct on the driving table.
  for (auto it = conjuncts->begin(); it != conjuncts->end(); ++it) {
    const Expr* c = *it;
    if (c->kind != Expr::Kind::kBinary || c->op != BinOp::kEq) continue;
    const Expr* col = nullptr;
    const Expr* other = nullptr;
    for (auto [a, b] : {std::pair{c->lhs.get(), c->rhs.get()},
                        std::pair{c->rhs.get(), c->lhs.get()}}) {
      if (a->kind == Expr::Kind::kColumn &&
          (b->kind == Expr::Kind::kLiteral ||
           b->kind == Expr::Kind::kParam)) {
        col = a;
        other = b;
        break;
      }
    }
    if (col == nullptr) continue;
    int ai, ci;
    if (!ResolveColumn(*col, &ai, &ci).ok() || ai != 0) continue;
    HashIndex* index = db_->GetIndex(
        table_name, driving->schema().columns()[size_t(ci)].name);
    if (index == nullptr) continue;
    Binding empty(aliases_.size(), kUnbound);
    GB_ASSIGN_OR_RETURN(Value key, Eval(*other, empty));
    std::vector<Binding> out;
    for (RowId id : index->Lookup(key)) {
      Binding b(aliases_.size(), kUnbound);
      b[0] = id;
      out.push_back(std::move(b));
    }
    conjuncts->erase(it);  // consumed by the index lookup
    return out;
  }

  // Fall back to a full scan; residual conjuncts filter later.
  std::vector<Binding> out;
  for (auto it = driving->NewScanIterator(); it->Valid(); it->Next()) {
    Binding b(aliases_.size(), kUnbound);
    b[0] = it->row_id();
    out.push_back(std::move(b));
  }
  return out;
}

Result<std::vector<SqlExecutor::Binding>> SqlExecutor::JoinNext(
    std::vector<Binding> input, size_t alias_idx, const Expr& on) {
  if (on.kind != Expr::Kind::kBinary || on.op != BinOp::kEq ||
      on.lhs->kind != Expr::Kind::kColumn ||
      on.rhs->kind != Expr::Kind::kColumn) {
    return Status::NotSupported("JOIN ON requires column equality");
  }
  // (new_ai, new_ci) is the joined table's side of the equality.
  int new_ai, new_ci, old_ai, old_ci;
  GB_RETURN_IF_ERROR(ResolveColumn(*on.lhs, &new_ai, &new_ci));
  GB_RETURN_IF_ERROR(ResolveColumn(*on.rhs, &old_ai, &old_ci));
  if (size_t(new_ai) != alias_idx) {
    std::swap(new_ai, old_ai);
    std::swap(new_ci, old_ci);
  }
  if (size_t(new_ai) != alias_idx) {
    return Status::NotSupported("ON must reference the joined table");
  }

  Table* new_table = aliases_[alias_idx].table;
  const std::string& new_col =
      new_table->schema().columns()[size_t(new_ci)].name;
  HashIndex* index = db_->GetIndex(stmt_.from[alias_idx].table, new_col);

  std::vector<Binding> out;
  if (index != nullptr) {
    // Index nested-loop join.
    for (Binding& b : input) {
      GB_ASSIGN_OR_RETURN(Value key, FetchColumn(old_ai, old_ci, b));
      for (RowId id : index->Lookup(key)) {
        Binding nb = b;
        nb[alias_idx] = id;
        out.push_back(std::move(nb));
      }
    }
    return out;
  }

  // Hash join: build on the new table's join column.
  std::unordered_map<Value, std::vector<RowId>, ValueHash> build;
  for (auto it = new_table->NewScanIterator(); it->Valid(); it->Next()) {
    Value key;
    Status got = new_table->GetColumn(it->row_id(), size_t(new_ci), &key);
    if (got.IsNotFound()) continue;  // deleted since the scan reached it
    GB_RETURN_IF_ERROR(got);
    build[key].push_back(it->row_id());
  }
  for (Binding& b : input) {
    GB_ASSIGN_OR_RETURN(Value key, FetchColumn(old_ai, old_ci, b));
    auto hit = build.find(key);
    if (hit == build.end()) continue;
    for (RowId id : hit->second) {
      Binding nb = b;
      nb[alias_idx] = id;
      out.push_back(std::move(nb));
    }
  }
  return out;
}

Status SqlExecutor::ApplyReadyConjuncts(
    std::vector<const Expr*>* conjuncts, size_t bound_count,
    std::vector<Binding>* bindings) const {
  for (auto it = conjuncts->begin(); it != conjuncts->end();) {
    if (!AllBound(**it, bound_count)) {
      ++it;
      continue;
    }
    std::vector<Binding> kept;
    kept.reserve(bindings->size());
    for (Binding& b : *bindings) {
      GB_ASSIGN_OR_RETURN(Value pass, Eval(**it, b));
      if (pass.is_bool() && pass.as_bool()) kept.push_back(std::move(b));
    }
    *bindings = std::move(kept);
    it = conjuncts->erase(it);
  }
  return Status::OK();
}

query_ops::RowFn SqlExecutor::EvalRow(
    std::vector<const Expr*> exprs,
    const std::vector<Binding>& bindings) const {
  return [this, &bindings, exprs = std::move(exprs)](size_t i,
                                                     Row* out) -> Status {
    for (const Expr* e : exprs) {
      GB_ASSIGN_OR_RETURN(Value v, Eval(*e, bindings[i]));
      out->push_back(std::move(v));
    }
    return Status::OK();
  };
}

Result<std::vector<Row>> SqlExecutor::Aggregate(
    const std::vector<Binding>& bindings, int64_t limit) const {
  query_ops::AggregateSpec spec;
  spec.grouped = !stmt_.group_by.empty();
  spec.limit = limit;
  for (const auto& item : stmt_.items) {
    using query_ops::Agg;
    const Expr& e = *item.expr;
    if (e.kind == Expr::Kind::kCountStar) {
      spec.items.push_back({Agg::kCountStar});
    } else if (e.kind != Expr::Kind::kAggregate) {
      spec.items.push_back({Agg::kFirst});
    } else {
      // Indexed by sql::AggFn.
      static constexpr Agg kByFn[] = {Agg::kCount, Agg::kSum, Agg::kMin,
                                      Agg::kMax, Agg::kAvg};
      spec.items.push_back({kByFn[int(e.agg_fn)]});
    }
  }
  // ORDER BY in aggregate mode references select-item aliases.
  for (const auto& o : stmt_.order_by) {
    if (o.expr->kind != Expr::Kind::kColumn || !o.expr->table_alias.empty()) {
      return Status::NotSupported(
          "aggregate ORDER BY must name a select alias");
    }
    size_t column = 0;
    while (column < stmt_.items.size() &&
           stmt_.items[column].name != o.expr->column) {
      ++column;
    }
    if (column == stmt_.items.size()) {
      return Status::InvalidArgument("unknown ORDER BY alias " +
                                     o.expr->column);
    }
    spec.order.push_back({column, o.desc});
  }
  std::vector<const Expr*> keys;
  for (const auto& g : stmt_.group_by) keys.push_back(g.get());
  return query_ops::Aggregate(
      bindings.size(), spec, EvalRow(std::move(keys), bindings),
      [this, &bindings](size_t i, size_t item, Value* out) -> Status {
        const Expr& e = *stmt_.items[item].expr;
        GB_ASSIGN_OR_RETURN(
            *out, Eval(e.kind == Expr::Kind::kAggregate ? *e.lhs : e,
                       bindings[i]));
        return Status::OK();
      });
}

Result<QueryResult> SqlExecutor::Run() {
  // Plan phase: resolve FROM aliases and flatten the WHERE conjuncts.
  obs::OpTimer plan_op("plan");
  for (const auto& ref : stmt_.from) {
    Table* t = db_->GetTable(ref.table);
    if (t == nullptr) {
      return Status::InvalidArgument("unknown table " + ref.table);
    }
    aliases_.push_back(AliasInfo{ref.alias, t});
  }

  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(stmt_.where.get(), &conjuncts);
  plan_op.Stop();
  const size_t limit_at = size_t(stmt_.limit_param);  // -1: no parameter
  GB_ASSIGN_OR_RETURN(
      int64_t limit,
      query_ops::BindLimit(
          stmt_.limit, stmt_.limit_param >= 0,
          limit_at < params_.size() ? &params_[limit_at] : nullptr));

  std::vector<Binding> bindings;
  if (aliases_.empty()) {
    bindings.emplace_back();  // one empty binding: SELECT SHORTEST_PATH(..)
  } else {
    {
      obs::OpTimer scan_op("scan");
      GB_ASSIGN_OR_RETURN(bindings, BuildDrivingSet(&conjuncts));
      scan_op.AddRows(bindings.size());
    }
    {
      obs::OpTimer filter_op("filter");
      GB_RETURN_IF_ERROR(ApplyReadyConjuncts(&conjuncts, 1, &bindings));
      filter_op.AddRows(bindings.size());
    }
    for (size_t i = 1; i < aliases_.size(); ++i) {
      {
        obs::OpTimer join_op("join");
        GB_ASSIGN_OR_RETURN(
            bindings, JoinNext(std::move(bindings), i, *stmt_.from[i].on));
        join_op.AddRows(bindings.size());
      }
      obs::OpTimer filter_op("filter");
      GB_RETURN_IF_ERROR(ApplyReadyConjuncts(&conjuncts, i + 1, &bindings));
      filter_op.AddRows(bindings.size());
    }
  }
  if (!conjuncts.empty()) {
    return Status::NotSupported("unappliable WHERE predicate");
  }

  QueryResult result;
  for (const auto& item : stmt_.items) result.columns.push_back(item.name);

  // Aggregation path: any aggregate item or an explicit GROUP BY.
  bool has_aggregate = !stmt_.group_by.empty();
  for (const auto& item : stmt_.items) {
    has_aggregate |= item.expr->kind == Expr::Kind::kCountStar ||
                     item.expr->kind == Expr::Kind::kAggregate;
  }
  if (has_aggregate) {
    GB_ASSIGN_OR_RETURN(result.rows, Aggregate(bindings, limit));
    return result;
  }

  // Projection, with ORDER BY keys computed alongside.
  query_ops::ProjectSpec spec{stmt_.distinct, stmt_.items.size(), {}, limit};
  std::vector<const Expr*> items, sort_keys;
  for (const auto& item : stmt_.items) items.push_back(item.expr.get());
  for (const auto& o : stmt_.order_by) {
    sort_keys.push_back(o.expr.get());
    spec.desc.push_back(o.desc);
  }
  GB_ASSIGN_OR_RETURN(
      result.rows,
      query_ops::Project(bindings.size(), spec,
                         EvalRow(std::move(items), bindings),
                         EvalRow(std::move(sort_keys), bindings)));
  return result;
}

}  // namespace graphbench
