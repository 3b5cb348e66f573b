#include "engines/relational/sql_executor.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/profiler.h"

namespace graphbench {

using sql::BinOp;
using sql::Expr;

namespace {

// A read of a row a concurrent DELETE removed after the probe or join that
// bound it: Aborted makes Database::Execute re-run the SELECT.
Status ReadStatus(Status got) {
  if (got.IsNotFound()) return Status::Aborted("row deleted during read");
  return got;
}

}  // namespace

SqlExecutor::SqlExecutor(Database* db, const std::vector<Value>& params)
    : db_(db),
      params_(params),
      row_mode_(db->mode() == StorageMode::kRow) {}

Result<const Value*> SqlExecutor::Constant(const Expr& e,
                                           const std::vector<Value>& params) {
  if (e.kind == Expr::Kind::kLiteral) return &e.literal;
  if (e.kind != Expr::Kind::kParam) {
    return Status::NotSupported("expected a literal or parameter");
  }
  if (e.param_index < 0 || size_t(e.param_index) >= params.size()) {
    return Status::InvalidArgument("parameter index out of range");
  }
  return &params[size_t(e.param_index)];
}

Result<SqlExecutor::ColumnRef> SqlExecutor::Resolve(const Expr& e) const {
  // Qualified: the first FROM entry of that alias. Unqualified: the first
  // whose table has the column.
  if (!e.table_alias.empty()) {
    GB_ASSIGN_OR_RETURN(size_t slot, frame_.Known(e.table_alias, "alias "));
    int ci = sources_[slot].table->schema().ColumnIndex(e.column);
    if (ci < 0) {
      return Status::InvalidArgument("unknown column " + e.table_alias +
                                     "." + e.column);
    }
    return ColumnRef{slot, size_t(ci)};
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    int ci = sources_[i].table->schema().ColumnIndex(e.column);
    if (ci >= 0) return ColumnRef{i, size_t(ci)};
  }
  return Status::InvalidArgument("unknown column " + e.column);
}

Result<int> SqlExecutor::Bind(const Expr& e) {
  if (exprs_.empty()) exprs_.reserve(16);  // room for any workload statement
  BoundExpr b;
  b.ast = &e;
  switch (e.kind) {
    case Expr::Kind::kColumn: {
      GB_ASSIGN_OR_RETURN(b.col, Resolve(e));
      b.ready = b.col.slot + 1;
      break;
    }
    case Expr::Kind::kLiteral:
    case Expr::Kind::kParam: {
      GB_ASSIGN_OR_RETURN(b.value, Constant(e, params_));
      break;
    }
    case Expr::Kind::kBinary: {
      GB_ASSIGN_OR_RETURN(b.lhs, Bind(*e.lhs));
      GB_ASSIGN_OR_RETURN(b.rhs, Bind(*e.rhs));
      break;
    }
    case Expr::Kind::kShortestPath: {
      GB_ASSIGN_OR_RETURN(b.lhs, Bind(*e.sp_from));
      GB_ASSIGN_OR_RETURN(b.rhs, Bind(*e.sp_to));
      break;
    }
    case Expr::Kind::kCountStar:
    case Expr::Kind::kAggregate:
      // BindOutput binds an aggregate select item's argument; an
      // aggregate anywhere else (WHERE, a non-aggregate ORDER BY) has no
      // group.
      return Status::InvalidArgument(
          "aggregate function outside an aggregate select item");
  }
  if (b.lhs >= 0) {
    b.ready = std::max(exprs_[size_t(b.lhs)].ready,
                       exprs_[size_t(b.rhs)].ready);
  }
  exprs_.push_back(b);
  return int(exprs_.size() - 1);
}

Status SqlExecutor::AddSource(const std::string& table,
                              const std::string& alias) {
  Table* t = db_->GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table " + table);
  Source& s = sources_.emplace_back();
  s.table = t;
  s.name = &table;
  frame_.AddSlot(alias);
  return Status::OK();
}

Status SqlExecutor::BindJoins(const std::vector<sql::TableRef>& from) {
  // Each JOIN equates a column of its table with one of an earlier table.
  for (size_t i = 1; i < sources_.size(); ++i) {
    const Expr* on = from[i].on.get();
    if (on == nullptr || on->kind != Expr::Kind::kBinary ||
        on->op != BinOp::kEq || on->lhs->kind != Expr::Kind::kColumn ||
        on->rhs->kind != Expr::Kind::kColumn) {
      return Status::NotSupported("JOIN ON requires column equality");
    }
    GB_ASSIGN_OR_RETURN(ColumnRef joined, Resolve(*on->lhs));
    GB_ASSIGN_OR_RETURN(ColumnRef probe, Resolve(*on->rhs));
    if (joined.slot != i) std::swap(joined, probe);
    if (joined.slot != i || probe.slot >= i) {
      return Status::NotSupported(
          "ON must equate the joined table with an earlier one");
    }
    Source& s = sources_[i];
    s.join_column = joined.column;
    s.probe = probe;
    s.index = db_->GetIndex(*s.name,
                            s.table->schema().columns()[joined.column].name);
  }
  return Status::OK();
}

Status SqlExecutor::BindWhere(const Expr* where) {
  // An AND tree becomes its conjuncts, in order.
  if (where == nullptr) return Status::OK();
  if (where->kind == Expr::Kind::kBinary && where->op == BinOp::kAnd) {
    GB_RETURN_IF_ERROR(BindWhere(where->lhs.get()));
    return BindWhere(where->rhs.get());
  }
  GB_ASSIGN_OR_RETURN(conjuncts_.emplace_back(), Bind(*where));
  return Status::OK();
}

Status SqlExecutor::BindOutput(const sql::SelectStmt& stmt) {
  // Aggregation: any aggregate item or an explicit GROUP BY.
  aggregate_ = !stmt.group_by.empty();
  items_.reserve(stmt.items.size());
  for (const auto& item : stmt.items) {
    aggregate_ |= item.expr->kind == Expr::Kind::kCountStar ||
                  item.expr->kind == Expr::Kind::kAggregate;
  }
  if (!aggregate_) {
    for (const auto& item : stmt.items) {
      GB_ASSIGN_OR_RETURN(items_.emplace_back(), Bind(*item.expr));
    }
    // ORDER BY keys computed alongside the projection.
    project_ = {stmt.distinct, stmt.items.size(), {}, -1};
    for (const auto& o : stmt.order_by) {
      GB_ASSIGN_OR_RETURN(sort_keys_.emplace_back(), Bind(*o.expr));
      project_.desc.push_back(o.desc);
    }
    return Status::OK();
  }

  agg_.grouped = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    using query_ops::Agg;
    const Expr& e = *item.expr;
    if (e.kind == Expr::Kind::kCountStar) {
      agg_.items.push_back({Agg::kCountStar});
      items_.push_back(-1);
      continue;
    }
    if (e.kind != Expr::Kind::kAggregate) {
      agg_.items.push_back({Agg::kFirst});
      GB_ASSIGN_OR_RETURN(items_.emplace_back(), Bind(e));
      continue;
    }
    // Indexed by sql::AggFn.
    static constexpr Agg kByFn[] = {Agg::kCount, Agg::kSum, Agg::kMin,
                                    Agg::kMax, Agg::kAvg};
    agg_.items.push_back({kByFn[int(e.agg_fn)]});
    GB_ASSIGN_OR_RETURN(items_.emplace_back(), Bind(*e.lhs));
  }
  for (const auto& g : stmt.group_by) {
    GB_ASSIGN_OR_RETURN(keys_.emplace_back(), Bind(*g));
  }
  // ORDER BY in aggregate mode references select-item aliases.
  for (const auto& o : stmt.order_by) {
    if (o.expr->kind != Expr::Kind::kColumn || !o.expr->table_alias.empty()) {
      return Status::NotSupported(
          "aggregate ORDER BY must name a select alias");
    }
    size_t column = 0;
    while (column < stmt.items.size() &&
           stmt.items[column].name != o.expr->column) {
      ++column;
    }
    if (column == stmt.items.size()) {
      return Status::InvalidArgument("unknown ORDER BY alias " +
                                     o.expr->column);
    }
    agg_.order.push_back({column, o.desc});
  }
  return Status::OK();
}

Result<Value> SqlExecutor::Fetch(ColumnRef c, const RowId* b) {
  Table* table = sources_[c.slot].table;
  if (row_mode_) {
    // Tuple-at-a-time: the row store hands back the whole tuple and the
    // executor projects out of it, as a row engine does.
    GB_RETURN_IF_ERROR(ReadStatus(table->Get(b[c.slot], &tuple_)));
    return tuple_[c.column];
  }
  Value v;
  GB_RETURN_IF_ERROR(
      ReadStatus(table->GetColumn(b[c.slot], c.column, &v)));
  return v;
}

Status SqlExecutor::FetchAll(ColumnRef c, std::vector<Value>* out) {
  Table* table = sources_[c.slot].table;
  const size_t n = frame_.size();
  if (row_mode_) {
    out->resize(n);
    for (size_t i = 0; i < n; ++i) {
      GB_RETURN_IF_ERROR(
          ReadStatus(table->Get(frame_.row(i)[c.slot], &tuple_)));
      (*out)[i] = tuple_[c.column];
    }
    return Status::OK();
  }
  ids_.clear();
  for (size_t i = 0; i < n; ++i) ids_.push_back(frame_.row(i)[c.slot]);
  return ReadStatus(table->GetColumnBatch(ids_, c.column, out));
}

Result<Value> SqlExecutor::Eval(int i, const RowId* b) {
  const BoundExpr& e = exprs_[size_t(i)];
  switch (e.ast->kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kParam:
      return *e.value;
    case Expr::Kind::kColumn:
      return Fetch(e.col, b);
    case Expr::Kind::kBinary: {
      GB_ASSIGN_OR_RETURN(Value l, Eval(e.lhs, b));
      if (e.ast->op == BinOp::kAnd) {
        if (!l.is_bool() || !l.as_bool()) return Value(false);
        return Eval(e.rhs, b);
      }
      GB_ASSIGN_OR_RETURN(Value r, Eval(e.rhs, b));
      return Value(query_ops::Satisfies(e.ast->op, l.Compare(r)));
    }
    case Expr::Kind::kShortestPath: {
      obs::OpTimer op("shortest_path");
      GB_ASSIGN_OR_RETURN(Value from, Eval(e.lhs, b));
      GB_ASSIGN_OR_RETURN(Value to, Eval(e.rhs, b));
      GB_ASSIGN_OR_RETURN(
          int len, db_->ShortestPath(e.ast->sp_table, e.ast->sp_src_col,
                                     e.ast->sp_dst_col, from, to));
      return Value(int64_t{len});
    }
    default:
      return Status::Internal("aggregate evaluated per solution");
  }
}

Status SqlExecutor::EvalAll(int i, std::vector<Value>* out) {
  const BoundExpr& e = exprs_[size_t(i)];
  if (e.value != nullptr) return Status::OK();
  if (e.ast->kind == Expr::Kind::kColumn) return FetchAll(e.col, out);
  out->resize(frame_.size());
  for (size_t r = 0; r < frame_.size(); ++r) {
    GB_ASSIGN_OR_RETURN((*out)[r], Eval(i, frame_.row(r)));
  }
  return Status::OK();
}

Status SqlExecutor::Match() {
  frame_.Start();
  for (size_t slot = 0; slot < sources_.size(); ++slot) {
    {
      obs::OpTimer op(slot == 0 ? "scan" : "join");
      GB_RETURN_IF_ERROR(slot == 0 ? Scan() : Join(slot));
      op.AddRows(frame_.size());
    }
    obs::OpTimer filter_op("filter");
    GB_RETURN_IF_ERROR(Filter(slot + 1));
    filter_op.AddRows(frame_.size());
  }
  if (!conjuncts_.empty()) {
    return Status::NotSupported("unappliable WHERE predicate");
  }
  return Status::OK();
}

Status SqlExecutor::Scan() {
  const Source& driving = sources_[0];
  ids_.clear();
  // An indexed equality of a driving-table column and a constant becomes
  // an index lookup.
  for (auto it = conjuncts_.begin(); it != conjuncts_.end(); ++it) {
    const BoundExpr& c = exprs_[size_t(*it)];
    if (c.ast->kind != Expr::Kind::kBinary || c.ast->op != BinOp::kEq) {
      continue;
    }
    for (auto [col, key] : {std::pair{c.lhs, c.rhs}, std::pair{c.rhs, c.lhs}}) {
      const BoundExpr& column = exprs_[size_t(col)];
      const Value* constant = exprs_[size_t(key)].value;
      if (column.ast->kind != Expr::Kind::kColumn || column.col.slot != 0 ||
          constant == nullptr) {
        continue;
      }
      HashIndex* index = db_->GetIndex(
          *driving.name,
          driving.table->schema().columns()[column.col.column].name);
      if (index == nullptr) continue;
      index->Lookup(*constant, &ids_);
      conjuncts_.erase(it);  // consumed by the index lookup
      frame_.Extend(0, 0, ids_);
      frame_.Advance();
      return Status::OK();
    }
  }
  // Fall back to a full scan; residual conjuncts filter later.
  GB_RETURN_IF_ERROR(driving.table->LiveRowIds(&ids_));
  frame_.Extend(0, 0, ids_);
  frame_.Advance();
  return Status::OK();
}

Status SqlExecutor::Join(size_t slot) {
  const Source& s = sources_[slot];
  // The probe keys: one column of every solution.
  GB_RETURN_IF_ERROR(FetchAll(s.probe, &lhs_));
  if (s.index != nullptr) {
    // Index nested-loop join.
    for (size_t i = 0; i < frame_.size(); ++i) {
      ids_.clear();
      s.index->Lookup(lhs_[i], &ids_);
      frame_.Extend(i, slot, ids_);
    }
    frame_.Advance();
    return Status::OK();
  }

  // Hash join: build on the new table's join column.
  std::unordered_map<Value, std::vector<RowId>, ValueHash> build;
  GB_RETURN_IF_ERROR(s.table->LiveRowIds(&ids_));
  for (RowId id : ids_) {
    Value key;
    Status got = s.table->GetColumn(id, s.join_column, &key);
    if (got.IsNotFound()) continue;  // deleted since the scan listed it
    GB_RETURN_IF_ERROR(got);
    build[key].push_back(id);
  }
  for (size_t i = 0; i < frame_.size(); ++i) {
    auto hit = build.find(lhs_[i]);
    if (hit != build.end()) frame_.Extend(i, slot, hit->second);
  }
  frame_.Advance();
  return Status::OK();
}

Status SqlExecutor::Filter(size_t bound) {
  for (auto it = conjuncts_.begin(); it != conjuncts_.end();) {
    const BoundExpr& c = exprs_[size_t(*it)];
    if (c.ready > bound) {
      ++it;
      continue;
    }
    // A comparison reads each column operand for every solution at once;
    // any other predicate evaluates per solution.
    if (c.ast->kind == Expr::Kind::kBinary && c.ast->op != BinOp::kAnd) {
      GB_RETURN_IF_ERROR(EvalAll(c.lhs, &lhs_));
      GB_RETURN_IF_ERROR(EvalAll(c.rhs, &rhs_));
      const Value* l_const = exprs_[size_t(c.lhs)].value;
      const Value* r_const = exprs_[size_t(c.rhs)].value;
      (void)frame_.Retain([&](size_t i) {
        const Value& l = l_const != nullptr ? *l_const : lhs_[i];
        const Value& r = r_const != nullptr ? *r_const : rhs_[i];
        return query_ops::Satisfies(c.ast->op, l.Compare(r));
      });
    } else {
      const int e = *it;
      GB_RETURN_IF_ERROR(frame_.Retain([&](size_t i) -> Result<bool> {
        GB_ASSIGN_OR_RETURN(Value v, Eval(e, frame_.row(i)));
        return v.is_bool() && v.as_bool();
      }));
    }
    it = conjuncts_.erase(it);
  }
  return Status::OK();
}

query_ops::RowFn SqlExecutor::Values(const std::vector<int>& exprs) {
  return [this, &exprs](size_t i, Row* out) -> Status {
    for (int e : exprs) {
      GB_ASSIGN_OR_RETURN(Value v, Eval(e, frame_.row(i)));
      out->push_back(std::move(v));
    }
    return Status::OK();
  };
}

Result<std::vector<Row>> SqlExecutor::Aggregate() {
  // The group keys of every solution, read when the grouping first asks
  // for one, so the reads stay inside its profile row: a column key with
  // one batched read.
  std::vector<std::vector<Value>> key_values(keys_.size());
  bool keys_read = false;
  auto key = [&](size_t i, Row* out) -> Status {
    if (!keys_read) {
      for (size_t k = 0; k < keys_.size(); ++k) {
        GB_RETURN_IF_ERROR(EvalAll(keys_[k], &key_values[k]));
      }
      keys_read = true;
    }
    for (size_t k = 0; k < keys_.size(); ++k) {
      const Value* constant = exprs_[size_t(keys_[k])].value;
      out->push_back(constant != nullptr ? *constant : key_values[k][i]);
    }
    return Status::OK();
  };
  // An item's argument, per solution: every solution for count..max, a
  // group's first for the other items.
  auto value = [this](size_t i, size_t item, Value* out) -> Status {
    GB_ASSIGN_OR_RETURN(*out, Eval(items_[item], frame_.row(i)));
    return Status::OK();
  };
  return query_ops::Aggregate(frame_.size(), agg_, key, value);
}

Result<QueryResult> SqlExecutor::Select(const sql::SelectStmt& stmt) {
  // Plan phase: every name resolves here, before any row is read.
  obs::OpTimer plan_op("plan");
  for (const auto& ref : stmt.from) {
    GB_RETURN_IF_ERROR(AddSource(ref.table, ref.alias));
  }
  GB_RETURN_IF_ERROR(BindJoins(stmt.from));
  GB_RETURN_IF_ERROR(BindWhere(stmt.where.get()));
  GB_RETURN_IF_ERROR(BindOutput(stmt));
  plan_op.Stop();
  const size_t limit_at = size_t(stmt.limit_param);  // -1: no parameter
  GB_ASSIGN_OR_RETURN(
      int64_t limit,
      query_ops::BindLimit(
          stmt.limit, stmt.limit_param >= 0,
          limit_at < params_.size() ? &params_[limit_at] : nullptr));

  GB_RETURN_IF_ERROR(Match());
  QueryResult result;
  for (const auto& item : stmt.items) result.columns.push_back(item.name);
  agg_.limit = project_.limit = limit;
  GB_ASSIGN_OR_RETURN(result.rows,
                      aggregate_ ? Aggregate()
                                 : query_ops::Project(frame_.size(), project_,
                                                      Values(items_),
                                                      Values(sort_keys_)));
  return result;
}

Result<std::vector<RowId>> SqlExecutor::Find(
    const std::string& table, const Expr* where,
    const std::vector<const Expr*>& values) {
  obs::OpTimer plan_op("plan");
  GB_RETURN_IF_ERROR(AddSource(table, table));
  GB_RETURN_IF_ERROR(BindWhere(where));
  for (const Expr* v : values) {
    GB_ASSIGN_OR_RETURN(values_.emplace_back(), Bind(*v));
  }
  plan_op.Stop();
  GB_RETURN_IF_ERROR(Match());
  // One slot: the solutions are the row ids.
  return std::vector<RowId>(frame_.row(0), frame_.row(0) + frame_.size());
}

}  // namespace graphbench
