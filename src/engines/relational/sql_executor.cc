#include "engines/relational/sql_executor.h"

#include <algorithm>
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

// A read of a row a concurrent DELETE removed after the probe or join that
// bound it: Aborted makes Database::Execute re-run the SELECT.
Status ReadStatus(Status got) {
  if (got.IsNotFound()) return Status::Aborted("row deleted during read");
  return got;
}

}  // namespace

SqlExecutor::SqlExecutor(Database* db, const sql::SelectStmt& stmt,
                         const std::vector<Value>& params)
    : db_(db),
      stmt_(stmt),
      params_(params),
      row_mode_(db->mode() == StorageMode::kRow) {}

Result<SqlExecutor::ColumnRef> SqlExecutor::Resolve(const Expr& e) const {
  // Qualified: the first FROM entry of that alias. Unqualified: the first
  // whose table has the column.
  const bool qualified = !e.table_alias.empty();
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (qualified && stmt_.from[i].alias != e.table_alias) continue;
    int ci = sources_[i].table->schema().ColumnIndex(e.column);
    if (ci >= 0) return ColumnRef{i, size_t(ci)};
    if (qualified) {
      return Status::InvalidArgument("unknown column " + e.table_alias +
                                     "." + e.column);
    }
  }
  if (qualified) {
    return Status::InvalidArgument("unknown alias " + e.table_alias);
  }
  return Status::InvalidArgument("unknown column " + e.column);
}

Result<int> SqlExecutor::Bind(const Expr& e) {
  BoundExpr b;
  b.ast = &e;
  switch (e.kind) {
    case Expr::Kind::kColumn: {
      GB_ASSIGN_OR_RETURN(b.col, Resolve(e));
      b.ready = b.col.slot + 1;
      break;
    }
    case Expr::Kind::kLiteral:
      b.value = &e.literal;
      break;
    case Expr::Kind::kParam:
      if (e.param_index < 0 || size_t(e.param_index) >= params_.size()) {
        return Status::InvalidArgument("parameter index out of range");
      }
      b.value = &params_[size_t(e.param_index)];
      break;
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
      // BindStatement binds an aggregate select item's argument; an
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

Status SqlExecutor::BindStatement() {
  for (const auto& ref : stmt_.from) {
    Table* t = db_->GetTable(ref.table);
    if (t == nullptr) {
      return Status::InvalidArgument("unknown table " + ref.table);
    }
    sources_.emplace_back().table = t;
  }
  width_ = sources_.size();

  // Each JOIN equates a column of its table with one of an earlier table.
  for (size_t i = 1; i < sources_.size(); ++i) {
    const Expr* on = stmt_.from[i].on.get();
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
    s.index = db_->GetIndex(stmt_.from[i].table,
                            s.table->schema().columns()[joined.column].name);
  }

  std::vector<const Expr*> where;
  FlattenConjuncts(stmt_.where.get(), &where);
  for (const Expr* c : where) {
    GB_ASSIGN_OR_RETURN(int e, Bind(*c));
    conjuncts_.push_back(e);
  }

  // Aggregation: any aggregate item or an explicit GROUP BY.
  aggregate_ = !stmt_.group_by.empty();
  for (const auto& item : stmt_.items) {
    aggregate_ |= item.expr->kind == Expr::Kind::kCountStar ||
                  item.expr->kind == Expr::Kind::kAggregate;
  }
  if (!aggregate_) {
    for (const auto& item : stmt_.items) {
      GB_ASSIGN_OR_RETURN(int e, Bind(*item.expr));
      items_.push_back(e);
    }
    // ORDER BY keys computed alongside the projection.
    project_ = {stmt_.distinct, stmt_.items.size(), {}, -1};
    for (const auto& o : stmt_.order_by) {
      GB_ASSIGN_OR_RETURN(int e, Bind(*o.expr));
      sort_keys_.push_back(e);
      project_.desc.push_back(o.desc);
    }
    return Status::OK();
  }

  agg_.grouped = !stmt_.group_by.empty();
  for (const auto& item : stmt_.items) {
    using query_ops::Agg;
    const Expr& e = *item.expr;
    if (e.kind == Expr::Kind::kCountStar) {
      agg_.items.push_back({Agg::kCountStar});
      items_.push_back(-1);
      continue;
    }
    if (e.kind != Expr::Kind::kAggregate) {
      agg_.items.push_back({Agg::kFirst});
      GB_ASSIGN_OR_RETURN(int arg, Bind(e));
      items_.push_back(arg);
      continue;
    }
    // Indexed by sql::AggFn.
    static constexpr Agg kByFn[] = {Agg::kCount, Agg::kSum, Agg::kMin,
                                    Agg::kMax, Agg::kAvg};
    agg_.items.push_back({kByFn[int(e.agg_fn)]});
    GB_ASSIGN_OR_RETURN(int arg, Bind(*e.lhs));
    items_.push_back(arg);
  }
  for (const auto& g : stmt_.group_by) {
    GB_ASSIGN_OR_RETURN(int e, Bind(*g));
    keys_.push_back(e);
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
    agg_.order.push_back({column, o.desc});
  }
  return Status::OK();
}

void SqlExecutor::Extend(const RowId* b, size_t slot, RowId id) {
  next_.insert(next_.end(), b, b + width_);
  next_[next_.size() - width_ + slot] = id;
  ++next_count_;
}

void SqlExecutor::Advance() {
  rows_.swap(next_);
  count_ = next_count_;
  next_.clear();
  next_count_ = 0;
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
  if (row_mode_) {
    out->resize(count_);
    for (size_t i = 0; i < count_; ++i) {
      GB_RETURN_IF_ERROR(ReadStatus(table->Get(row(i)[c.slot], &tuple_)));
      (*out)[i] = tuple_[c.column];
    }
    return Status::OK();
  }
  ids_.clear();
  for (size_t i = 0; i < count_; ++i) ids_.push_back(row(i)[c.slot]);
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
  out->resize(count_);
  for (size_t r = 0; r < count_; ++r) {
    GB_ASSIGN_OR_RETURN((*out)[r], Eval(i, row(r)));
  }
  return Status::OK();
}

Status SqlExecutor::Scan() {
  Table* driving = sources_[0].table;
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
          stmt_.from[0].table,
          driving->schema().columns()[column.col.column].name);
      if (index == nullptr) continue;
      ids_.clear();
      index->Lookup(*constant, &ids_);
      count_ = ids_.size();
      rows_.assign(count_ * width_, kUnbound);
      for (size_t r = 0; r < count_; ++r) rows_[r * width_] = ids_[r];
      conjuncts_.erase(it);  // consumed by the index lookup
      return Status::OK();
    }
  }

  // Fall back to a full scan; residual conjuncts filter later.
  rows_.clear();
  count_ = 0;
  for (auto it = driving->NewScanIterator(); it->Valid(); it->Next()) {
    rows_.resize(rows_.size() + width_, kUnbound);
    rows_[count_++ * width_] = it->row_id();
  }
  return Status::OK();
}

Status SqlExecutor::Join(size_t slot) {
  const Source& s = sources_[slot];
  // The probe keys: one column of every solution.
  GB_RETURN_IF_ERROR(FetchAll(s.probe, &lhs_));
  if (s.index != nullptr) {
    // Index nested-loop join.
    for (size_t r = 0; r < count_; ++r) {
      ids_.clear();
      s.index->Lookup(lhs_[r], &ids_);
      for (RowId id : ids_) Extend(row(r), slot, id);
    }
    Advance();
    return Status::OK();
  }

  // Hash join: build on the new table's join column.
  std::unordered_map<Value, std::vector<RowId>, ValueHash> build;
  for (auto it = s.table->NewScanIterator(); it->Valid(); it->Next()) {
    Value key;
    Status got = s.table->GetColumn(it->row_id(), s.join_column, &key);
    if (got.IsNotFound()) continue;  // deleted since the scan reached it
    GB_RETURN_IF_ERROR(got);
    build[key].push_back(it->row_id());
  }
  for (size_t r = 0; r < count_; ++r) {
    auto hit = build.find(lhs_[r]);
    if (hit == build.end()) continue;
    for (RowId id : hit->second) Extend(row(r), slot, id);
  }
  Advance();
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
    const bool compare =
        c.ast->kind == Expr::Kind::kBinary && c.ast->op != BinOp::kAnd;
    const Value* l_const = nullptr;
    const Value* r_const = nullptr;
    if (compare) {
      GB_RETURN_IF_ERROR(EvalAll(c.lhs, &lhs_));
      GB_RETURN_IF_ERROR(EvalAll(c.rhs, &rhs_));
      l_const = exprs_[size_t(c.lhs)].value;
      r_const = exprs_[size_t(c.rhs)].value;
    }
    size_t kept = 0;
    for (size_t r = 0; r < count_; ++r) {
      bool pass;
      if (compare) {
        const Value& l = l_const != nullptr ? *l_const : lhs_[r];
        const Value& rv = r_const != nullptr ? *r_const : rhs_[r];
        pass = query_ops::Satisfies(c.ast->op, l.Compare(rv));
      } else {
        GB_ASSIGN_OR_RETURN(Value v, Eval(*it, row(r)));
        pass = v.is_bool() && v.as_bool();
      }
      if (!pass) continue;
      if (kept != r) {
        std::copy_n(row(r), width_, rows_.begin() + kept * width_);
      }
      ++kept;
    }
    count_ = kept;
    rows_.resize(kept * width_);
    it = conjuncts_.erase(it);
  }
  return Status::OK();
}

query_ops::RowFn SqlExecutor::Values(const std::vector<int>& exprs) {
  return [this, &exprs](size_t i, Row* out) -> Status {
    for (int e : exprs) {
      GB_ASSIGN_OR_RETURN(Value v, Eval(e, row(i)));
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
    GB_ASSIGN_OR_RETURN(*out, Eval(items_[item], row(i)));
    return Status::OK();
  };
  return query_ops::Aggregate(count_, agg_, key, value);
}

Result<QueryResult> SqlExecutor::Run() {
  // Plan phase: every name resolves here, before any row is read.
  obs::OpTimer plan_op("plan");
  GB_RETURN_IF_ERROR(BindStatement());
  plan_op.Stop();
  const size_t limit_at = size_t(stmt_.limit_param);  // -1: no parameter
  GB_ASSIGN_OR_RETURN(
      int64_t limit,
      query_ops::BindLimit(
          stmt_.limit, stmt_.limit_param >= 0,
          limit_at < params_.size() ? &params_[limit_at] : nullptr));

  if (width_ > 0) {
    {
      obs::OpTimer scan_op("scan");
      GB_RETURN_IF_ERROR(Scan());
      scan_op.AddRows(count_);
    }
    {
      obs::OpTimer filter_op("filter");
      GB_RETURN_IF_ERROR(Filter(1));
      filter_op.AddRows(count_);
    }
    for (size_t i = 1; i < width_; ++i) {
      {
        obs::OpTimer join_op("join");
        GB_RETURN_IF_ERROR(Join(i));
        join_op.AddRows(count_);
      }
      obs::OpTimer filter_op("filter");
      GB_RETURN_IF_ERROR(Filter(i + 1));
      filter_op.AddRows(count_);
    }
  }
  if (!conjuncts_.empty()) {
    return Status::NotSupported("unappliable WHERE predicate");
  }

  QueryResult result;
  for (const auto& item : stmt_.items) result.columns.push_back(item.name);
  if (aggregate_) {
    agg_.limit = limit;
    GB_ASSIGN_OR_RETURN(result.rows, Aggregate());
    return result;
  }
  project_.limit = limit;
  GB_ASSIGN_OR_RETURN(result.rows,
                      query_ops::Project(count_, project_, Values(items_),
                                         Values(sort_keys_)));
  return result;
}

}  // namespace graphbench
