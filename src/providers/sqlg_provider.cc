#include "providers/sqlg_provider.h"

#include "obs/lock_timer.h"

#include <mutex>

#include "util/string_util.h"

namespace graphbench {

// Sqlg translates every structure-API call into SQL statements against the
// relational engine — one small parsed/planned statement per step, which
// is precisely the behaviour §4.3 contrasts with a single hand-written SQL
// query over the same storage.

Status SqlgProvider::RegisterVertexLabel(std::string_view label,
                                         std::string_view table) {
  if (db_->GetTable(table) == nullptr) return Status::NotFound("table");
  if (db_->GetIndex(table, "id") == nullptr) {
    return Status::InvalidArgument("vertex table needs an id index");
  }
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  vertex_labels_.push_back(
      VertexMeta{std::string(label), std::string(table)});
  return Status::OK();
}

Status SqlgProvider::RegisterEdgeLabel(std::string_view label,
                                       std::string_view table,
                                       std::string_view src_col,
                                       std::string_view dst_col,
                                       std::string_view src_label,
                                       std::string_view dst_label,
                                       bool embedded) {
  if (db_->GetTable(table) == nullptr) return Status::NotFound("table");
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  edge_labels_[std::string(label)] =
      EdgeMeta{std::string(table),     std::string(src_col),
               std::string(dst_col),   std::string(src_label),
               std::string(dst_label), embedded};
  return Status::OK();
}

int SqlgProvider::LabelOrdinal(std::string_view label) const {
  for (size_t i = 0; i < vertex_labels_.size(); ++i) {
    if (vertex_labels_[i].label == label) return int(i);
  }
  return -1;
}

Result<GVertex> SqlgProvider::AddVertex(std::string_view label,
                                        const PropertyMap& props) {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  int ord = LabelOrdinal(label);
  if (ord < 0) return Status::InvalidArgument("unregistered vertex label");
  const VertexMeta& meta = vertex_labels_[size_t(ord)];
  Table* table = db_->GetTable(meta.table);

  // One generated INSERT statement per vertex (Sqlg's write path).
  std::string columns, placeholders;
  std::vector<Value> params;
  for (const auto& [key, value] : props.entries()) {
    if (table->schema().ColumnIndex(key) < 0) continue;  // dropped
    if (!params.empty()) {
      columns += ", ";
      placeholders += ", ";
    }
    columns += key;
    placeholders += "?";
    params.push_back(value);
  }
  if (params.empty()) {
    return Status::InvalidArgument("vertex has no schema properties");
  }
  GB_RETURN_IF_ERROR(db_->Execute("INSERT INTO " + meta.table + " (" +
                                      columns + ") VALUES (" +
                                      placeholders + ")",
                                  params)
                         .status());
  // Resolve the handle through the id index (Sqlg's RETURNING pk).
  HashIndex* id_index = db_->GetIndex(meta.table, "id");
  GB_ASSIGN_OR_RETURN(RowId id, id_index->LookupUnique(props.Get("id")));
  return Encode(size_t(ord), id);
}

Status SqlgProvider::AddEdge(std::string_view label, GVertex from,
                             GVertex to, const PropertyMap& props) {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  auto it = edge_labels_.find(std::string(label));
  if (it == edge_labels_.end()) {
    return Status::InvalidArgument("unregistered edge label");
  }
  const EdgeMeta& meta = it->second;
  // Per-step requests: fetch both endpoint application ids, then insert.
  GB_ASSIGN_OR_RETURN(Value from_id, Property(from, "id"));
  GB_ASSIGN_OR_RETURN(Value to_id, Property(to, "id"));
  // Embedded edges exist as foreign-key columns written with the vertex
  // row; the endpoint reads above validate them, nothing else to write.
  if (meta.embedded) return Status::OK();

  Table* table = db_->GetTable(meta.table);
  std::string columns = meta.src_col + ", " + meta.dst_col;
  std::string placeholders = "?, ?";
  std::vector<Value> params{from_id, to_id};
  for (const auto& [key, value] : props.entries()) {
    int ci = table->schema().ColumnIndex(key);
    if (ci < 0) continue;
    columns += ", " + key;
    placeholders += ", ?";
    params.push_back(value);
  }
  return db_
      ->Execute("INSERT INTO " + meta.table + " (" + columns +
                    ") VALUES (" + placeholders + ")",
                params)
      .status();
}

Status SqlgProvider::RemoveEdge(std::string_view label, GVertex from,
                                GVertex to) {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  auto it = edge_labels_.find(std::string(label));
  if (it == edge_labels_.end()) {
    return Status::InvalidArgument("unregistered edge label");
  }
  const EdgeMeta& meta = it->second;
  if (meta.embedded) {
    return Status::InvalidArgument("embedded edge cannot be dropped");
  }
  GB_ASSIGN_OR_RETURN(Value from_id, Property(from, "id"));
  GB_ASSIGN_OR_RETURN(Value to_id, Property(to, "id"));
  // One small DELETE per orientation until a row goes away.
  const std::string sql = "DELETE FROM " + meta.table + " WHERE " +
                          meta.src_col + " = ? AND " + meta.dst_col + " = ?";
  GB_ASSIGN_OR_RETURN(QueryResult forward,
                      db_->Execute(sql, {from_id, to_id}));
  if (forward.affected > 0) return Status::OK();
  GB_ASSIGN_OR_RETURN(QueryResult backward,
                      db_->Execute(sql, {to_id, from_id}));
  if (backward.affected > 0) return Status::OK();
  return Status::NotFound("edge");
}

Result<std::vector<GVertex>> SqlgProvider::VerticesByProperty(
    std::string_view label, std::string_view key, const Value& value) {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  int ord = LabelOrdinal(label);
  if (ord < 0) return Status::InvalidArgument("unregistered vertex label");
  const VertexMeta& meta = vertex_labels_[size_t(ord)];
  // g.V().has(...) becomes a small SELECT; the handle is then resolved
  // through the id index.
  GB_ASSIGN_OR_RETURN(
      QueryResult r,
      db_->Execute("SELECT id FROM " + meta.table + " WHERE " +
                       std::string(key) + " = ?",
                   {value}));
  HashIndex* id_index = db_->GetIndex(meta.table, "id");
  std::vector<GVertex> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    auto rowid = id_index->LookupUnique(row[0]);
    if (rowid.ok()) out.push_back(Encode(size_t(ord), *rowid));
  }
  return out;
}

Result<std::vector<GVertex>> SqlgProvider::AllVertices(
    std::string_view label) {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  std::vector<GVertex> out;
  std::vector<RowId> ids;
  for (size_t ord = 0; ord < vertex_labels_.size(); ++ord) {
    if (!label.empty() && vertex_labels_[ord].label != label) continue;
    Table* table = db_->GetTable(vertex_labels_[ord].table);
    GB_RETURN_IF_ERROR(table->LiveRowIds(&ids));
    for (RowId id : ids) out.push_back(Encode(ord, id));
  }
  return out;
}

Result<std::vector<GVertex>> SqlgProvider::Adjacent(
    GVertex v, std::string_view edge_label, Direction dir) {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  auto it = edge_labels_.find(std::string(edge_label));
  if (it == edge_labels_.end()) {
    return Status::InvalidArgument("unregistered edge label");
  }
  const EdgeMeta& meta = it->second;

  // Request 1: this vertex's application id.
  GB_ASSIGN_OR_RETURN(Value my_id, Property(v, "id"));

  std::vector<GVertex> out;
  auto expand = [&](const std::string& probe_col,
                    const std::string& fetch_col,
                    const std::string& target_label) -> Status {
    // One generated SELECT per expansion (Sqlg's per-step SQL), then one
    // index resolution per neighbour.
    GB_ASSIGN_OR_RETURN(
        QueryResult r,
        db_->Execute("SELECT " + fetch_col + " FROM " + meta.table +
                         " WHERE " + probe_col + " = ?",
                     {my_id}));
    int target_ord = LabelOrdinal(target_label);
    if (target_ord < 0) return Status::Corruption("edge target label");
    HashIndex* target_index =
        db_->GetIndex(vertex_labels_[size_t(target_ord)].table, "id");
    for (const Row& row : r.rows) {
      auto target_row = target_index->LookupUnique(row[0]);
      if (!target_row.ok()) continue;  // dangling edge
      out.push_back(Encode(size_t(target_ord), *target_row));
    }
    return Status::OK();
  };

  if (dir == Direction::kOut || dir == Direction::kBoth) {
    GB_RETURN_IF_ERROR(expand(meta.src_col, meta.dst_col, meta.dst_label));
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    GB_RETURN_IF_ERROR(expand(meta.dst_col, meta.src_col, meta.src_label));
  }
  return out;
}

Result<Value> SqlgProvider::Property(GVertex v, std::string_view key) {
  size_t ord = OrdinalOf(v);
  if (ord >= vertex_labels_.size()) return Status::NotFound("vertex");
  Table* table = db_->GetTable(vertex_labels_[ord].table);
  int ci = table->schema().ColumnIndex(key);
  if (ci < 0) return Value();
  Value out;
  GB_RETURN_IF_ERROR(table->GetColumn(RowOf(v), size_t(ci), &out));
  return out;
}

Result<std::string> SqlgProvider::Label(GVertex v) {
  size_t ord = OrdinalOf(v);
  if (ord >= vertex_labels_.size()) return Status::NotFound("vertex");
  return vertex_labels_[ord].label;
}

uint64_t SqlgProvider::VertexCount() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& meta : vertex_labels_) {
    total += db_->GetTable(meta.table)->row_count();
  }
  return total;
}

uint64_t SqlgProvider::EdgeCount() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [label, meta] : edge_labels_) {
    if (meta.embedded) continue;  // rows counted as vertices already
    total += db_->GetTable(meta.table)->row_count();
  }
  return total;
}

}  // namespace graphbench
