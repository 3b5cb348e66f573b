#include "storage/column_table.h"

#include "obs/lock_timer.h"

#include <mutex>
#include <unordered_set>

#include "storage/heap_table.h"  // ValueFootprint

namespace graphbench {

ColumnTable::ColumnTable(TableSchema schema) : Table(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  zone_maps_.resize(schema_.num_columns());
}

const Value& ColumnTable::ValueAtLocked(size_t column, size_t id) const {
  size_t merged = columns_[column].size();
  if (id < merged) return columns_[column][id];
  return delta_[id - merged][column];
}

void ColumnTable::MergeDeltaLocked() {
  if (delta_.empty()) return;
  // Column-wise placement of the delta.
  for (const Row& row : delta_) {
    for (size_t c = 0; c < row.size(); ++c) {
      columns_[c].push_back(row[c]);
    }
  }
  delta_.clear();
  // Recompress the tail segment of every column: zone maps (min/max) and
  // dictionary statistics are recomputed over the whole affected segment —
  // the merge-time write amplification of a compressed column store.
  for (size_t c = 0; c < columns_.size(); ++c) {
    const auto& col = columns_[c];
    size_t seg_index = col.empty() ? 0 : (col.size() - 1) / kSegmentRows;
    size_t seg_start = seg_index * kSegmentRows;
    Value lo, hi;
    bool first = true;
    std::unordered_set<Value, ValueHash> dictionary;
    for (size_t i = seg_start; i < col.size(); ++i) {
      dictionary.insert(col[i]);
      if (first) {
        lo = col[i];
        hi = col[i];
        first = false;
        continue;
      }
      if (col[i].Compare(lo) < 0) lo = col[i];
      if (col[i].Compare(hi) > 0) hi = col[i];
    }
    auto& zones = zone_maps_[c];
    zones.resize(seg_index + 1);
    zones[seg_index] = {std::move(lo), std::move(hi)};
  }
  ++merges_;
}

Result<RowId> ColumnTable::Insert(const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   schema_.name());
  }
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  RowId id = live_.size();
  delta_.push_back(row);
  live_.push_back(true);
  ++live_rows_;
  for (const Value& v : row) bytes_ += ValueFootprint(v);
  if (delta_.size() >= kDeltaMergeRows) MergeDeltaLocked();
  return id;
}

Status ColumnTable::Get(RowId id, Row* row) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  if (id >= live_.size() || !live_[size_t(id)]) {
    return Status::NotFound("row");
  }
  row->clear();
  row->reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    row->push_back(ValueAtLocked(c, size_t(id)));
  }
  return Status::OK();
}

Status ColumnTable::GetColumn(RowId id, size_t column, Value* out) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  if (id >= live_.size() || !live_[size_t(id)]) {
    return Status::NotFound("row");
  }
  if (column >= columns_.size()) return Status::InvalidArgument("column");
  *out = ValueAtLocked(column, size_t(id));
  return Status::OK();
}

Status ColumnTable::GetColumnBatch(std::span<const RowId> ids, size_t column,
                                   std::vector<Value>* out) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  if (column >= columns_.size()) return Status::InvalidArgument("column");
  out->resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= live_.size() || !live_[size_t(ids[i])]) {
      return Status::NotFound("row");
    }
    (*out)[i] = ValueAtLocked(column, size_t(ids[i]));
  }
  return Status::OK();
}

Status ColumnTable::Update(RowId id, const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  if (id >= live_.size() || !live_[size_t(id)]) {
    return Status::NotFound("row");
  }
  size_t merged = columns_.empty() ? 0 : columns_[0].size();
  for (size_t c = 0; c < row.size(); ++c) {
    Value& slot = size_t(id) < merged
                      ? columns_[c][size_t(id)]
                      : delta_[size_t(id) - merged][c];
    bytes_ -= ValueFootprint(slot);
    slot = row[c];
    bytes_ += ValueFootprint(row[c]);
  }
  return Status::OK();
}

Status ColumnTable::Delete(RowId id) {
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  if (id >= live_.size() || !live_[size_t(id)]) {
    return Status::NotFound("row");
  }
  live_[size_t(id)] = false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    bytes_ -= ValueFootprint(ValueAtLocked(c, size_t(id)));
  }
  --live_rows_;
  return Status::OK();
}

class ColumnTable::Iter : public TableScanIterator {
 public:
  explicit Iter(const ColumnTable* table) : table_(table) { Advance(0); }

  bool Valid() const override { return valid_; }
  void Next() override { Advance(pos_ + 1); }
  RowId row_id() const override { return pos_; }

  void GetRow(Row* row) const override {
    table_->Get(pos_, row).ok();  // NotFound leaves row untouched
  }

 private:
  void Advance(RowId from) {
    std::shared_lock<obs::TimedSharedMutex> lock(table_->mu_);
    for (RowId id = from; id < table_->live_.size(); ++id) {
      if (table_->live_[size_t(id)]) {
        pos_ = id;
        valid_ = true;
        return;
      }
    }
    valid_ = false;
  }

  const ColumnTable* table_;
  RowId pos_ = 0;
  bool valid_ = false;
};

std::unique_ptr<TableScanIterator> ColumnTable::NewScanIterator() const {
  return std::make_unique<Iter>(this);
}

uint64_t ColumnTable::row_count() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return live_rows_;
}

uint64_t ColumnTable::ApproximateSizeBytes() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return bytes_;
}

uint64_t ColumnTable::merges() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return merges_;
}

}  // namespace graphbench
