#include "storage/heap_table.h"

#include "obs/lock_timer.h"

#include <mutex>

namespace graphbench {

uint64_t ValueFootprint(const Value& v) {
  uint64_t base = 24;  // variant + bookkeeping
  if (v.is_string()) base += v.as_string().size();
  return base;
}

HeapTable::HeapTable(TableSchema schema) : Table(std::move(schema)) {}

Result<RowId> HeapTable::Insert(const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   schema_.name());
  }
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  if (pages_.empty() || pages_.back()->rows.size() >= kRowsPerPage) {
    pages_.push_back(std::make_unique<Page>());
    pages_.back()->rows.reserve(kRowsPerPage);
    bytes_ += 64;  // page header estimate
  }
  Page* page = pages_.back().get();
  RowId id = RowId((pages_.size() - 1) * kRowsPerPage + page->rows.size());
  page->rows.push_back(row);
  page->live.push_back(true);
  ++live_rows_;
  for (const Value& v : row) bytes_ += ValueFootprint(v);
  return id;
}

const Row* HeapTable::Locate(RowId id) const {
  size_t page_idx = size_t(id / kRowsPerPage);
  size_t slot = size_t(id % kRowsPerPage);
  if (page_idx >= pages_.size()) return nullptr;
  const Page& page = *pages_[page_idx];
  if (slot >= page.rows.size() || !page.live[slot]) return nullptr;
  return &page.rows[slot];
}

Status HeapTable::Get(RowId id, Row* row) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  const Row* r = Locate(id);
  if (r == nullptr) return Status::NotFound("row");
  *row = *r;
  return Status::OK();
}

Status HeapTable::GetColumn(RowId id, size_t column, Value* out) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  const Row* r = Locate(id);
  if (r == nullptr) return Status::NotFound("row");
  if (column >= r->size()) return Status::InvalidArgument("column index");
  *out = (*r)[column];
  return Status::OK();
}

Status HeapTable::Update(RowId id, const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  size_t page_idx = size_t(id / kRowsPerPage);
  size_t slot = size_t(id % kRowsPerPage);
  if (page_idx >= pages_.size()) return Status::NotFound("row");
  Page& page = *pages_[page_idx];
  if (slot >= page.rows.size() || !page.live[slot]) {
    return Status::NotFound("row");
  }
  for (const Value& v : page.rows[slot]) bytes_ -= ValueFootprint(v);
  page.rows[slot] = row;
  for (const Value& v : row) bytes_ += ValueFootprint(v);
  return Status::OK();
}

Status HeapTable::Delete(RowId id) {
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  size_t page_idx = size_t(id / kRowsPerPage);
  size_t slot = size_t(id % kRowsPerPage);
  if (page_idx >= pages_.size()) return Status::NotFound("row");
  Page& page = *pages_[page_idx];
  if (slot >= page.rows.size() || !page.live[slot]) {
    return Status::NotFound("row");
  }
  page.live[slot] = false;
  for (const Value& v : page.rows[slot]) bytes_ -= ValueFootprint(v);
  --live_rows_;
  return Status::OK();
}

Status HeapTable::LiveRowIds(std::vector<RowId>* out) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  out->clear();
  out->reserve(live_rows_);
  for (size_t p = 0; p < pages_.size(); ++p) {
    const std::vector<bool>& live = pages_[p]->live;
    for (size_t slot = 0; slot < live.size(); ++slot) {
      if (live[slot]) out->push_back(RowId(p * kRowsPerPage + slot));
    }
  }
  return Status::OK();
}

uint64_t HeapTable::row_count() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return live_rows_;
}

uint64_t HeapTable::ApproximateSizeBytes() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return bytes_;
}

}  // namespace graphbench
