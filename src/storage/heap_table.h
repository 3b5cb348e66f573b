#ifndef GRAPHBENCH_STORAGE_HEAP_TABLE_H_
#define GRAPHBENCH_STORAGE_HEAP_TABLE_H_

#include <memory>
#include <shared_mutex>

#include "obs/lock_timer.h"
#include <vector>

#include "storage/table.h"

namespace graphbench {

/// Row store: rows live in fixed-capacity pages appended to a heap file
/// (the Postgres analog). A point access touches exactly one page slot;
/// inserts append to the last page — the cheap write path that gives the
/// row store its §4.3 update-throughput win.
class HeapTable : public Table {
 public:
  static constexpr size_t kRowsPerPage = 128;

  explicit HeapTable(TableSchema schema);

  Result<RowId> Insert(const Row& row) override;
  Status Get(RowId id, Row* row) const override;
  Status GetColumn(RowId id, size_t column, Value* out) const override;
  Status Update(RowId id, const Row& row) override;
  Status Delete(RowId id) override;
  Status LiveRowIds(std::vector<RowId>* out) const override;
  uint64_t row_count() const override;
  uint64_t ApproximateSizeBytes() const override;

 private:
  struct Page {
    std::vector<Row> rows;        // size() == #slots used
    std::vector<bool> live;       // parallel to rows
  };

  // Returns the slot or nullptr when id is out of range / deleted.
  const Row* Locate(RowId id) const;

  mutable obs::TimedSharedMutex mu_{"storage.lock_wait_us"};
  std::vector<std::unique_ptr<Page>> pages_;
  uint64_t live_rows_ = 0;
  uint64_t bytes_ = 0;
};

/// Approximate resident size of one Value (for size accounting).
uint64_t ValueFootprint(const Value& v);

}  // namespace graphbench

#endif  // GRAPHBENCH_STORAGE_HEAP_TABLE_H_
