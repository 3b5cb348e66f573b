#ifndef GRAPHBENCH_STORAGE_COLUMN_TABLE_H_
#define GRAPHBENCH_STORAGE_COLUMN_TABLE_H_

#include <memory>
#include <shared_mutex>

#include "obs/lock_timer.h"
#include <vector>

#include "storage/table.h"

namespace graphbench {

/// Column store: one value vector per column plus a liveness bitmap (the
/// Virtuoso analog). Projections touch only the referenced columns —
/// the read-side advantage on multi-row traversals.
///
/// Writes follow the C-store/Virtuoso model: inserts land in a row-format
/// write-optimized delta; when the delta reaches `kDeltaMergeRows` it is
/// merged into the column vectors and the tail segment of every column is
/// recompressed (zone-map/dictionary maintenance re-scans it). The merge
/// work plus the periodic stall is the §4.3 write tax that row stores
/// don't pay.
class ColumnTable : public Table {
 public:
  /// Delta rows buffered before a merge.
  static constexpr size_t kDeltaMergeRows = 1024;
  /// Values per compression segment; a merge re-scans the tail segment of
  /// each column.
  static constexpr size_t kSegmentRows = 8192;

  explicit ColumnTable(TableSchema schema);

  Result<RowId> Insert(const Row& row) override;
  Status Get(RowId id, Row* row) const override;
  Status GetColumn(RowId id, size_t column, Value* out) const override;
  Status GetColumnBatch(std::span<const RowId> ids, size_t column,
                        std::vector<Value>* out) const override;
  Status Update(RowId id, const Row& row) override;
  Status Delete(RowId id) override;
  Status LiveRowIds(std::vector<RowId>* out) const override;
  uint64_t row_count() const override;
  uint64_t ApproximateSizeBytes() const override;

  /// Merges of the write-optimized delta so far (observable for tests).
  uint64_t merges() const;

 private:
  // Caller holds mu_ exclusively. Appends the delta to the column vectors
  // and recompresses each column's tail segment.
  void MergeDeltaLocked();
  // Value at `id` across merged columns + delta; caller holds mu_.
  const Value& ValueAtLocked(size_t column, size_t id) const;

  mutable obs::TimedSharedMutex mu_{"storage.lock_wait_us"};
  std::vector<std::vector<Value>> columns_;  // merged, columnar region
  std::vector<Row> delta_;                   // write-optimized region
  std::vector<bool> live_;                   // covers merged + delta
  // Zone maps per column, one entry per segment (min, max); rebuilt for
  // the tail segment on every merge.
  std::vector<std::vector<std::pair<Value, Value>>> zone_maps_;
  uint64_t live_rows_ = 0;
  uint64_t bytes_ = 0;
  uint64_t merges_ = 0;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_STORAGE_COLUMN_TABLE_H_
