#ifndef GRAPHBENCH_STORAGE_TABLE_H_
#define GRAPHBENCH_STORAGE_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/table_schema.h"
#include "util/result.h"
#include "util/status.h"
#include "util/value.h"

namespace graphbench {

/// Physical row locator. For heap tables this encodes (page, slot); for
/// column tables it is the row position. Stable for the row's lifetime.
using RowId = uint64_t;

/// Storage-engine-agnostic table interface. HeapTable implements the row
/// store (Postgres analog); ColumnTable the column store (Virtuoso analog).
/// All operations are thread-safe; writers serialize per table.
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}
  virtual ~Table() = default;

  const TableSchema& schema() const { return schema_; }

  /// Appends `row` (must match schema arity). Returns its RowId.
  virtual Result<RowId> Insert(const Row& row) = 0;

  /// Materializes the full row at `id`.
  virtual Status Get(RowId id, Row* row) const = 0;

  /// Fetches a single column of the row at `id`. Column stores satisfy
  /// this touching one vector; row stores must locate the whole tuple.
  virtual Status GetColumn(RowId id, size_t column, Value* out) const = 0;

  /// Fetches column `column` of every row in `ids`, in order, into `*out`
  /// (resized to ids.size(), its elements reused). NotFound when any of
  /// the rows is gone. A column store reads the batch under one latch;
  /// this default calls GetColumn once per row.
  virtual Status GetColumnBatch(std::span<const RowId> ids, size_t column,
                                std::vector<Value>* out) const {
    out->resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      GB_RETURN_IF_ERROR(GetColumn(ids[i], column, &(*out)[i]));
    }
    return Status::OK();
  }

  /// Overwrites the row at `id`.
  virtual Status Update(RowId id, const Row& row) = 0;

  /// Removes the row at `id` (tombstoned; RowIds are never reused).
  virtual Status Delete(RowId id) = 0;

  /// Sets `*out` to the ids of the live rows, ascending, collected under
  /// one hold of the table's latch: the scan a driving table, a hash-join
  /// build or an index back-fill starts from. A row deleted after the call
  /// reads NotFound.
  virtual Status LiveRowIds(std::vector<RowId>* out) const = 0;

  virtual uint64_t row_count() const = 0;
  virtual uint64_t ApproximateSizeBytes() const = 0;

 protected:
  TableSchema schema_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_STORAGE_TABLE_H_
