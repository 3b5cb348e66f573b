#ifndef GRAPHBENCH_STORAGE_PAGED_TABLE_H_
#define GRAPHBENCH_STORAGE_PAGED_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/lock_timer.h"
#include "storage/pager.h"
#include "storage/table.h"

namespace graphbench {

/// Durable slotted table over the buffer-pool pager: the `--durable`
/// backing for both relational storage modes (DESIGN.md §12).
///
/// Rows live in fixed 128-byte slots so RowIds stay dense and stable
/// (id = slot_page_index * kSlotsPerPage + slot, exactly HeapTable's
/// scheme) no matter how row sizes change across updates: a row whose
/// serialization outgrows its slot is appended to the table's current
/// row page, shared with other such rows (or, when longer than a page,
/// moves to an overflow chain), while the slot keeps its place and
/// points at it. Slot pages are registered in a directory chain
/// hanging off the table's meta page; several tables share one pager
/// (one db file per Database). Deletes tombstone the slot; ids are never
/// reused. Each Insert/Update/Delete is one pager op, so every mutation
/// is one atomic WAL record.
class PagedTable : public Table {
 public:
  static constexpr size_t kSlotBytes = 128;
  static constexpr size_t kSlotsPerPage = 31;  // 16B page hdr + 31*128 ≤ 4080

  /// Creates a fresh table in `pager` (allocates its meta page).
  static Result<std::unique_ptr<PagedTable>> Create(storage::Pager* pager,
                                                    TableSchema schema);
  /// Re-attaches to a table previously created at `meta_page` (the
  /// storage-level reopen path used by recovery tests).
  static Result<std::unique_ptr<PagedTable>> Attach(storage::Pager* pager,
                                                    uint64_t meta_page,
                                                    TableSchema schema);

  Result<RowId> Insert(const Row& row) override;
  Status Get(RowId id, Row* row) const override;
  Status GetColumn(RowId id, size_t column, Value* out) const override;
  Status Update(RowId id, const Row& row) override;
  Status Delete(RowId id) override;
  Status LiveRowIds(std::vector<RowId>* out) const override;
  uint64_t row_count() const override;
  uint64_t ApproximateSizeBytes() const override;

  uint64_t meta_page() const { return meta_page_; }

 private:
  PagedTable(storage::Pager* pager, TableSchema schema);

  Status InitFresh();
  /// Reads the cached meta fields and directory from the pages; changes
  /// nothing when a page cannot be read.
  Status LoadMeta(uint64_t meta_page);
  /// The helpers below run inside the current op; `meta` is the table's
  /// meta page, pinned by the op.
  void WriteMetaLocked(storage::PageRef* meta);
  /// Appends a fresh slot page to the directory.
  Status GrowLocked(storage::PageRef* meta);
  /// Appends `payload` to the current row page (a fresh one when it does
  /// not fit) and says where it went.
  Status PackLocked(storage::PageRef* meta, std::string_view payload,
                    uint64_t* row_page, uint16_t* offset);
  /// Serializes `row` into the slot, or, when it doesn't fit inline, into
  /// a row page or an overflow chain the slot points at.
  Status WriteSlot(storage::PageRef* meta, RowId id, const Row& row,
                   bool live);
  Status ReadSlot(RowId id, Row* row, bool* live) const;
  /// One mutation = one pager op, its body called with the pinned meta
  /// page; shared by Insert/Update/Delete.
  template <typename Body>
  Status RunOp(Body&& body);

  storage::Pager* pager_;
  uint64_t meta_page_ = 0;

  mutable obs::TimedSharedMutex mu_{"storage.lock_wait_us"};
  std::vector<uint64_t> slot_pages_;  // directory cache, chain order
  uint64_t next_row_ = 0;             // dense id counter (includes deleted)
  uint64_t live_rows_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_STORAGE_PAGED_TABLE_H_
