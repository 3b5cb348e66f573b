#ifndef GRAPHBENCH_KV_PAGED_BTREE_KV_H_
#define GRAPHBENCH_KV_PAGED_BTREE_KV_H_

#include <memory>
#include <string>
#include <vector>

#include "kv/kv_store.h"
#include "obs/lock_timer.h"
#include "storage/pager.h"

namespace graphbench {

/// Durable B+-tree key-value store over the buffer-pool pager: the
/// `--durable` backend for Titan-B (DESIGN.md §12).
///
/// Nodes are slotted pages: a sorted slot array growing forward and
/// records packed from the page end backward. Reads and the descent
/// binary-search the slots in place; a Put that fits appends one record
/// and inserts one slot, so the pager logs a delta about the size of the
/// record. Only a full node is rebuilt: compacted in place, or split.
/// Each Put/Delete runs as one pager op — BeginOp, mutate the leaf plus
/// any split path, CommitOp — so every structural update is a single
/// atomic WAL record: a crash replays all of a split or none of it.
/// Deletes are lazy tombstones (mirroring the in-memory BTreeKv): the
/// record's flag byte marks it dead and reads filter it; tombstoned slots
/// are reused by later Puts of the same key. Values larger than
/// kMaxInlineValue go to overflow chains.
///
/// Latching mirrors BTreeKv's coarse tree latch (writers exclusive,
/// readers shared) under "paged_btree.lock_wait_us", so the paged
/// backend degrades under contention the same way §4.3 describes — plus
/// the log/fsync cost that is the point of the durability ablation.
class PagedBTreeKv : public KvStore {
 public:
  /// Values above this are stored out-of-line in overflow chains.
  static constexpr size_t kMaxInlineValue = 512;
  /// Hard key ceiling: guarantees any two entries fit one leaf, so a
  /// split can always succeed.
  static constexpr size_t kMaxKeyBytes = 1024;

  /// Opens (creating or recovering) the tree at `db_path`/`wal_path`.
  static Result<std::unique_ptr<PagedBTreeKv>> Open(
      storage::FileSystem* fs, const std::string& db_path,
      const std::string& wal_path, const storage::PagerOptions& options);
  ~PagedBTreeKv() override;

  PagedBTreeKv(const PagedBTreeKv&) = delete;
  PagedBTreeKv& operator=(const PagedBTreeKv&) = delete;

  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  std::unique_ptr<KvIterator> NewIterator() const override;
  Status ScanPrefix(
      std::string_view prefix,
      std::vector<std::pair<std::string, std::string>>* out) const override;
  uint64_t Count() const override;
  uint64_t ApproximateSizeBytes() const override;
  bool SupportsTransactionalIsolation() const override { return true; }
  std::string name() const override { return "paged_btree"; }

  /// Flush + publish + WAL reset; exposed so tests and benches can place
  /// checkpoints deterministically (auto-checkpointing comes from
  /// PagerOptions::checkpoint_interval_ops).
  Status Checkpoint() { return pager_->Checkpoint(); }
  storage::Pager* pager() { return pager_.get(); }

 private:
  struct DescentStep;
  class Iter;

  explicit PagedBTreeKv(std::unique_ptr<storage::Pager> pager);

  Status InitFresh();
  Status LoadMeta();
  Status WriteMetaLocked();
  /// Fetches a node page pinned, after checking its header.
  Result<storage::PageRef> FetchNode(uint64_t page_id) const;
  /// Descends from the root to the leaf that holds (or would hold) `key`,
  /// binary-searching each node in place, and returns the leaf pinned.
  /// Appends the interior steps to `path` when it is given.
  Result<storage::PageRef> Descend(std::string_view key,
                                   std::vector<DescentStep>* path) const;
  Status ReadValue(const char* leaf_page, size_t slot,
                   std::string* value) const;
  Status PlaceRecordLocked(storage::PageRef page, size_t pos, bool replace,
                           uint8_t flags, std::string_view key,
                           std::string_view value);
  Status MutateLeaf(std::string_view key, std::string_view value,
                    bool is_delete);

  std::unique_ptr<storage::Pager> pager_;
  mutable obs::TimedSharedMutex latch_{"paged_btree.lock_wait_us"};

  // Cached meta-page fields (page 1), rewritten inside every mutating op.
  uint64_t root_page_ = 0;
  uint64_t first_leaf_ = 0;
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
  // The current mutation's interior path, root first (writer-only).
  std::vector<DescentStep> path_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_KV_PAGED_BTREE_KV_H_
