#ifndef GRAPHBENCH_STORAGE_PAGER_H_
#define GRAPHBENCH_STORAGE_PAGER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/os_file.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/status.h"

namespace graphbench {
namespace storage {

/// Fixed page geometry. Every page carries a 16-byte header (LSN +
/// checksum) maintained by the pager; clients see only the data area.
inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageHeaderBytes = 16;
inline constexpr size_t kPageDataSize = kPageSize - kPageHeaderBytes;

struct PagerOptions {
  /// Buffer-pool capacity in pages; beyond it, LRU eviction (dirty
  /// victims are flushed under the WAL rule first).
  size_t cache_pages = 256;
  /// Group-fsync the WAL on every CommitOp (fsync-per-commit durability).
  /// Off: commits are durable only at the next Sync/flush/checkpoint —
  /// the cheaper, lose-a-tail-on-crash configuration.
  bool fsync_on_commit = false;
  /// Take a checkpoint automatically every N committed ops (0 = manual).
  uint64_t checkpoint_interval_ops = 0;
};

class Pager;

/// Pinned page handle. The frame cannot be evicted while a PageRef to it
/// is live. Call MarkDirty(offset, len) before mutating a byte range inside
/// an op so the pager can snapshot that range's pre-image for
/// physiological logging.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  bool valid() const { return pager_ != nullptr; }
  uint64_t page_id() const { return page_id_; }
  /// The kPageDataSize-byte client data area.
  char* data();
  const char* data() const;
  /// Declares that the op may change data()[offset, offset + len): the
  /// pager snapshots the bytes of the range no earlier declaration in this
  /// op covered, and marks the page as touched. Must be called inside
  /// BeginOp/CommitOp and before mutating the range. Bytes outside every
  /// range declared in the op must not change in it. No arguments
  /// declares the whole page.
  void MarkDirty(size_t offset = 0, size_t len = kPageDataSize);

 private:
  friend class Pager;
  PageRef(Pager* pager, void* frame, uint64_t page_id)
      : pager_(pager), frame_(frame), page_id_(page_id) {}

  Pager* pager_ = nullptr;
  void* frame_ = nullptr;
  uint64_t page_id_ = 0;
};

/// Buffer-pool pager with a write-ahead log: the durable substrate under
/// PagedBTreeKv, PagedTable, and the native store's journal (DESIGN.md
/// §12).
///
/// Mutations happen in ops: BeginOp, fetch + MarkDirty + mutate pages,
/// CommitOp. Commit emits ONE WAL record with the op's changes to every
/// touched page — the full page image on the first touch after a
/// checkpoint (the full-page-write that makes torn db-file pages
/// recoverable), afterwards one byte-range delta per changed run of the
/// page — so a torn WAL tail drops whole ops, never half of one. A page
/// allocated since the last checkpoint is instead first logged as "starts
/// as zeros" plus its runs, which repairs a torn flush just as well. Only the
/// declared ranges are snapshotted, diffed and (on abort) restored. They
/// are kept word-aligned and at least a delta header (rounded up to a
/// word) apart, so the runs found are exactly those a whole-page diff
/// would find: the log is the same however tightly the caller declares.
///
/// Checkpoint flushes all dirty pages, fsyncs the db file, publishes a
/// new header generation, and resets the WAL under the generation's
/// salt. Recovery picks the newer valid header copy, replays the WAL's
/// valid prefix (LSN-gated per record, so redo is idempotent), and
/// truncates the torn tail.
class Pager {
 public:
  static Result<std::unique_ptr<Pager>> Open(FileSystem* fs,
                                             const std::string& db_path,
                                             const std::string& wal_path,
                                             const PagerOptions& options);
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Pins page `page_id` (loading and checksum-validating it on a miss).
  Result<PageRef> Fetch(uint64_t page_id);

  /// Allocates the next page id (zeroed), pinned. Call inside an op and
  /// MarkDirty before writing.
  Result<PageRef> Allocate();

  /// Pages in the file, header page included (page ids are < this).
  uint64_t page_count() const;

  // --- Op lifecycle (single writer at a time; BeginOp serializes) -------
  void BeginOp();
  /// Logs the op's page changes as one WAL record, stamps touched pages
  /// with its LSN, and group-fsyncs when fsync_on_commit. On a WAL error
  /// the in-memory changes stand but the op must be reported failed
  /// (commit-unknown: it may or may not survive a crash).
  Status CommitOp();
  /// Restores pre-images of every page touched since BeginOp (for
  /// validation failures before any logging).
  void AbortOp();

  /// Flush-all + db fsync + header publish + WAL reset.
  Status Checkpoint();

  Wal* wal() { return wal_.get(); }
  const PagerOptions& options() const { return options_; }

  /// Stats from the Open-time recovery pass (also exported as obs
  /// counters wal.recovered_records / wal.truncated_bytes and the gauge
  /// pager.recovery_ms).
  uint64_t recovered_records() const { return recovered_records_; }
  uint64_t recovery_micros() const { return recovery_micros_; }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  struct Range {
    uint16_t lo;
    uint16_t hi;
  };
  static constexpr size_t kMaxRanges = 8;
  struct Frame {
    uint64_t page_id = 0;
    uint64_t page_lsn = 0;
    bool dirty = false;
    /// A full image of this page is already in the current WAL
    /// generation, so later ops may log deltas.
    bool image_logged = false;
    /// Allocated since the last checkpoint and not logged or evicted
    /// since: the page is all zeros as of this op, so its first record
    /// may say so and log deltas against zeros instead of an image.
    bool born = false;
    int pins = 0;
    bool touched_in_op = false;
    /// This op's declared ranges [lo, hi) of the data area: word-aligned,
    /// sorted, and at least kRangeGap (pager.cc) apart. A declaration
    /// that would need one more range merges the two closest instead.
    uint8_t range_count = 0;
    Range ranges[kMaxRanges];
    /// This op's pre-image: the declared ranges' bytes as of their
    /// declaration, at their own offsets in slot `pre_image_slot` of the
    /// pager's pooled pre-image buffer.
    size_t pre_image_slot = 0;
    std::list<uint64_t>::iterator lru_pos;
    bool in_lru = false;
    char data[kPageSize];
  };
  friend class PageRef;

  Pager(FileSystem* fs, std::unique_ptr<File> db, const PagerOptions& opts);

  static uint64_t SaltForGeneration(uint64_t generation);
  static void SealPage(Frame* frame, std::string* out);
  char* PreImage(const Frame* frame) {
    return pre_images_.data() + frame->pre_image_slot * kPageDataSize;
  }
  /// Adds [lo, hi) to the frame's declared ranges, snapshotting the bytes
  /// that become covered.
  void DeclareRange(Frame* frame, size_t lo, size_t hi);
  /// Ends the op: unpins its pages, first restoring their pre-images when
  /// `restore`. Called with mu_ held (and op_mu_, released after).
  void EndOpLocked(bool restore);

  Status RecoverLocked(const std::string& wal_path);
  Result<Frame*> FetchLocked(uint64_t page_id, bool for_recovery);
  Status FlushFrameLocked(Frame* frame);
  Status EvictIfNeededLocked();
  Status WriteHeaderLocked();
  void PinLocked(Frame* frame);
  void UnpinLocked(Frame* frame);
  void Unpin(void* frame);
  void MarkDirtyFrame(void* frame, size_t offset, size_t len);

  FileSystem* fs_;
  std::unique_ptr<File> db_;
  std::unique_ptr<Wal> wal_;
  PagerOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Frame>> frames_;
  std::list<uint64_t> lru_;  // front = most recent; only unpinned pages
  uint64_t page_count_ = 1;  // page 0 is the header
  uint64_t generation_ = 1;
  uint64_t checkpoint_lsn_ = 0;
  bool header_slot_b_next_ = false;
  uint64_t ops_since_checkpoint_ = 0;
  uint64_t checkpoints_taken_ = 0;
  uint64_t recovered_records_ = 0;
  uint64_t recovery_micros_ = 0;

  std::mutex op_mu_;  // held from BeginOp to Commit/AbortOp
  std::vector<Frame*> op_frames_;  // touched pages; id-sorted at commit
  /// Pre-images of the current op's pages, one kPageDataSize slot per
  /// touched page (only its declared ranges are filled). One buffer
  /// reused across ops: it grows to the largest op seen and never
  /// shrinks, so MarkDirty allocates nothing in steady state.
  std::vector<char> pre_images_;
  std::vector<Frame*> op_changed_;  // the pages CommitOp's record changes
  std::string commit_body_;  // the op record under construction, reused
  bool in_op_ = false;
  /// Set when a checkpoint failed at or after the new-generation header
  /// write (publish ambiguous or WAL reset failed): later appends could
  /// land in a log the published generation can no longer replay, so
  /// commits are refused.
  bool degraded_ = false;

  obs::Counter* evictions_;
  obs::Counter* flushes_;
  obs::Counter* checkpoints_;
  obs::Counter* ops_;
  obs::Gauge* cached_pages_;
};

/// Overflow chains for values that don't fit a page: each overflow page
/// stores [next u64][payload]. Write inside the current op; returns the
/// first page id. Freed pages are not reclaimed (no free list — a known
/// deviation, DESIGN.md §12).
Result<uint64_t> WriteOverflowChain(Pager* pager, std::string_view data);
Result<std::string> ReadOverflowChain(Pager* pager, uint64_t first_page,
                                      uint64_t total_len);

}  // namespace storage
}  // namespace graphbench

#endif  // GRAPHBENCH_STORAGE_PAGER_H_
