#ifndef GRAPHBENCH_KV_LSM_KV_H_
#define GRAPHBENCH_KV_LSM_KV_H_

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "concurrency/epoch.h"
#include "kv/key_codec.h"
#include "kv/kv_store.h"

namespace graphbench {

/// Lock-free-for-readers memtable: a single-writer skiplist whose values
/// are epoch-tagged version chains. Writers (serialized by the owning
/// shard's mutex) splice nodes with release stores; readers traverse with
/// acquire loads under an epoch guard and resolve each key to the newest
/// version at their pin. The whole memtable is retired wholesale when its
/// shard flushes, so nodes and versions need no individual reclamation.
class MemTable {
 public:
  static constexpr int kMaxHeight = 12;

  struct ValueVersion {
    std::string value;
    bool tombstone = false;
    uint64_t epoch = 0;
    const ValueVersion* older = nullptr;
  };

  struct Node {
    std::string key;
    std::atomic<const ValueVersion*> chain{nullptr};
    int height = 1;
    std::array<std::atomic<Node*>, kMaxHeight> next{};
  };

  MemTable();

  /// Writer: insert or version `key`. Same-batch overwrites collapse in
  /// place (the batch's epoch is frozen while it is open).
  void Put(concurrency::EpochManager& mgr, std::string_view key,
           std::string_view value, bool tombstone);

  /// Reader: newest version of `key` visible at `pin`, or nullptr.
  const ValueVersion* Find(std::string_view key, uint64_t pin) const;

  /// Reader: first node with key >= `target` (level-0 ordered scan).
  const Node* Seek(std::string_view target) const;
  const Node* First() const;
  static const Node* NextNode(const Node* n) {
    return n->next[0].load(std::memory_order_acquire);
  }

  bool empty() const {
    return head_.next[0].load(std::memory_order_acquire) == nullptr;
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  // Strictly-less search: last node < key at each level.
  Node* FindPredecessors(std::string_view key,
                         std::array<Node*, kMaxHeight>* preds) const;
  int RandomHeight();

  mutable Node head_;
  std::deque<Node> node_arena_;           // writer-owned; nodes never move
  std::deque<ValueVersion> version_arena_;
  int height_ = 1;
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
  std::atomic<uint64_t> bytes_{0};
};

/// Immutable sorted run (an in-memory SSTable analog). Keys may repeat
/// with distinct write epochs — newest first — so pinned readers can
/// still resolve their snapshot after a flush.
class SortedRun {
 public:
  struct Entry {
    std::string key;
    std::string value;
    bool tombstone = false;
    uint64_t epoch = 0;
  };

  /// `entries` must be sorted by (key asc, epoch desc).
  explicit SortedRun(std::vector<Entry> entries);

  /// Newest entry for `key` visible at `pin` (possibly a tombstone), or
  /// nullptr.
  const Entry* Find(std::string_view key, uint64_t pin) const;

  const std::vector<Entry>& entries() const { return entries_; }
  uint64_t size_bytes() const { return size_bytes_; }

 private:
  std::vector<Entry> entries_;
  uint64_t size_bytes_ = 0;
};

/// Options controlling LSM shape; defaults mimic a small write-optimized
/// store.
struct LsmOptions {
  /// Per-shard memtable flush threshold in bytes.
  uint64_t memtable_bytes = 1 << 20;
  /// Compact (merge all runs) when the run count reaches this.
  size_t max_runs = 8;
};

/// In-memory log-structured merge KV store: the Cassandra analog backing
/// Titan-C.
///
/// The memtable is partitioned by row key (keycodec::RowKeyOf: a tag byte
/// plus a 64-bit row id, Titan's vertex and adjacency rows) into
/// independent shards, each with its own writer mutex — Cassandra's
/// partitioned write path, where a row is a partition. A prefix scan that
/// pins a row key reads that row's shard and the runs; a shorter prefix
/// reads every shard. Sources are merged in key order and only the newest
/// visible version of each key is copied out. Reads never take
/// a lock at all: they pin an epoch, load the published memtable and run
/// pointers, and resolve version chains at that pin, so readers observe a
/// consistent snapshot while updates stream in (§4.3: this is what keeps
/// Titan-C steady under concurrent load while tree-latched Titan-B
/// collapses). There is still NO cross-key transactional isolation:
/// read-modify-write sequences race unless a layer above locks
/// (TitanGraph's uniqueness locking). Compaction collapses version
/// history to the newest entry per key; a reader whose pin overlaps a
/// compaction may observe the newest committed value instead of its
/// snapshot value for compacted keys — still strictly stronger than the
/// old locked design, which offered no snapshot at all.
class LsmKv : public KvStore {
 public:
  static constexpr size_t kShards = 16;

  explicit LsmKv(LsmOptions options = {});

  LsmKv(const LsmKv&) = delete;
  LsmKv& operator=(const LsmKv&) = delete;

  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  std::unique_ptr<KvIterator> NewIterator() const override;
  Status ScanPrefix(
      std::string_view prefix,
      std::vector<std::pair<std::string, std::string>>* out) const override;
  uint64_t Count() const override;
  uint64_t ApproximateSizeBytes() const override;
  bool SupportsTransactionalIsolation() const override { return false; }
  std::string name() const override { return "lsm"; }

  /// Observable internals for tests/benchmarks.
  size_t num_runs() const;
  uint64_t compactions_run() const;

  /// Forces a flush of every shard memtable (tests).
  void Flush();

 private:
  class Iter;
  using RunsVec = std::vector<std::shared_ptr<const SortedRun>>;

  struct Shard {
    std::mutex write_mu;
    // Owned by the writer (guarded by write_mu); the atomic mirrors it
    // for lock-free readers. Replaced wholesale on flush (old table
    // retired under the epoch).
    std::shared_ptr<MemTable> mem_owned;
    std::atomic<const MemTable*> mem{nullptr};
  };

  /// A key's shard is its row's (keycodec::RowKeyOf), so one row's
  /// columns share a memtable and a row slice reads one shard.
  size_t ShardOf(std::string_view key) const {
    return std::hash<std::string_view>()(keycodec::RowKeyOf(key)) % kShards;
  }

  Status WriteInternal(std::string_view key, std::string_view value,
                       bool tombstone);
  void FlushShard(Shard* shard);
  void MaybeCompactLocked(concurrency::EpochManager& mgr);

  /// Epoch-filtered merge of every source that can hold keys under
  /// `prefix` (every run; one shard's memtable when the prefix pins a row
  /// key, else all of them): the newest visible version per key, copied
  /// out in key order. Used by scans/iterators/Count.
  void CollectVisible(
      std::string_view prefix, uint64_t pin,
      std::vector<std::pair<std::string, std::string>>* live) const;

  LsmOptions options_;
  std::array<Shard, kShards> shards_;

  std::mutex runs_write_mu_;
  std::shared_ptr<RunsVec> runs_owned_;  // guarded by runs_write_mu_
  std::atomic<const RunsVec*> runs_{nullptr};
  std::atomic<uint64_t> compactions_{0};
};

}  // namespace graphbench

#endif  // GRAPHBENCH_KV_LSM_KV_H_
