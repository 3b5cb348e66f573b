#ifndef GRAPHBENCH_CONCURRENCY_VERSIONED_H_
#define GRAPHBENCH_CONCURRENCY_VERSIONED_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "concurrency/epoch.h"

namespace graphbench {
namespace concurrency {

/// Building blocks for epoch-versioned engine state. Shared contract:
///
///   - Exactly one writer mutates a given container at a time (the
///     engines serialize writers with a plain mutex); readers are
///     unbounded, lock-free, and must hold an EpochGuard for the whole
///     read so the versions they traverse cannot be reclaimed.
///   - Writers call mutators inside a WriteBatch; new versions are tagged
///     with the frozen `write_epoch()` and become visible atomically when
///     the outermost batch commits.
///   - `pin` arguments are a guard's `epoch()`, or
///     `EpochManager::kWriterPin` for writer-side reads that must see the
///     batch's own uncommitted writes.

namespace internal {

template <typename T>
struct Version {
  Version(uint64_t e, T v, const Version* o)
      : epoch(e), older(o), value(std::move(v)) {}
  const uint64_t epoch;
  const Version* const older;  // non-owning: owned by the retire list
  T value;
};

/// Newest version visible at `pin`, or nullptr. A version node reached
/// here is safe to dereference: it is either the live head or was retired
/// at an epoch >= the predecessor's epoch - 1 >= pin, which the caller's
/// guard keeps unreclaimed.
template <typename T>
const T* ReadChain(const std::atomic<const Version<T>*>& head, uint64_t pin) {
  const Version<T>* v = head.load(std::memory_order_acquire);
  while (v != nullptr && v->epoch > pin) v = v->older;
  return v != nullptr ? &v->value : nullptr;
}

/// Writer-side publish: mutates a clone of the latest version under the
/// current write epoch. If the head was already produced by this (still
/// open, epoch-freezing) batch it is mutated in place — invisible to all
/// readers until the batch commits — which keeps bulk loads O(total work)
/// instead of O(clones x versions).
template <typename T, typename Fn>
void PublishChain(std::atomic<const Version<T>*>& head, EpochManager& mgr,
                  Fn&& mutate) {
  const uint64_t we = mgr.write_epoch();
  const Version<T>* h = head.load(std::memory_order_relaxed);
  if (h != nullptr && h->epoch == we) {
    mutate(const_cast<Version<T>*>(h)->value);
    head.store(h, std::memory_order_release);
    return;
  }
  T next = h != nullptr ? h->value : T{};
  mutate(next);
  head.store(new Version<T>(we, std::move(next), h),
             std::memory_order_release);
  if (h != nullptr) mgr.RetireDelete(h);
}

}  // namespace internal

/// One epoch-versioned value. Readers see the newest value whose publish
/// batch committed at or before their pin; nullptr before the first
/// committed publish.
template <typename T>
class VersionedCell {
 public:
  VersionedCell() = default;
  ~VersionedCell() {
    // Superseded versions are owned by the retire list; only the head is
    // ours.
    delete head_.load(std::memory_order_relaxed);
  }

  VersionedCell(const VersionedCell&) = delete;
  VersionedCell& operator=(const VersionedCell&) = delete;

  const T* Read(uint64_t pin) const { return internal::ReadChain(head_, pin); }
  const T* WriterLatest() const { return Read(EpochManager::kWriterPin); }

  template <typename Fn>
  void Publish(EpochManager& mgr, Fn&& mutate) {
    internal::PublishChain(head_, mgr, std::forward<Fn>(mutate));
  }

  void Store(EpochManager& mgr, T value) {
    Publish(mgr, [&value](T& v) { v = std::move(value); });
  }

 private:
  std::atomic<const internal::Version<T>*> head_{nullptr};
};

/// Growable array of epoch-versioned slots: the per-vertex / per-row
/// version-chain directory behind the copy-on-write adjacency segments.
/// Slots are appended by the writer and never move (chunked storage; the
/// chunk directory is republished and the old one retired on growth).
/// `Read` of a slot appended by a still-uncommitted batch returns nullptr,
/// so readers may index anything below `size()`.
template <typename T, size_t kChunkSize = 64>
class VersionedTable {
 public:
  VersionedTable() = default;
  ~VersionedTable() {
    for (auto& chunk : chunks_) {
      for (auto& slot : chunk->slots) {
        delete slot.load(std::memory_order_relaxed);
      }
    }
    delete dir_.load(std::memory_order_relaxed);
  }

  VersionedTable(const VersionedTable&) = delete;
  VersionedTable& operator=(const VersionedTable&) = delete;

  size_t size() const { return size_.load(std::memory_order_acquire); }

  const T* Read(size_t i, uint64_t pin) const {
    if (i >= size()) return nullptr;
    const Dir* d = dir_.load(std::memory_order_acquire);
    return internal::ReadChain((*d)[i / kChunkSize]->slots[i % kChunkSize],
                               pin);
  }

  const T* WriterLatest(size_t i) const {
    return Read(i, EpochManager::kWriterPin);
  }

  /// Appends a slot whose first version carries the current write epoch;
  /// returns its index.
  size_t Append(EpochManager& mgr, T value) {
    size_t i = size_.load(std::memory_order_relaxed);
    Publish(mgr, i, [&value](T& v) { v = std::move(value); });
    return i;
  }

  /// Publishes a new version of slot `i` (clone-mutate, or in place for
  /// same-batch versions). Appends the slot if `i == size()`.
  template <typename Fn>
  void Publish(EpochManager& mgr, size_t i, Fn&& mutate) {
    size_t n = size_.load(std::memory_order_relaxed);
    if (i >= n) {
      GrowTo(mgr, i + 1);
    }
    const Dir* d = dir_.load(std::memory_order_relaxed);
    internal::PublishChain((*d)[i / kChunkSize]->slots[i % kChunkSize], mgr,
                           std::forward<Fn>(mutate));
    if (i >= n) size_.store(i + 1, std::memory_order_release);
  }

 private:
  struct Chunk {
    std::array<std::atomic<const internal::Version<T>*>, kChunkSize> slots{};
  };
  using Dir = std::vector<Chunk*>;

  void GrowTo(EpochManager& mgr, size_t n) {
    size_t need = (n + kChunkSize - 1) / kChunkSize;
    if (need <= chunks_.size()) return;
    auto* next = new Dir(dir_.load(std::memory_order_relaxed) != nullptr
                             ? *dir_.load(std::memory_order_relaxed)
                             : Dir{});
    while (chunks_.size() < need) {
      chunks_.push_back(std::make_unique<Chunk>());
      next->push_back(chunks_.back().get());
    }
    const Dir* old = dir_.load(std::memory_order_relaxed);
    dir_.store(next, std::memory_order_release);
    if (old != nullptr) mgr.RetireDelete(old);
  }

  std::atomic<const Dir*> dir_{nullptr};
  std::vector<std::unique_ptr<Chunk>> chunks_;  // writer-owned, stable
  std::atomic<size_t> size_{0};
};

/// Append-only chunked vector with stable element addresses: columnar
/// side tables. Elements are immutable once `size()` has published them.
/// Visibility control is the caller's: readers must bound indexes by an
/// epoch-versioned count (e.g. a VersionedCell of row counts), not by
/// `size()`, which may already include uncommitted appends.
template <typename T, size_t kChunkSize = 256>
class StableVec {
 public:
  StableVec() = default;
  ~StableVec() { delete dir_.load(std::memory_order_relaxed); }

  StableVec(const StableVec&) = delete;
  StableVec& operator=(const StableVec&) = delete;

  size_t size() const { return size_.load(std::memory_order_acquire); }

  const T& operator[](size_t i) const {
    const Dir* d = dir_.load(std::memory_order_acquire);
    return (*d)[i / kChunkSize]->items[i % kChunkSize];
  }

  void PushBack(EpochManager& mgr, T value) {
    size_t i = size_.load(std::memory_order_relaxed);
    if (i / kChunkSize >= chunks_.size()) {
      chunks_.push_back(std::make_unique<Chunk>());
      auto* next = new Dir(dir_.load(std::memory_order_relaxed) != nullptr
                               ? *dir_.load(std::memory_order_relaxed)
                               : Dir{});
      next->push_back(chunks_.back().get());
      const Dir* old = dir_.load(std::memory_order_relaxed);
      dir_.store(next, std::memory_order_release);
      if (old != nullptr) mgr.RetireDelete(old);
    }
    chunks_.back()->items[i % kChunkSize] = std::move(value);
    size_.store(i + 1, std::memory_order_release);
  }

 private:
  struct Chunk {
    std::array<T, kChunkSize> items{};
  };
  using Dir = std::vector<Chunk*>;

  std::atomic<const Dir*> dir_{nullptr};
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::atomic<size_t> size_{0};
};

/// Insert-only hash map with epoch-tagged entries: unique vertex indexes
/// and id -> ordinal maps. Readers probe lock-free under a guard; entries
/// inserted by uncommitted batches are invisible to them. The writer sees
/// every entry (uniqueness checks read their own batch's inserts).
template <typename K, typename V, typename Hash = std::hash<K>>
class EpochHashMap {
 public:
  explicit EpochHashMap(size_t initial_buckets = 64)
      : owned_(std::make_unique<Table>(RoundUpPow2(initial_buckets))) {
    table_.store(owned_.get(), std::memory_order_release);
  }

  EpochHashMap(const EpochHashMap&) = delete;
  EpochHashMap& operator=(const EpochHashMap&) = delete;

  /// Reader probe: the value visible at `pin`, or nullptr. `key` may be
  /// of any type `Hash` takes and K compares equal to (a string_view when
  /// K is a string and `Hash` hashes string_views), so a probe need not
  /// build a K.
  template <typename Q>
  const V* Find(const Q& key, uint64_t pin) const {
    const Table* t = table_.load(std::memory_order_acquire);
    const Node* n =
        t->buckets[Hash{}(key) & (t->buckets.size() - 1)].load(
            std::memory_order_acquire);
    for (; n != nullptr; n = n->next) {
      if (n->key == key) return n->epoch <= pin ? &n->value : nullptr;
    }
    return nullptr;
  }

  /// Writer-side insert; returns false (and stores nothing) if the key is
  /// already present, committed or not.
  bool Insert(EpochManager& mgr, const K& key, V value) {
    Table* t = owned_.get();
    size_t b = Hash{}(key) & (t->buckets.size() - 1);
    for (const Node* n = t->buckets[b].load(std::memory_order_relaxed);
         n != nullptr; n = n->next) {
      if (n->key == key) return false;
    }
    t->arena.push_back(Node{key, std::move(value), mgr.write_epoch(),
                            t->buckets[b].load(std::memory_order_relaxed)});
    t->buckets[b].store(&t->arena.back(), std::memory_order_release);
    count_.fetch_add(1, std::memory_order_relaxed);
    if (t->arena.size() > t->buckets.size()) Grow(mgr);
    return true;
  }

  size_t size() const { return count_.load(std::memory_order_relaxed); }

  /// Writer-side iteration over every entry (any epoch).
  template <typename Fn>
  void ForEachWriter(Fn&& fn) const {
    for (const Node& n : owned_->arena) fn(n.key, n.value);
  }

 private:
  struct Node {
    K key;
    V value;
    uint64_t epoch;
    const Node* next;
  };
  struct Table {
    explicit Table(size_t n) : buckets(n) {}
    std::vector<std::atomic<const Node*>> buckets;
    std::deque<Node> arena;  // nodes never move; copied on resize
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  void Grow(EpochManager& mgr) {
    auto next = std::make_unique<Table>(owned_->buckets.size() * 2);
    size_t mask = next->buckets.size() - 1;
    // Copy nodes (original epochs preserved); relinking in place would
    // race with readers traversing the old chains.
    for (const Node& n : owned_->arena) {
      size_t b = Hash{}(n.key) & mask;
      next->arena.push_back(
          Node{n.key, n.value, n.epoch,
               next->buckets[b].load(std::memory_order_relaxed)});
      next->buckets[b].store(&next->arena.back(), std::memory_order_release);
    }
    table_.store(next.get(), std::memory_order_release);
    mgr.RetireDelete(owned_.release());
    owned_ = std::move(next);
  }

  std::unique_ptr<Table> owned_;
  std::atomic<const Table*> table_{nullptr};
  std::atomic<size_t> count_{0};
};

}  // namespace concurrency
}  // namespace graphbench

#endif  // GRAPHBENCH_CONCURRENCY_VERSIONED_H_
