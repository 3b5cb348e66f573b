#include "kv/lsm_kv.h"

#include <algorithm>

namespace graphbench {

namespace {

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

// The newest version of one key that a source holds at a pin. Points into
// the source (run entries and memtable nodes never move while pinned).
struct Visible {
  const std::string* key;
  const std::string* value;
  bool tombstone;
  uint64_t epoch;
};

// One sorted source of a merge, a run or a memtable, restricted to the
// keys under `prefix` and positioned on `cur`.
struct MergeCursor {
  const SortedRun::Entry* run = nullptr;  // run source: next entry
  const SortedRun::Entry* run_end = nullptr;
  const MemTable::Node* node = nullptr;   // memtable source: next node
  size_t source = 0;                      // merge order: oldest run is 0
  Visible cur{};

  // Moves `cur` to the next key with a version visible at `pin`; false
  // when the source has no more keys under `prefix`.
  bool Advance(std::string_view prefix, uint64_t pin) {
    while (run != run_end && HasPrefix(run->key, prefix)) {
      // A key's entries are newest first: the first one at or below the
      // pin is its visible version.
      const SortedRun::Entry* hit = nullptr;
      const std::string& key = run->key;
      for (; run != run_end && run->key == key; ++run) {
        if (hit == nullptr && run->epoch <= pin) hit = run;
      }
      if (hit != nullptr) {
        cur = {&hit->key, &hit->value, hit->tombstone, hit->epoch};
        return true;
      }
    }
    while (node != nullptr && HasPrefix(node->key, prefix)) {
      const MemTable::Node* n = node;
      node = MemTable::NextNode(n);
      const MemTable::ValueVersion* v =
          n->chain.load(std::memory_order_acquire);
      while (v != nullptr && v->epoch > pin) v = v->older;
      if (v != nullptr) {
        cur = {&n->key, &v->value, v->tombstone, v->epoch};
        return true;
      }
    }
    return false;
  }
};

// Merges the sources in key order and calls `emit` once per key with its
// newest version: the highest epoch, equal epochs going to the later
// source (a run flushed later, or a memtable over every run). The cursors
// start before their first key.
template <typename Emit>
void MergeNewest(std::vector<MergeCursor>* cursors, std::string_view prefix,
                 uint64_t pin, Emit emit) {
  std::vector<MergeCursor>& heap = *cursors;
  heap.erase(std::remove_if(heap.begin(), heap.end(),
                            [&](MergeCursor& c) {
                              return !c.Advance(prefix, pin);
                            }),
             heap.end());
  // Min-heap on (key, source): equal keys pop oldest source first.
  auto after = [](const MergeCursor& a, const MergeCursor& b) {
    const int c = a.cur.key->compare(*b.cur.key);
    return c != 0 ? c > 0 : a.source > b.source;
  };
  std::make_heap(heap.begin(), heap.end(), after);
  auto advance_top = [&] {
    std::pop_heap(heap.begin(), heap.end(), after);
    if (heap.back().Advance(prefix, pin)) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  };
  while (!heap.empty()) {
    Visible best = heap.front().cur;
    advance_top();
    while (!heap.empty() && *heap.front().cur.key == *best.key) {
      if (heap.front().cur.epoch >= best.epoch) best = heap.front().cur;
      advance_top();
    }
    emit(best);
  }
}

}  // namespace

// ---------------------------------------------------------------- MemTable

MemTable::MemTable() { head_.height = kMaxHeight; }

int MemTable::RandomHeight() {
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  int h = 1;
  uint64_t r = rng_state_;
  while (h < kMaxHeight && (r & 3) == 0) {
    ++h;
    r >>= 2;
  }
  return h;
}

MemTable::Node* MemTable::FindPredecessors(
    std::string_view key, std::array<Node*, kMaxHeight>* preds) const {
  Node* x = &head_;
  for (int l = kMaxHeight - 1; l >= 0; --l) {
    Node* nxt;
    while ((nxt = x->next[l].load(std::memory_order_acquire)) != nullptr &&
           nxt->key < key) {
      x = nxt;
    }
    (*preds)[l] = x;
  }
  Node* cand = x->next[0].load(std::memory_order_acquire);
  return (cand != nullptr && cand->key == key) ? cand : nullptr;
}

void MemTable::Put(concurrency::EpochManager& mgr, std::string_view key,
                   std::string_view value, bool tombstone) {
  std::array<Node*, kMaxHeight> preds;
  Node* eq = FindPredecessors(key, &preds);
  const uint64_t we = mgr.write_epoch();
  if (eq != nullptr) {
    const ValueVersion* head = eq->chain.load(std::memory_order_relaxed);
    if (head != nullptr && head->epoch == we) {
      // Same still-open batch: the version is not yet visible to anyone
      // but this writer, so overwrite in place.
      auto* h = const_cast<ValueVersion*>(head);
      h->value.assign(value);
      h->tombstone = tombstone;
      eq->chain.store(head, std::memory_order_release);
    } else {
      version_arena_.push_back(
          ValueVersion{std::string(value), tombstone, we, head});
      eq->chain.store(&version_arena_.back(), std::memory_order_release);
    }
    bytes_.fetch_add(value.size() + 24, std::memory_order_relaxed);
    return;
  }
  node_arena_.emplace_back();
  Node& n = node_arena_.back();
  n.key.assign(key);
  n.height = RandomHeight();
  version_arena_.push_back(
      ValueVersion{std::string(value), tombstone, we, nullptr});
  n.chain.store(&version_arena_.back(), std::memory_order_relaxed);
  for (int l = 0; l < n.height; ++l) {
    n.next[l].store(preds[l]->next[l].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  // Publish bottom-up: once a level's predecessor points here, the node
  // (key, chain, lower links) is complete.
  for (int l = 0; l < n.height; ++l) {
    preds[l]->next[l].store(&n, std::memory_order_release);
  }
  bytes_.fetch_add(key.size() + value.size() + 64,
                   std::memory_order_relaxed);
}

const MemTable::ValueVersion* MemTable::Find(std::string_view key,
                                             uint64_t pin) const {
  const Node* x = &head_;
  for (int l = kMaxHeight - 1; l >= 0; --l) {
    const Node* nxt;
    while ((nxt = x->next[l].load(std::memory_order_acquire)) != nullptr &&
           nxt->key < key) {
      x = nxt;
    }
  }
  const Node* cand = x->next[0].load(std::memory_order_acquire);
  if (cand == nullptr || cand->key != key) return nullptr;
  const ValueVersion* v = cand->chain.load(std::memory_order_acquire);
  while (v != nullptr && v->epoch > pin) v = v->older;
  return v;
}

const MemTable::Node* MemTable::Seek(std::string_view target) const {
  const Node* x = &head_;
  for (int l = kMaxHeight - 1; l >= 0; --l) {
    const Node* nxt;
    while ((nxt = x->next[l].load(std::memory_order_acquire)) != nullptr &&
           nxt->key < target) {
      x = nxt;
    }
  }
  return x->next[0].load(std::memory_order_acquire);
}

const MemTable::Node* MemTable::First() const {
  return head_.next[0].load(std::memory_order_acquire);
}

// --------------------------------------------------------------- SortedRun

SortedRun::SortedRun(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  for (const Entry& e : entries_) {
    size_bytes_ += e.key.size() + e.value.size() + 32;
  }
}

const SortedRun::Entry* SortedRun::Find(std::string_view key,
                                        uint64_t pin) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::string_view k) { return e.key < k; });
  // Entries for one key are newest-epoch first.
  for (; it != entries_.end() && it->key == key; ++it) {
    if (it->epoch <= pin) return &*it;
  }
  return nullptr;
}

// ------------------------------------------------------------------- LsmKv

LsmKv::LsmKv(LsmOptions options) : options_(options) {
  for (Shard& shard : shards_) {
    shard.mem_owned = std::make_shared<MemTable>();
    shard.mem.store(shard.mem_owned.get(), std::memory_order_release);
  }
  runs_owned_ = std::make_shared<RunsVec>();
  runs_.store(runs_owned_.get(), std::memory_order_release);
}

Status LsmKv::Put(std::string_view key, std::string_view value) {
  return WriteInternal(key, value, /*tombstone=*/false);
}

Status LsmKv::Delete(std::string_view key) {
  return WriteInternal(key, "", /*tombstone=*/true);
}

Status LsmKv::WriteInternal(std::string_view key, std::string_view value,
                            bool tombstone) {
  concurrency::WriteBatch batch;
  concurrency::EpochManager& mgr = concurrency::EpochManager::Global();
  Shard& shard = shards_[ShardOf(key)];
  bool need_flush = false;
  {
    std::lock_guard<std::mutex> lock(shard.write_mu);
    shard.mem_owned->Put(mgr, key, value, tombstone);
    need_flush = shard.mem_owned->bytes() >= options_.memtable_bytes;
  }
  if (need_flush) FlushShard(&shard);
  return Status::OK();
}

void LsmKv::FlushShard(Shard* shard) {
  concurrency::WriteBatch batch;
  concurrency::EpochManager& mgr = concurrency::EpochManager::Global();
  std::lock_guard<std::mutex> lock(shard->write_mu);
  if (shard->mem_owned->empty()) return;
  // Every version is carried into the run (keys ascending, epochs
  // descending within a key) so pinned readers keep their snapshot
  // across the flush.
  std::vector<SortedRun::Entry> entries;
  for (const MemTable::Node* n = shard->mem_owned->First(); n != nullptr;
       n = MemTable::NextNode(n)) {
    for (const MemTable::ValueVersion* v =
             n->chain.load(std::memory_order_acquire);
         v != nullptr; v = v->older) {
      entries.push_back({n->key, v->value, v->tombstone, v->epoch});
    }
  }
  auto run = std::make_shared<const SortedRun>(std::move(entries));
  {
    std::lock_guard<std::mutex> rlock(runs_write_mu_);
    auto next = std::make_shared<RunsVec>(*runs_owned_);
    next->push_back(std::move(run));
    std::shared_ptr<RunsVec> old = std::move(runs_owned_);
    runs_owned_ = std::move(next);
    // Publish order matters: the run list containing the flushed data
    // must be visible before the emptied memtable, and readers load the
    // memtable pointer first.
    runs_.store(runs_owned_.get(), std::memory_order_release);
    mgr.Retire(std::static_pointer_cast<const void>(std::move(old)));
    MaybeCompactLocked(mgr);
  }
  std::shared_ptr<MemTable> old_mem = std::move(shard->mem_owned);
  shard->mem_owned = std::make_shared<MemTable>();
  shard->mem.store(shard->mem_owned.get(), std::memory_order_release);
  mgr.Retire(std::static_pointer_cast<const void>(std::move(old_mem)));
}

void LsmKv::MaybeCompactLocked(concurrency::EpochManager& mgr) {
  if (runs_owned_->size() < options_.max_runs) return;
  // Full merge at an unbounded pin, newest version per key wins; history
  // is collapsed and bottom-level tombstones are dropped (nothing older
  // can resurface).
  std::vector<MergeCursor> cursors;
  for (const auto& run : *runs_owned_) {  // oldest first
    const auto& e = run->entries();
    cursors.push_back({.run = e.data(),
                       .run_end = e.data() + e.size(),
                       .source = cursors.size()});
  }
  std::vector<SortedRun::Entry> entries;
  MergeNewest(&cursors, "", concurrency::EpochManager::kWriterPin,
              [&entries](const Visible& v) {
                if (!v.tombstone) {
                  entries.push_back({*v.key, *v.value, false, v.epoch});
                }
              });
  auto next = std::make_shared<RunsVec>();
  next->push_back(std::make_shared<const SortedRun>(std::move(entries)));
  std::shared_ptr<RunsVec> old = std::move(runs_owned_);
  runs_owned_ = std::move(next);
  runs_.store(runs_owned_.get(), std::memory_order_release);
  mgr.Retire(std::static_pointer_cast<const void>(std::move(old)));
  compactions_.fetch_add(1, std::memory_order_relaxed);
}

Status LsmKv::Get(std::string_view key, std::string* value) const {
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  const Shard& shard = shards_[ShardOf(key)];
  // Memtable before runs: the flush publishes the new run list before
  // the fresh memtable, so a reader that misses here cannot also miss
  // the flushed entries.
  const MemTable* mem = shard.mem.load(std::memory_order_acquire);
  if (const MemTable::ValueVersion* v = mem->Find(key, pin)) {
    if (v->tombstone) return Status::NotFound("deleted");
    value->assign(v->value);
    return Status::OK();
  }
  const RunsVec* runs = runs_.load(std::memory_order_acquire);
  for (auto run = runs->rbegin(); run != runs->rend(); ++run) {
    const SortedRun::Entry* e = (*run)->Find(key, pin);
    if (e != nullptr) {
      if (e->tombstone) return Status::NotFound("deleted");
      value->assign(e->value);
      return Status::OK();
    }
  }
  return Status::NotFound("key not in lsm");
}

void LsmKv::CollectVisible(
    std::string_view prefix, uint64_t pin,
    std::vector<std::pair<std::string, std::string>>* live) const {
  // A prefix that pins a row key lives in that row's shard alone.
  const bool one_row = prefix.size() >= keycodec::kRowKeyBytes;
  const size_t first = one_row ? ShardOf(prefix) : 0;
  const size_t last = one_row ? first + 1 : kShards;
  // Capture memtables before the run list (see Get for the ordering
  // argument; a retired memtable stays readable under our caller's pin).
  std::array<const MemTable*, kShards> mems;
  for (size_t i = first; i < last; ++i) {
    mems[i] = shards_[i].mem.load(std::memory_order_acquire);
  }
  const RunsVec* runs = runs_.load(std::memory_order_acquire);
  std::vector<MergeCursor> cursors;
  cursors.reserve(runs->size() + (last - first));
  for (const auto& run : *runs) {  // oldest first
    const SortedRun::Entry* begin = run->entries().data();
    const SortedRun::Entry* end = begin + run->entries().size();
    const SortedRun::Entry* from = std::lower_bound(
        begin, end, prefix, [](const SortedRun::Entry& e, std::string_view p) {
          return e.key < p;
        });
    cursors.push_back({.run = from, .run_end = end, .source = cursors.size()});
  }
  for (size_t i = first; i < last; ++i) {
    cursors.push_back({.node = mems[i]->Seek(prefix),
                       .source = cursors.size()});
  }
  live->clear();
  MergeNewest(&cursors, prefix, pin, [live](const Visible& v) {
    if (!v.tombstone) live->emplace_back(*v.key, *v.value);
  });
}

class LsmKv::Iter : public KvIterator {
 public:
  explicit Iter(const LsmKv* lsm) {
    concurrency::EpochGuard guard;
    lsm->CollectVisible("", concurrency::ReadPin(guard), &entries_);
  }

  void SeekToFirst() override { pos_ = 0; }
  void Seek(std::string_view target) override {
    pos_ = size_t(std::lower_bound(entries_.begin(), entries_.end(), target,
                                   [](const auto& e, std::string_view t) {
                                     return e.first < t;
                                   }) -
                  entries_.begin());
  }
  bool Valid() const override { return pos_ < entries_.size(); }
  void Next() override { ++pos_; }
  std::string_view key() const override { return entries_[pos_].first; }
  std::string_view value() const override { return entries_[pos_].second; }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  size_t pos_ = 0;
};

std::unique_ptr<KvIterator> LsmKv::NewIterator() const {
  return std::make_unique<Iter>(this);
}

Status LsmKv::ScanPrefix(
    std::string_view prefix,
    std::vector<std::pair<std::string, std::string>>* out) const {
  concurrency::EpochGuard guard;
  CollectVisible(prefix, concurrency::ReadPin(guard), out);
  return Status::OK();
}

uint64_t LsmKv::Count() const {
  concurrency::EpochGuard guard;
  std::vector<std::pair<std::string, std::string>> live;
  CollectVisible("", concurrency::ReadPin(guard), &live);
  return live.size();
}

uint64_t LsmKv::ApproximateSizeBytes() const {
  concurrency::EpochGuard guard;
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.mem.load(std::memory_order_acquire)->bytes();
  }
  const RunsVec* runs = runs_.load(std::memory_order_acquire);
  for (const auto& run : *runs) total += run->size_bytes();
  return total;
}

size_t LsmKv::num_runs() const {
  concurrency::EpochGuard guard;
  return runs_.load(std::memory_order_acquire)->size();
}

uint64_t LsmKv::compactions_run() const {
  return compactions_.load(std::memory_order_relaxed);
}

void LsmKv::Flush() {
  for (Shard& shard : shards_) FlushShard(&shard);
}

}  // namespace graphbench
