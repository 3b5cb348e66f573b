#ifndef GRAPHBENCH_ENGINES_RDF_TRIPLE_STORE_H_
#define GRAPHBENCH_ENGINES_RDF_TRIPLE_STORE_H_

#include <array>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "obs/lock_timer.h"
#include "util/status.h"

namespace graphbench {

/// A dictionary-encoded triple.
struct Triple {
  uint64_t s, p, o;
  friend bool operator==(const Triple&, const Triple&) = default;
};

/// Wildcard id for pattern matching.
inline constexpr uint64_t kWildcard = ~uint64_t{0};

/// One covering index of the triple store: a B+-tree set of 24-byte keys
/// (a triple's ids in the index's order), compared lexicographically.
/// Nodes have a fixed size; each leaf keeps its keys sorted and contiguous
/// and links to its right neighbour, so a range scan reads leaves in
/// place. Removal never merges nodes: a leaf may be left underfull, even
/// empty. Not synchronized; TripleStore locks around it.
class TripleIndex {
  struct Leaf;
  struct Inner;

 public:
  using Key = std::array<uint64_t, 3>;
  /// Keys per node (leaf keys, or inner separators).
  static constexpr uint32_t kNodeKeys = 64;

  TripleIndex() = default;
  ~TripleIndex();
  TripleIndex(const TripleIndex&) = delete;
  TripleIndex& operator=(const TripleIndex&) = delete;

  /// False when the key is already present.
  bool Insert(const Key& key);
  /// False when the key is absent.
  bool Erase(const Key& key);
  bool Contains(const Key& key) const;

  /// A position in the leaf chain; invalid past the last key.
  class Cursor {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    inline const Key& key() const;
    inline void Next();

   private:
    friend class TripleIndex;
    inline Cursor(const Leaf* leaf, uint32_t pos);
    inline void SkipExhausted();

    const Leaf* leaf_;
    uint32_t pos_;
  };

  /// The first key not less than `key`.
  Cursor LowerBound(const Key& key) const;

  uint64_t size() const { return size_; }
  /// Bytes of the allocated nodes.
  uint64_t AllocatedBytes() const;

 private:
  // Inner levels above the leaves bound the descent path's length.
  static constexpr int kMaxHeight = 16;

  static void Free(void* node, int height);

  void* root_ = nullptr;  // null until the first insert
  int height_ = 0;        // inner levels; 0: the root is a leaf
  uint64_t size_ = 0;
  uint64_t leaves_ = 0;
  uint64_t inners_ = 0;
};

struct TripleIndex::Leaf {
  uint32_t count = 0;
  Leaf* next = nullptr;
  Key keys[kNodeKeys];
};

TripleIndex::Cursor::Cursor(const Leaf* leaf, uint32_t pos)
    : leaf_(leaf), pos_(pos) {
  SkipExhausted();
}

const TripleIndex::Key& TripleIndex::Cursor::key() const {
  return leaf_->keys[pos_];
}

void TripleIndex::Cursor::Next() {
  ++pos_;
  SkipExhausted();
}

void TripleIndex::Cursor::SkipExhausted() {
  // Removal can leave leaves empty; step over them.
  while (leaf_ != nullptr && pos_ >= leaf_->count) {
    leaf_ = leaf_->next;
    pos_ = 0;
  }
}

/// Triple store as one logical table with four covering indexes
/// (SPO, POS, OSP, PSO), Virtuoso's "single table with extensive indexing"
/// layout, each a B+-tree as Virtuoso keeps its quads. Every insert
/// maintains all four orderings — the index-maintenance cost behind
/// Virtuoso-SPARQL's ~3x slower writes (§4.3). The index count is
/// configurable for the ablation bench.
class TripleStore {
 public:
  /// `num_indexes` in [1,4]: 1=SPO only, 2=+POS, 3=+OSP, 4=+PSO.
  explicit TripleStore(int num_indexes = 4);

  Status Insert(uint64_t s, uint64_t p, uint64_t o);

  /// Deletes the exact triple from every materialized index. NotFound
  /// when absent.
  Status Remove(uint64_t s, uint64_t p, uint64_t o);

  /// Appends to `out` all triples matching the pattern (kWildcard = any),
  /// in the order of the index it reads. Picks the most selective
  /// available index for the bound positions; unbound-prefix patterns
  /// fall back to scanning SPO.
  void Match(uint64_t s, uint64_t p, uint64_t o,
             std::vector<Triple>* out) const;

  /// True when the exact triple exists.
  bool Contains(uint64_t s, uint64_t p, uint64_t o) const;

  uint64_t size() const;
  uint64_t ApproximateSizeBytes() const;
  int num_indexes() const { return num_indexes_; }

 private:
  // Range scan over index `i`: entries with the given bound prefix
  // (kWildcard terminates the prefix). Remaining positions filtered.
  void ScanIndex(int i, uint64_t s, uint64_t p, uint64_t o,
                 std::vector<Triple>* out) const;

  int num_indexes_;
  mutable obs::TimedSharedMutex mu_{"rdf.lock_wait_us"};
  // SPO, POS, OSP, PSO; the first num_indexes_ are maintained.
  std::array<TripleIndex, 4> indexes_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_RDF_TRIPLE_STORE_H_
