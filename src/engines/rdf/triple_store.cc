#include "engines/rdf/triple_store.h"

#include <algorithm>
#include <mutex>

namespace graphbench {

namespace {

using Key = TripleIndex::Key;

bool Less(const Key& a, const Key& b) {
  if (a[0] != b[0]) return a[0] < b[0];
  if (a[1] != b[1]) return a[1] < b[1];
  return a[2] < b[2];
}

// Position of the first of `n` sorted keys not less than `key`.
uint32_t LowerBoundIn(const Key* keys, uint32_t n, const Key& key) {
  return uint32_t(std::lower_bound(keys, keys + n, key, Less) - keys);
}

// Position of the first of `n` sorted keys greater than `key`: the child
// of an inner node whose range holds `key`.
uint32_t UpperBoundIn(const Key* keys, uint32_t n, const Key& key) {
  return uint32_t(std::upper_bound(keys, keys + n, key, Less) - keys);
}

// Inserts `v` at `pos` of the first `n` elements of `a`.
template <typename T>
void InsertAt(T* a, uint32_t n, uint32_t pos, const T& v) {
  std::copy_backward(a + pos, a + n, a + n + 1);
  a[pos] = v;
}

// Permutations: index key position -> triple component (0=s,1=p,2=o),
// for SPO, POS, OSP and PSO.
constexpr int kPerms[4][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {1, 0, 2}};
constexpr int kSpo = 0, kPos = 1, kOsp = 2, kPso = 3;

Key Permute(int index, uint64_t s, uint64_t p, uint64_t o) {
  const int* perm = kPerms[index];
  uint64_t c[3] = {s, p, o};
  return {c[perm[0]], c[perm[1]], c[perm[2]]};
}

}  // namespace

// Separator i divides children i and i + 1: child i holds the keys k with
// keys[i - 1] <= k < keys[i].
struct TripleIndex::Inner {
  uint32_t count = 0;  // separators; count + 1 children
  Key keys[kNodeKeys];
  void* children[kNodeKeys + 1];
};

TripleIndex::~TripleIndex() {
  if (root_ != nullptr) Free(root_, height_);
}

void TripleIndex::Free(void* node, int height) {
  if (height == 0) {
    delete static_cast<Leaf*>(node);
    return;
  }
  Inner* inner = static_cast<Inner*>(node);
  for (uint32_t i = 0; i <= inner->count; ++i) {
    Free(inner->children[i], height - 1);
  }
  delete inner;
}

bool TripleIndex::Insert(const Key& key) {
  if (root_ == nullptr) {
    root_ = new Leaf;
    ++leaves_;
  }
  // Descend, remembering each inner node and the child taken
  // (path[0] is the leaf's parent).
  Inner* path[kMaxHeight];
  uint32_t taken[kMaxHeight];
  void* node = root_;
  for (int level = height_ - 1; level >= 0; --level) {
    Inner* inner = static_cast<Inner*>(node);
    uint32_t i = UpperBoundIn(inner->keys, inner->count, key);
    path[level] = inner;
    taken[level] = i;
    node = inner->children[i];
  }
  Leaf* leaf = static_cast<Leaf*>(node);
  uint32_t pos = LowerBoundIn(leaf->keys, leaf->count, key);
  if (pos < leaf->count && leaf->keys[pos] == key) return false;
  ++size_;
  if (leaf->count < kNodeKeys) {
    InsertAt(leaf->keys, leaf->count++, pos, key);
    return true;
  }

  // Split the full leaf in half and insert on the key's side.
  constexpr uint32_t kHalf = kNodeKeys / 2;
  Leaf* right = new Leaf;
  ++leaves_;
  std::copy(leaf->keys + kHalf, leaf->keys + kNodeKeys, right->keys);
  right->count = kNodeKeys - kHalf;
  leaf->count = kHalf;
  right->next = leaf->next;
  leaf->next = right;
  if (pos <= kHalf) {
    InsertAt(leaf->keys, leaf->count++, pos, key);
  } else {
    InsertAt(right->keys, right->count++, pos - kHalf, key);
  }

  // Post (separator, child) into the parents, splitting full ones.
  Key separator = right->keys[0];
  void* child = right;
  for (int level = 0; level < height_; ++level) {
    Inner* inner = path[level];
    uint32_t i = taken[level];
    if (inner->count < kNodeKeys) {
      InsertAt(inner->keys, inner->count, i, separator);
      InsertAt(inner->children, inner->count + 1, i + 1, child);
      ++inner->count;
      return true;
    }
    // kNodeKeys + 1 separators over kNodeKeys + 2 children: the lower
    // half stays, the middle separator moves up, the upper half moves to
    // a new sibling.
    Key keys[kNodeKeys + 1];
    void* children[kNodeKeys + 2];
    std::copy(inner->keys, inner->keys + kNodeKeys, keys);
    InsertAt(keys, kNodeKeys, i, separator);
    std::copy(inner->children, inner->children + kNodeKeys + 1, children);
    InsertAt(children, kNodeKeys + 1, i + 1, child);
    Inner* sibling = new Inner;
    ++inners_;
    inner->count = kHalf;
    std::copy(keys, keys + kHalf, inner->keys);
    std::copy(children, children + kHalf + 1, inner->children);
    sibling->count = kNodeKeys - kHalf;
    std::copy(keys + kHalf + 1, keys + kNodeKeys + 1, sibling->keys);
    std::copy(children + kHalf + 1, children + kNodeKeys + 2,
              sibling->children);
    separator = keys[kHalf];
    child = sibling;
  }
  // The root split: the tree grows a level.
  Inner* root = new Inner;
  ++inners_;
  root->count = 1;
  root->keys[0] = separator;
  root->children[0] = root_;
  root->children[1] = child;
  root_ = root;
  ++height_;
  return true;
}

TripleIndex::Cursor TripleIndex::LowerBound(const Key& key) const {
  if (root_ == nullptr) return Cursor(nullptr, 0);
  const void* node = root_;
  for (int level = height_; level > 0; --level) {
    const Inner* inner = static_cast<const Inner*>(node);
    node = inner->children[UpperBoundIn(inner->keys, inner->count, key)];
  }
  const Leaf* leaf = static_cast<const Leaf*>(node);
  return Cursor(leaf, LowerBoundIn(leaf->keys, leaf->count, key));
}

bool TripleIndex::Contains(const Key& key) const {
  Cursor c = LowerBound(key);
  return c.Valid() && c.key() == key;
}

bool TripleIndex::Erase(const Key& key) {
  Cursor c = LowerBound(key);
  if (!c.Valid() || c.key() != key) return false;
  // Nodes are never merged; the leaf just loses the key.
  Leaf* leaf = const_cast<Leaf*>(c.leaf_);
  std::copy(leaf->keys + c.pos_ + 1, leaf->keys + leaf->count,
            leaf->keys + c.pos_);
  --leaf->count;
  --size_;
  return true;
}

uint64_t TripleIndex::AllocatedBytes() const {
  return leaves_ * sizeof(Leaf) + inners_ * sizeof(Inner);
}

TripleStore::TripleStore(int num_indexes)
    : num_indexes_(std::clamp(num_indexes, 1, 4)) {}

Status TripleStore::Insert(uint64_t s, uint64_t p, uint64_t o) {
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  if (!indexes_[kSpo].Insert({s, p, o})) {
    return Status::AlreadyExists("triple");
  }
  for (int i = 1; i < num_indexes_; ++i) {
    indexes_[size_t(i)].Insert(Permute(i, s, p, o));
  }
  return Status::OK();
}

Status TripleStore::Remove(uint64_t s, uint64_t p, uint64_t o) {
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  if (!indexes_[kSpo].Erase({s, p, o})) return Status::NotFound("triple");
  for (int i = 1; i < num_indexes_; ++i) {
    indexes_[size_t(i)].Erase(Permute(i, s, p, o));
  }
  return Status::OK();
}

void TripleStore::ScanIndex(int index, uint64_t s, uint64_t p, uint64_t o,
                            std::vector<Triple>* out) const {
  const int* perm = kPerms[index];
  uint64_t comps[3] = {s, p, o};
  // Bound prefix length under this index's order.
  Key lo = {0, 0, 0};
  int prefix = 0;
  while (prefix < 3 && comps[perm[prefix]] != kWildcard) {
    lo[size_t(prefix)] = comps[perm[prefix]];
    ++prefix;
  }
  for (auto c = indexes_[size_t(index)].LowerBound(lo); c.Valid(); c.Next()) {
    const Key& k = c.key();
    bool prefix_ok = true;
    for (int i = 0; i < prefix; ++i) {
      if (k[size_t(i)] != lo[size_t(i)]) {
        prefix_ok = false;
        break;
      }
    }
    if (!prefix_ok) break;  // past the bound prefix range
    // Residual filter on non-prefix bound positions.
    uint64_t t[3];
    for (int i = 0; i < 3; ++i) t[perm[i]] = k[size_t(i)];
    if ((s != kWildcard && t[0] != s) || (p != kWildcard && t[1] != p) ||
        (o != kWildcard && t[2] != o)) {
      continue;
    }
    out->push_back(Triple{t[0], t[1], t[2]});
  }
}

void TripleStore::Match(uint64_t s, uint64_t p, uint64_t o,
                        std::vector<Triple>* out) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  const bool bs = s != kWildcard, bp = p != kWildcard, bo = o != kWildcard;
  // Choose the index whose order puts the bound components first;
  // fall back to an SPO scan with residual filters when the matching
  // index is not materialized (ablation configurations).
  int index = kSpo;
  if (bs) {
    index = kSpo;
  } else if (bp && bo && num_indexes_ > kPos) {
    index = kPos;
  } else if (bo && num_indexes_ > kOsp) {
    index = kOsp;
  } else if (bp && !bo && num_indexes_ > kPso) {
    index = kPso;
  }
  ScanIndex(index, s, p, o, out);
}

bool TripleStore::Contains(uint64_t s, uint64_t p, uint64_t o) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return indexes_[kSpo].Contains({s, p, o});
}

uint64_t TripleStore::size() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return indexes_[kSpo].size();
}

uint64_t TripleStore::ApproximateSizeBytes() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  // The allocated B+-tree nodes of every maintained index: keys, their
  // leaves' unused slots, and the inner levels.
  uint64_t bytes = 0;
  for (int i = 0; i < num_indexes_; ++i) {
    bytes += indexes_[size_t(i)].AllocatedBytes();
  }
  return bytes;
}

}  // namespace graphbench
