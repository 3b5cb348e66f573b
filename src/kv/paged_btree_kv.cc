#include "kv/paged_btree_kv.h"

#include <algorithm>
#include <cstring>

#include "storage/page_codec.h"

namespace graphbench {

using storage::GetU16;
using storage::GetU32;
using storage::GetU64;
using storage::kPageDataSize;
using storage::PageRef;
using storage::StoreU16;
using storage::StoreU32;
using storage::StoreU64;

namespace {

constexpr uint8_t kLeafNode = 1;
constexpr uint8_t kInteriorNode = 2;
constexpr uint8_t kFlagTombstone = 1;
constexpr uint8_t kFlagOverflow = 2;
constexpr uint64_t kMetaMagic = 0x5442424247ull;  // "GBBBT"
constexpr uint64_t kMetaPage = 1;
// Meta page: [magic][root][first leaf][count][bytes], u64 each.
constexpr size_t kMetaBytes = 40;
// Structural overhead charged per entry, matching BTreeKv's accounting so
// ApproximateSizeBytes is comparable across the backends.
constexpr uint64_t kEntryOverhead = 32;

// A node is one slotted page (the pager's client data area):
//   [0]  u8  type: kLeafNode or kInteriorNode
//   [1]  u8  reserved
//   [2]  u16 slot count
//   [4]  u16 record-area start: records fill [start, kPageDataSize)
//   [6]  u16 reserved
//   [8]  u64 next leaf (leaf) / leftmost child (interior)
//   [16] u16 slots[count]: record offsets, in key order
// Records are packed from the page end backward, each
//   [flags u8][klen u16][vlen u32][key][value].
// A leaf record's value is the inline value, or [first page u64][length
// u64] of an overflow chain; an interior record's is its child page id
// (u64). A Put that fits appends one record and inserts (or repoints) one
// slot; a tombstone flips the flag byte. Bytes of replaced records, and
// the values of tombstoned ones, are reclaimed when the node is next
// compacted or split.
constexpr size_t kNodeHeader = 16;
constexpr size_t kSlotBytes = 2;
constexpr size_t kRecordHeader = 7;
constexpr size_t kOverflowRef = 16;
// A full node is compacted in place when that leaves at least a quarter
// page free for later Puts; otherwise it splits (which compacts both
// halves). The slack keeps a nearly full node from compacting on every
// Put.
constexpr size_t kCompactLimit = kPageDataSize - kPageDataSize / 4;

struct Record {
  uint8_t flags = 0;
  std::string_view key;
  std::string_view value;

  bool tombstone() const { return flags & kFlagTombstone; }
  bool overflow() const { return flags & kFlagOverflow; }
  size_t size() const { return kRecordHeader + key.size() + value.size(); }
  // An interior record's child page id; page 0, which no node is, when
  // the record is corrupt.
  uint64_t child() const {
    return value.size() == 8 ? GetU64(value.data()) : 0;
  }
  // The stored value's length, overflow chains included.
  uint64_t value_length() const {
    return overflow() && value.size() == kOverflowRef
               ? GetU64(value.data() + 8)
               : value.size();
  }
};

// Read-only view of a node page. Check() the header before anything else.
// The record accessors clamp every offset and length to the page, so even
// a corrupt slot never reads outside it.
class Node {
 public:
  explicit Node(const char* page) : p_(page) {}

  uint8_t type() const { return uint8_t(p_[0]); }
  bool leaf() const { return type() == kLeafNode; }
  size_t count() const { return GetU16(p_ + 2); }
  size_t records_start() const { return GetU16(p_ + 4); }
  uint64_t link() const { return GetU64(p_ + 8); }
  size_t slot(size_t i) const {
    return GetU16(p_ + kNodeHeader + kSlotBytes * i);
  }
  size_t free_bytes() const {
    return records_start() - kNodeHeader - kSlotBytes * count();
  }

  // Slot i's record offset, clamped so its header lies inside the page.
  size_t record_offset(size_t i) const {
    return std::min(slot(i), kPageDataSize - kRecordHeader);
  }

  Record At(size_t i) const {
    const char* r = p_ + record_offset(i);
    size_t room = size_t(p_ + kPageDataSize - r) - kRecordHeader;
    size_t klen = std::min<size_t>(GetU16(r + 1), room);
    size_t vlen = std::min<size_t>(GetU32(r + 3), room - klen);
    Record rec;
    rec.flags = uint8_t(r[0]);
    rec.key = std::string_view(r + kRecordHeader, klen);
    rec.value = std::string_view(r + kRecordHeader + klen, vlen);
    return rec;
  }
  std::string_view Key(size_t i) const {
    const char* r = p_ + record_offset(i);
    size_t room = size_t(p_ + kPageDataSize - r) - kRecordHeader;
    return std::string_view(r + kRecordHeader,
                            std::min<size_t>(GetU16(r + 1), room));
  }

  // First slot whose key is >= `key` (count() when none is).
  size_t LowerBound(std::string_view key) const {
    size_t lo = 0, hi = count();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (Key(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  // Separators <= `key`: the child an interior descent takes. Child 0
  // holds keys < Key(0); child i+1 holds keys >= Key(i).
  size_t UpperBound(std::string_view key) const {
    size_t lo = 0, hi = count();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (key < Key(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }
  uint64_t Child(size_t idx) const {
    return idx == 0 ? link() : At(idx - 1).child();
  }

  Status Check() const {
    if ((type() != kLeafNode && type() != kInteriorNode) ||
        records_start() > kPageDataSize ||
        kNodeHeader + kSlotBytes * count() > records_start()) {
      return Status::Corruption("paged_btree: bad node header");
    }
    return Status::OK();
  }

 private:
  const char* p_;
};

void WriteRecord(char* at, const Record& rec) {
  at[0] = char(rec.flags);
  StoreU16(at + 1, uint16_t(rec.key.size()));
  StoreU32(at + 3, uint32_t(rec.value.size()));
  // std::copy, not memcpy: a tombstone's value is an empty view whose
  // data() may be null.
  char* out = std::copy(rec.key.begin(), rec.key.end(), at + kRecordHeader);
  std::copy(rec.value.begin(), rec.value.end(), out);
}

// Appends `rec` to the record area (the caller checked it fits) and
// returns its offset.
uint16_t AppendRecord(char* page, const Record& rec) {
  size_t off = Node(page).records_start() - rec.size();
  WriteRecord(page + off, rec);
  StoreU16(page + 4, uint16_t(off));
  return uint16_t(off);
}

void InsertSlot(char* page, size_t pos, uint16_t off) {
  size_t count = Node(page).count();
  char* slots = page + kNodeHeader;
  std::memmove(slots + kSlotBytes * (pos + 1), slots + kSlotBytes * pos,
               kSlotBytes * (count - pos));
  StoreU16(slots + kSlotBytes * pos, off);
  StoreU16(page + 2, uint16_t(count + 1));
}

// Writes entries [begin, end) as the whole node. Entries must not point
// into `page`.
void BuildNode(char* page, uint8_t type, uint64_t link,
               const std::vector<Record>& entries, size_t begin,
               size_t end) {
  page[0] = char(type);
  page[1] = 0;
  StoreU16(page + 2, 0);
  StoreU16(page + 4, uint16_t(kPageDataSize));
  StoreU16(page + 6, 0);
  StoreU64(page + 8, link);
  for (size_t i = begin; i < end; ++i) {
    InsertSlot(page, i - begin, AppendRecord(page, entries[i]));
  }
}

// Bytes entry `e` takes in a node: its record and its slot.
size_t Footprint(const Record& e) { return kSlotBytes + e.size(); }

// Where a node of `entries` splits: the index that best balances the two
// halves. A leaf keeps [0, mid) and moves [mid, n) right; an interior node
// keeps [0, mid), pushes entry mid up and moves (mid, n) right.
size_t SplitPoint(const std::vector<Record>& entries, bool leaf) {
  size_t total = 0;
  for (const Record& e : entries) total += Footprint(e);
  size_t n = entries.size();
  size_t best = 1, best_cost = SIZE_MAX, left = 0;
  for (size_t mid = 1; mid + (leaf ? 0 : 1) < n; ++mid) {
    left += Footprint(entries[mid - 1]);
    size_t right = total - left - (leaf ? 0 : Footprint(entries[mid]));
    size_t cost = std::max(left, right);
    if (cost < best_cost) {
      best_cost = cost;
      best = mid;
    }
  }
  return best;
}

}  // namespace

struct PagedBTreeKv::DescentStep {
  uint64_t page_id = 0;
  // Which child of this interior node the descent took (0 = leftmost).
  size_t child_index = 0;
};

PagedBTreeKv::PagedBTreeKv(std::unique_ptr<storage::Pager> pager)
    : pager_(std::move(pager)) {}

PagedBTreeKv::~PagedBTreeKv() = default;

Result<std::unique_ptr<PagedBTreeKv>> PagedBTreeKv::Open(
    storage::FileSystem* fs, const std::string& db_path,
    const std::string& wal_path, const storage::PagerOptions& options) {
  GB_ASSIGN_OR_RETURN(std::unique_ptr<storage::Pager> pager,
                      storage::Pager::Open(fs, db_path, wal_path, options));
  std::unique_ptr<PagedBTreeKv> kv(new PagedBTreeKv(std::move(pager)));
  if (kv->pager_->page_count() <= kMetaPage) {
    GB_RETURN_IF_ERROR(kv->InitFresh());
  } else {
    GB_RETURN_IF_ERROR(kv->LoadMeta());
  }
  return kv;
}

Status PagedBTreeKv::InitFresh() {
  pager_->BeginOp();
  auto meta_or = pager_->Allocate();
  if (!meta_or.ok()) {
    pager_->AbortOp();
    return meta_or.status();
  }
  auto root_or = pager_->Allocate();
  if (!root_or.ok()) {
    pager_->AbortOp();
    return root_or.status();
  }
  root_page_ = root_or->page_id();
  first_leaf_ = root_page_;
  count_ = 0;
  bytes_ = 0;
  root_or->MarkDirty();
  BuildNode(root_or->data(), kLeafNode, /*link=*/0, {}, 0, 0);
  Status s = WriteMetaLocked();
  if (!s.ok()) {
    pager_->AbortOp();
    return s;
  }
  return pager_->CommitOp();
}

Status PagedBTreeKv::LoadMeta() {
  GB_ASSIGN_OR_RETURN(PageRef meta, pager_->Fetch(kMetaPage));
  if (GetU64(meta.data()) != kMetaMagic) {
    return Status::Corruption("paged_btree: bad meta page");
  }
  root_page_ = GetU64(meta.data() + 8);
  first_leaf_ = GetU64(meta.data() + 16);
  count_ = GetU64(meta.data() + 24);
  bytes_ = GetU64(meta.data() + 32);
  return Status::OK();
}

Status PagedBTreeKv::WriteMetaLocked() {
  GB_ASSIGN_OR_RETURN(PageRef meta, pager_->Fetch(kMetaPage));
  meta.MarkDirty(0, kMetaBytes);
  char* p = meta.data();
  StoreU64(p, kMetaMagic);
  StoreU64(p + 8, root_page_);
  StoreU64(p + 16, first_leaf_);
  StoreU64(p + 24, count_);
  StoreU64(p + 32, bytes_);
  return Status::OK();
}

Result<PageRef> PagedBTreeKv::FetchNode(uint64_t page_id) const {
  GB_ASSIGN_OR_RETURN(PageRef ref, pager_->Fetch(page_id));
  GB_RETURN_IF_ERROR(Node(ref.data()).Check());
  return ref;
}

Result<PageRef> PagedBTreeKv::Descend(std::string_view key,
                                      std::vector<DescentStep>* path) const {
  uint64_t page_id = root_page_;
  for (;;) {
    GB_ASSIGN_OR_RETURN(PageRef ref, FetchNode(page_id));
    Node node(ref.data());
    if (node.leaf()) return ref;
    size_t idx = node.UpperBound(key);
    if (path != nullptr) path->push_back({page_id, idx});
    page_id = node.Child(idx);
  }
}

Status PagedBTreeKv::ReadValue(const char* leaf_page, size_t slot,
                               std::string* value) const {
  Record rec = Node(leaf_page).At(slot);
  if (rec.overflow()) {
    if (rec.value.size() != kOverflowRef) {
      return Status::Corruption("paged_btree: bad overflow reference");
    }
    GB_ASSIGN_OR_RETURN(*value, storage::ReadOverflowChain(
                                    pager_.get(), GetU64(rec.value.data()),
                                    rec.value_length()));
    return Status::OK();
  }
  value->assign(rec.value);
  return Status::OK();
}

/// Puts the record (flags, key, value) at slot `pos` of `page`, replacing
/// that slot's record when `replace`. In place when it fits; otherwise the
/// node is compacted or split, and a split inserts its separator into the
/// parent the same way, up to a new root. `page` is the leaf at depth
/// path_.size(). Each branch declares to the pager only the bytes it
/// changes.
Status PagedBTreeKv::PlaceRecordLocked(PageRef page, size_t pos, bool replace,
                                       uint8_t flags, std::string_view key,
                                       std::string_view value) {
  Record rec{flags, key, value};
  size_t level = path_.size();
  std::string separator;
  char child_ref[8];
  for (;;) {
    char* p = page.data();
    Node node(p);
    size_t slot_at = kNodeHeader + kSlotBytes * pos;
    size_t record_at = node.records_start() - rec.size();
    if (replace) {
      Record old = node.At(pos);
      if (old.size() == rec.size()) {
        page.MarkDirty(node.record_offset(pos), rec.size());
        WriteRecord(p + node.record_offset(pos), rec);
        return Status::OK();
      }
      if (node.free_bytes() >= rec.size()) {
        // Repoint: the record-area start, the slot, the new record.
        page.MarkDirty(4, 2);
        page.MarkDirty(slot_at, kSlotBytes);
        page.MarkDirty(record_at, rec.size());
        StoreU16(p + slot_at, AppendRecord(p, rec));
        return Status::OK();
      }
    } else if (node.free_bytes() >= kSlotBytes + rec.size()) {
      // Count and record-area start, the slots from `pos` on (shifted one
      // right), the new record.
      page.MarkDirty(2, 4);
      page.MarkDirty(slot_at, kSlotBytes * (node.count() - pos + 1));
      page.MarkDirty(record_at, rec.size());
      InsertSlot(p, pos, AppendRecord(p, rec));
      return Status::OK();
    }

    // Full: materialize the node from a copy, tombstones without values,
    // and rebuild the whole page.
    page.MarkDirty();
    std::string copy(p, kPageDataSize);
    Node full(copy.data());
    std::vector<Record> entries(full.count());
    for (size_t i = 0; i < entries.size(); ++i) {
      entries[i] = full.At(i);
      if (entries[i].tombstone()) entries[i].value = {};
    }
    if (replace) {
      entries[pos] = rec;
    } else {
      entries.insert(entries.begin() + ptrdiff_t(pos), rec);
    }
    size_t bytes = kNodeHeader;
    for (const Record& e : entries) bytes += Footprint(e);
    bool leaf = full.leaf();
    if (bytes <= kCompactLimit) {
      BuildNode(p, full.type(), full.link(), entries, 0, entries.size());
      return Status::OK();
    }

    size_t mid = SplitPoint(entries, leaf);
    GB_ASSIGN_OR_RETURN(PageRef right, pager_->Allocate());
    right.MarkDirty();
    uint64_t right_id = right.page_id();
    std::string up(entries[mid].key);
    if (leaf) {
      BuildNode(right.data(), kLeafNode, full.link(), entries, mid,
                entries.size());
      BuildNode(p, kLeafNode, right_id, entries, 0, mid);
    } else {
      // The middle key moves up; its child becomes the right node's
      // leftmost.
      BuildNode(right.data(), kInteriorNode, entries[mid].child(), entries,
                mid + 1, entries.size());
      BuildNode(p, kInteriorNode, full.link(), entries, 0, mid);
    }
    separator = std::move(up);
    StoreU64(child_ref, right_id);
    rec = {0, separator, std::string_view(child_ref, sizeof(child_ref))};

    if (level == 0) {
      // Root split: the tree grows a level.
      GB_ASSIGN_OR_RETURN(PageRef root, pager_->Allocate());
      root.MarkDirty();
      BuildNode(root.data(), kInteriorNode, page.page_id(), {rec}, 0, 1);
      root_page_ = root.page_id();
      return Status::OK();
    }
    --level;
    GB_ASSIGN_OR_RETURN(page, FetchNode(path_[level].page_id));
    pos = path_[level].child_index;
    replace = false;
  }
}

Status PagedBTreeKv::MutateLeaf(std::string_view key, std::string_view value,
                                bool is_delete) {
  if (key.size() > kMaxKeyBytes) {
    return Status::InvalidArgument("paged_btree: key too large");
  }
  path_.clear();
  GB_ASSIGN_OR_RETURN(PageRef leaf, Descend(key, &path_));
  Node node(leaf.data());
  size_t pos = node.LowerBound(key);
  bool found = pos < node.count() && node.Key(pos) == key;
  Record old;
  if (found) old = node.At(pos);

  if (is_delete) {
    if (!found || old.tombstone()) {
      return Status::NotFound("key not in btree");
    }
    bytes_ -= std::min<uint64_t>(
        bytes_, key.size() + old.value_length() + kEntryOverhead);
    --count_;
    // Lazy tombstone: the slot stays (and keeps leaves ordered) but reads
    // skip it. A dropped overflow chain is leaked — no free list
    // (DESIGN.md §12).
    leaf.MarkDirty(node.record_offset(pos), 1);
    leaf.data()[node.record_offset(pos)] |= char(kFlagTombstone);
    return WriteMetaLocked();
  }

  uint8_t flags = 0;
  std::string_view stored = value;
  char ref[kOverflowRef];
  if (value.size() > kMaxInlineValue) {
    GB_ASSIGN_OR_RETURN(uint64_t first, storage::WriteOverflowChain(
                                            pager_.get(), value));
    StoreU64(ref, first);
    StoreU64(ref + 8, value.size());
    flags = kFlagOverflow;
    stored = std::string_view(ref, kOverflowRef);
  }
  if (found && !old.tombstone()) {
    bytes_ -= std::min<uint64_t>(
        bytes_, key.size() + old.value_length() + kEntryOverhead);
    --count_;
  }
  bytes_ += key.size() + value.size() + kEntryOverhead;
  ++count_;
  GB_RETURN_IF_ERROR(
      PlaceRecordLocked(std::move(leaf), pos, found, flags, key, stored));
  return WriteMetaLocked();
}

Status PagedBTreeKv::Put(std::string_view key, std::string_view value) {
  std::unique_lock<obs::TimedSharedMutex> lock(latch_);
  pager_->BeginOp();
  Status s = MutateLeaf(key, value, /*is_delete=*/false);
  if (!s.ok()) {
    pager_->AbortOp();
    // Meta counters may have moved before the failure; re-sync from the
    // (rolled back) meta page.
    (void)LoadMeta();
    return s;
  }
  return pager_->CommitOp();
}

Status PagedBTreeKv::Delete(std::string_view key) {
  std::unique_lock<obs::TimedSharedMutex> lock(latch_);
  pager_->BeginOp();
  Status s = MutateLeaf(key, "", /*is_delete=*/true);
  if (!s.ok()) {
    pager_->AbortOp();
    (void)LoadMeta();
    return s;
  }
  return pager_->CommitOp();
}

Status PagedBTreeKv::Get(std::string_view key, std::string* value) const {
  std::shared_lock<obs::TimedSharedMutex> lock(latch_);
  GB_ASSIGN_OR_RETURN(PageRef leaf, Descend(key, nullptr));
  Node node(leaf.data());
  size_t pos = node.LowerBound(key);
  if (pos == node.count() || node.Key(pos) != key ||
      node.At(pos).tombstone()) {
    return Status::NotFound("key not in btree");
  }
  return ReadValue(leaf.data(), pos, value);
}

Status PagedBTreeKv::ScanPrefix(
    std::string_view prefix,
    std::vector<std::pair<std::string, std::string>>* out) const {
  std::shared_lock<obs::TimedSharedMutex> lock(latch_);
  GB_ASSIGN_OR_RETURN(PageRef leaf, Descend(prefix, nullptr));
  // Keys with the prefix are contiguous from its lower bound on.
  size_t i = Node(leaf.data()).LowerBound(prefix);
  for (;;) {
    Node node(leaf.data());
    for (; i < node.count(); ++i) {
      Record rec = node.At(i);
      if (rec.key.substr(0, prefix.size()) != prefix) return Status::OK();
      if (rec.tombstone()) continue;
      std::string value;
      GB_RETURN_IF_ERROR(ReadValue(leaf.data(), i, &value));
      out->emplace_back(std::string(rec.key), std::move(value));
    }
    if (node.link() == 0) return Status::OK();
    GB_ASSIGN_OR_RETURN(leaf, FetchNode(node.link()));
    i = 0;
  }
}

uint64_t PagedBTreeKv::Count() const {
  std::shared_lock<obs::TimedSharedMutex> lock(latch_);
  return count_;
}

uint64_t PagedBTreeKv::ApproximateSizeBytes() const {
  std::shared_lock<obs::TimedSharedMutex> lock(latch_);
  return bytes_;
}

/// Snapshot iterator mirroring BTreeKv::Iter: materializes the live
/// keyspace under the shared latch so iteration never observes a
/// half-applied structural change.
class PagedBTreeKv::Iter : public KvIterator {
 public:
  explicit Iter(std::vector<std::pair<std::string, std::string>> entries)
      : entries_(std::move(entries)) {}

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

std::unique_ptr<KvIterator> PagedBTreeKv::NewIterator() const {
  std::vector<std::pair<std::string, std::string>> entries;
  {
    std::shared_lock<obs::TimedSharedMutex> lock(latch_);
    uint64_t page_id = first_leaf_;
    while (page_id != 0) {
      auto leaf = FetchNode(page_id);
      if (!leaf.ok()) break;
      Node node(leaf->data());
      for (size_t i = 0; i < node.count(); ++i) {
        Record rec = node.At(i);
        if (rec.tombstone()) continue;
        std::string value;
        if (!ReadValue(leaf->data(), i, &value).ok()) continue;
        entries.emplace_back(std::string(rec.key), std::move(value));
      }
      page_id = node.link();
    }
  }
  return std::make_unique<Iter>(std::move(entries));
}

}  // namespace graphbench
