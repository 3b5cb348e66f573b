#include "storage/paged_table.h"

#include <algorithm>
#include <cstring>

#include "storage/heap_table.h"
#include "storage/page_codec.h"

namespace graphbench {

using storage::GetU16;
using storage::GetU32;
using storage::GetU64;
using storage::kPageDataSize;
using storage::PageRef;
using storage::PutU16;
using storage::PutU32;
using storage::PutU64;
using storage::ReadBytes;
using storage::ReadU16;
using storage::ReadU32;
using storage::ReadU64;
using storage::ReadU8;
using storage::StoreU16;
using storage::StoreU32;
using storage::StoreU64;

namespace {

constexpr uint64_t kTableMagic = 0x4c42544247ull;  // "GBTBL"
// Slot flags.
constexpr uint8_t kSlotUnused = 0;
constexpr uint8_t kSlotLive = 1;
constexpr uint8_t kSlotOverflow = 2;  // OR'd with kSlotLive
constexpr uint8_t kSlotTombstone = 4;
constexpr uint8_t kSlotPacked = 8;  // OR'd with kSlotLive
// Slot payload starts after [flags u8][pad u8][len u16]. A packed slot's
// payload is [row page u64][offset u16][len u16]; an overflow slot's is
// [first page u64][len u64].
constexpr size_t kSlotHeader = 4;
constexpr size_t kInlineCapacity = PagedTable::kSlotBytes - kSlotHeader;
// Meta page: [magic u64][next_row u64][live_rows u64][bytes u64] (the
// counters every mutation rewrites), then [first_dir u64][row_page u64].
constexpr size_t kMetaCounterBytes = 32;
constexpr size_t kMetaFirstDir = kMetaCounterBytes;
constexpr size_t kMetaRowPage = 40;
// Row page: [fill u16] (the offset of its first free byte), then packed
// row payloads back to back. Rows too long for the slot but no longer
// than kMaxPackedRow are appended here; longer ones take overflow chains.
constexpr size_t kRowPageHeader = 2;
constexpr size_t kMaxPackedRow = kPageDataSize - kRowPageHeader;
// Directory page: [next u64][count u32] + page ids.
constexpr size_t kDirHeader = 12;
constexpr size_t kDirCapacity = (kPageDataSize - kDirHeader) / 8;

std::string SerializeRow(const Row& row) {
  std::string out;
  PutU16(&out, uint16_t(row.size()));
  for (const Value& v : row) {
    out.push_back(char(v.type()));
    switch (v.type()) {
      case Value::Type::kNull:
        break;
      case Value::Type::kBool:
        out.push_back(v.as_bool() ? 1 : 0);
        break;
      case Value::Type::kInt:
        PutU64(&out, uint64_t(v.as_int()));
        break;
      case Value::Type::kDouble: {
        double d = v.as_double();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(&out, bits);
        break;
      }
      case Value::Type::kString:
        PutU32(&out, uint32_t(v.as_string().size()));
        out.append(v.as_string());
        break;
    }
  }
  return out;
}

Status DeserializeRow(std::string_view buf, Row* row) {
  std::string_view cursor = buf;
  uint16_t ncols;
  if (!ReadU16(&cursor, &ncols)) {
    return Status::Corruption("paged_table: bad row header");
  }
  row->clear();
  row->reserve(ncols);
  for (uint16_t i = 0; i < ncols; ++i) {
    uint8_t type;
    if (!ReadU8(&cursor, &type)) {
      return Status::Corruption("paged_table: truncated row");
    }
    switch (Value::Type(type)) {
      case Value::Type::kNull:
        row->emplace_back();
        break;
      case Value::Type::kBool: {
        uint8_t b;
        if (!ReadU8(&cursor, &b)) {
          return Status::Corruption("paged_table: truncated bool");
        }
        row->emplace_back(b != 0);
        break;
      }
      case Value::Type::kInt: {
        uint64_t bits;
        if (!ReadU64(&cursor, &bits)) {
          return Status::Corruption("paged_table: truncated int");
        }
        row->emplace_back(int64_t(bits));
        break;
      }
      case Value::Type::kDouble: {
        uint64_t bits;
        if (!ReadU64(&cursor, &bits)) {
          return Status::Corruption("paged_table: truncated double");
        }
        double d;
        std::memcpy(&d, &bits, 8);
        row->emplace_back(d);
        break;
      }
      case Value::Type::kString: {
        uint32_t len;
        std::string_view bytes;
        if (!ReadU32(&cursor, &len) || !ReadBytes(&cursor, len, &bytes)) {
          return Status::Corruption("paged_table: truncated string");
        }
        row->emplace_back(std::string(bytes));
        break;
      }
      default:
        return Status::Corruption("paged_table: unknown value type");
    }
  }
  return Status::OK();
}

uint64_t RowFootprint(const Row& row) {
  uint64_t total = 16;
  for (const Value& v : row) total += ValueFootprint(v);
  return total;
}

}  // namespace

PagedTable::PagedTable(storage::Pager* pager, TableSchema schema)
    : Table(std::move(schema)), pager_(pager) {}

Result<std::unique_ptr<PagedTable>> PagedTable::Create(storage::Pager* pager,
                                                       TableSchema schema) {
  std::unique_ptr<PagedTable> table(
      new PagedTable(pager, std::move(schema)));
  GB_RETURN_IF_ERROR(table->InitFresh());
  return table;
}

Result<std::unique_ptr<PagedTable>> PagedTable::Attach(storage::Pager* pager,
                                                       uint64_t meta_page,
                                                       TableSchema schema) {
  std::unique_ptr<PagedTable> table(
      new PagedTable(pager, std::move(schema)));
  GB_RETURN_IF_ERROR(table->LoadMeta(meta_page));
  return table;
}

Status PagedTable::InitFresh() {
  pager_->BeginOp();
  auto meta_or = pager_->Allocate();
  if (!meta_or.ok()) {
    pager_->AbortOp();
    return meta_or.status();
  }
  meta_page_ = meta_or->page_id();
  WriteMetaLocked(&*meta_or);
  return pager_->CommitOp();
}

Status PagedTable::LoadMeta(uint64_t meta_page) {
  GB_ASSIGN_OR_RETURN(PageRef meta, pager_->Fetch(meta_page));
  if (GetU64(meta.data()) != kTableMagic) {
    return Status::Corruption("paged_table: bad meta page");
  }
  uint64_t next_row = GetU64(meta.data() + 8);
  uint64_t live_rows = GetU64(meta.data() + 16);
  uint64_t bytes = GetU64(meta.data() + 24);
  uint64_t dir = GetU64(meta.data() + kMetaFirstDir);
  // The chain is newest-dir-page-first (GrowLocked pushes at the head),
  // but ids within a page are in allocation order. Collect per-page runs
  // and flatten them oldest-run-first so slot_pages_ matches write-time
  // order — otherwise RowId / kSlotsPerPage resolves to the wrong page
  // once the table spans more than one directory page.
  std::vector<std::vector<uint64_t>> runs;
  while (dir != 0) {
    GB_ASSIGN_OR_RETURN(PageRef page, pager_->Fetch(dir));
    uint32_t count = GetU32(page.data() + 8);
    if (count > kDirCapacity) {
      return Status::Corruption("paged_table: bad directory page");
    }
    std::vector<uint64_t> run;
    run.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      run.push_back(GetU64(page.data() + kDirHeader + i * 8));
    }
    runs.push_back(std::move(run));
    dir = GetU64(page.data());
  }
  // Nothing cached changes unless the whole walk succeeded.
  slot_pages_.clear();
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    slot_pages_.insert(slot_pages_.end(), it->begin(), it->end());
  }
  meta_page_ = meta_page;
  next_row_ = next_row;
  live_rows_ = live_rows;
  bytes_ = bytes;
  return Status::OK();
}


void PagedTable::WriteMetaLocked(PageRef* meta) {
  meta->MarkDirty(0, kMetaCounterBytes);
  char* p = meta->data();
  StoreU64(p, kTableMagic);
  StoreU64(p + 8, next_row_);
  StoreU64(p + 16, live_rows_);
  StoreU64(p + 24, bytes_);
  // first_dir is maintained by GrowLocked, row_page by PackLocked.
}

Status PagedTable::GrowLocked(PageRef* meta) {
  GB_ASSIGN_OR_RETURN(PageRef slots, pager_->Allocate());
  slots.MarkDirty();
  std::memset(slots.data(), 0, kPageDataSize);
  uint64_t slots_id = slots.page_id();

  // Append to the directory chain: new dir pages are pushed at the head
  // so we never walk the chain on the write path; LoadMeta walks the
  // chain newest-first and reverses the run order to recover allocation
  // order.
  uint64_t head = GetU64(meta->data() + kMetaFirstDir);
  if (head != 0) {
    GB_ASSIGN_OR_RETURN(PageRef dir, pager_->Fetch(head));
    uint32_t count = GetU32(dir.data() + 8);
    if (count < kDirCapacity) {
      dir.MarkDirty(8, 4);
      dir.MarkDirty(kDirHeader + count * 8, 8);
      StoreU64(dir.data() + kDirHeader + count * 8, slots_id);
      StoreU32(dir.data() + 8, count + 1);
      slot_pages_.push_back(slots_id);
      return Status::OK();
    }
  }
  GB_ASSIGN_OR_RETURN(PageRef dir, pager_->Allocate());
  dir.MarkDirty();
  std::memset(dir.data(), 0, kPageDataSize);
  StoreU64(dir.data(), head);
  StoreU32(dir.data() + 8, 1);
  StoreU64(dir.data() + kDirHeader, slots_id);
  meta->MarkDirty(kMetaFirstDir, 8);
  StoreU64(meta->data() + kMetaFirstDir, dir.page_id());
  slot_pages_.push_back(slots_id);
  return Status::OK();
}

Status PagedTable::PackLocked(PageRef* meta, std::string_view payload,
                              uint64_t* row_page, uint16_t* offset) {
  uint64_t current = GetU64(meta->data() + kMetaRowPage);
  PageRef rows;
  size_t fill = 0;
  if (current != 0) {
    GB_ASSIGN_OR_RETURN(rows, pager_->Fetch(current));
    fill = GetU16(rows.data());
    if (fill < kRowPageHeader) {
      return Status::Corruption("paged_table: bad row page");
    }
  }
  if (current == 0 || fill + payload.size() > kPageDataSize) {
    // The current page's tail stays unused; the fresh page becomes current.
    GB_ASSIGN_OR_RETURN(rows, pager_->Allocate());
    fill = kRowPageHeader;
    meta->MarkDirty(kMetaRowPage, 8);
    StoreU64(meta->data() + kMetaRowPage, rows.page_id());
  }
  rows.MarkDirty(0, kRowPageHeader);
  rows.MarkDirty(fill, payload.size());
  std::memcpy(rows.data() + fill, payload.data(), payload.size());
  StoreU16(rows.data(), uint16_t(fill + payload.size()));
  *row_page = rows.page_id();
  *offset = uint16_t(fill);
  return Status::OK();
}

Status PagedTable::WriteSlot(PageRef* meta, RowId id, const Row& row,
                             bool live) {
  uint64_t page_index = id / kSlotsPerPage;
  size_t slot = size_t(id % kSlotsPerPage);
  GB_ASSIGN_OR_RETURN(PageRef page, pager_->Fetch(slot_pages_[page_index]));
  page.MarkDirty(slot * kSlotBytes, kSlotBytes);
  char* p = page.data() + slot * kSlotBytes;
  if (!live) {
    p[0] = char(kSlotTombstone);
    p[1] = 0;
    StoreU16(p + 2, 0);
    std::memset(p + kSlotHeader, 0, kInlineCapacity);
    return Status::OK();
  }
  std::string payload = SerializeRow(row);
  if (payload.size() <= kInlineCapacity) {
    p[0] = char(kSlotLive);
    p[1] = 0;
    StoreU16(p + 2, uint16_t(payload.size()));
    std::memcpy(p + kSlotHeader, payload.data(), payload.size());
    std::memset(p + kSlotHeader + payload.size(), 0,
                kInlineCapacity - payload.size());
  } else if (payload.size() <= kMaxPackedRow) {
    // A replaced packed row's bytes are leaked, as a chain's are.
    uint64_t row_page;
    uint16_t offset;
    GB_RETURN_IF_ERROR(PackLocked(meta, payload, &row_page, &offset));
    p[0] = char(kSlotLive | kSlotPacked);
    p[1] = 0;
    StoreU16(p + 2, 0);
    StoreU64(p + kSlotHeader, row_page);
    StoreU16(p + kSlotHeader + 8, offset);
    StoreU16(p + kSlotHeader + 10, uint16_t(payload.size()));
    std::memset(p + kSlotHeader + 12, 0, kInlineCapacity - 12);
  } else {
    // A replaced overflow chain is leaked — no free list (DESIGN.md §12).
    GB_ASSIGN_OR_RETURN(uint64_t first,
                        storage::WriteOverflowChain(pager_, payload));
    p[0] = char(kSlotLive | kSlotOverflow);
    p[1] = 0;
    StoreU16(p + 2, 0);
    StoreU64(p + kSlotHeader, first);
    StoreU64(p + kSlotHeader + 8, payload.size());
    std::memset(p + kSlotHeader + 16, 0, kInlineCapacity - 16);
  }
  return Status::OK();
}

Status PagedTable::ReadSlot(RowId id, Row* row, bool* live) const {
  uint64_t page_index = id / kSlotsPerPage;
  size_t slot = size_t(id % kSlotsPerPage);
  if (page_index >= slot_pages_.size()) {
    return Status::NotFound("row id out of range");
  }
  GB_ASSIGN_OR_RETURN(PageRef page, pager_->Fetch(slot_pages_[page_index]));
  const char* p = page.data() + slot * kSlotBytes;
  uint8_t flags = uint8_t(p[0]);
  if (!(flags & kSlotLive)) {
    *live = false;
    return Status::OK();
  }
  *live = true;
  if (row == nullptr) return Status::OK();
  if (flags & kSlotPacked) {
    uint64_t row_page = GetU64(p + kSlotHeader);
    uint16_t offset = GetU16(p + kSlotHeader + 8);
    uint16_t len = GetU16(p + kSlotHeader + 10);
    if (offset < kRowPageHeader || offset + size_t(len) > kPageDataSize) {
      return Status::Corruption("paged_table: bad packed row");
    }
    GB_ASSIGN_OR_RETURN(PageRef rows, pager_->Fetch(row_page));
    return DeserializeRow(std::string_view(rows.data() + offset, len), row);
  }
  if (flags & kSlotOverflow) {
    uint64_t first = GetU64(p + kSlotHeader);
    uint64_t len = GetU64(p + kSlotHeader + 8);
    GB_ASSIGN_OR_RETURN(
        std::string payload,
        storage::ReadOverflowChain(
            const_cast<storage::Pager*>(pager_), first, len));
    return DeserializeRow(payload, row);
  }
  uint16_t len = GetU16(p + 2);
  return DeserializeRow(std::string_view(p + kSlotHeader, len), row);
}

template <typename Body>
Status PagedTable::RunOp(Body&& body) {
  pager_->BeginOp();
  Status s;
  {
    Result<PageRef> meta = pager_->Fetch(meta_page_);
    s = meta.ok() ? body(&*meta) : meta.status();
  }
  if (!s.ok()) {
    pager_->AbortOp();
    return s;
  }
  return pager_->CommitOp();
}

Result<RowId> PagedTable::Insert(const Row& row) {
  if (row.size() != schema_.columns().size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  RowId id = next_row_;
  size_t dir_size_before = slot_pages_.size();
  uint64_t live_before = live_rows_, bytes_before = bytes_;
  Status s = RunOp([&](PageRef* meta) {
    if (id / kSlotsPerPage >= slot_pages_.size()) {
      GB_RETURN_IF_ERROR(GrowLocked(meta));
    }
    GB_RETURN_IF_ERROR(WriteSlot(meta, id, row, /*live=*/true));
    next_row_ = id + 1;
    ++live_rows_;
    bytes_ += RowFootprint(row);
    WriteMetaLocked(meta);
    return Status::OK();
  });
  if (!s.ok()) {
    slot_pages_.resize(dir_size_before);
    next_row_ = id;
    live_rows_ = live_before;
    bytes_ = bytes_before;
    // The op was rolled back, or logged without the fsync that makes it
    // durable (commit-unknown): then its changes stand in the pages and
    // may replay after a crash, and the next insert must not reuse its id.
    // The pages tell which; keep the restored fields if they can't be read.
    (void)LoadMeta(meta_page_);
    return s;
  }
  return id;
}

Status PagedTable::Get(RowId id, Row* row) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  if (id >= next_row_) return Status::NotFound("row id out of range");
  bool live = false;
  GB_RETURN_IF_ERROR(ReadSlot(id, row, &live));
  if (!live) return Status::NotFound("row deleted");
  return Status::OK();
}

Status PagedTable::GetColumn(RowId id, size_t column, Value* out) const {
  if (column >= schema_.columns().size()) {
    return Status::InvalidArgument("column out of range");
  }
  Row row;
  GB_RETURN_IF_ERROR(Get(id, &row));
  *out = std::move(row[column]);
  return Status::OK();
}

Status PagedTable::Update(RowId id, const Row& row) {
  if (row.size() != schema_.columns().size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  if (id >= next_row_) return Status::NotFound("row id out of range");
  bool live = false;
  Row old;
  GB_RETURN_IF_ERROR(ReadSlot(id, &old, &live));
  if (!live) return Status::NotFound("row deleted");
  uint64_t bytes_before = bytes_;
  Status s = RunOp([&](PageRef* meta) {
    GB_RETURN_IF_ERROR(WriteSlot(meta, id, row, /*live=*/true));
    bytes_ += RowFootprint(row);
    bytes_ -= std::min(bytes_, RowFootprint(old));
    WriteMetaLocked(meta);
    return Status::OK();
  });
  if (!s.ok()) {
    bytes_ = bytes_before;
    (void)LoadMeta(meta_page_);  // as in Insert
  }
  return s;
}

Status PagedTable::Delete(RowId id) {
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  if (id >= next_row_) return Status::NotFound("row id out of range");
  bool live = false;
  Row old;
  GB_RETURN_IF_ERROR(ReadSlot(id, &old, &live));
  if (!live) return Status::NotFound("row deleted");
  uint64_t live_before = live_rows_, bytes_before = bytes_;
  Status s = RunOp([&](PageRef* meta) {
    GB_RETURN_IF_ERROR(WriteSlot(meta, id, Row{}, /*live=*/false));
    --live_rows_;
    bytes_ -= std::min(bytes_, RowFootprint(old));
    WriteMetaLocked(meta);
    return Status::OK();
  });
  if (!s.ok()) {
    live_rows_ = live_before;
    bytes_ = bytes_before;
    (void)LoadMeta(meta_page_);  // as in Insert
  }
  return s;
}

uint64_t PagedTable::row_count() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return live_rows_;
}

uint64_t PagedTable::ApproximateSizeBytes() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return bytes_;
}

/// Snapshot scan (mirrors the paged B+-tree iterator): rows are
/// materialized under the shared latch so the scan never sees a
/// half-committed mutation.
class PagedTable::Iter : public TableScanIterator {
 public:
  explicit Iter(std::vector<std::pair<RowId, Row>> rows)
      : rows_(std::move(rows)) {}

  bool Valid() const override { return pos_ < rows_.size(); }
  void Next() override { ++pos_; }
  RowId row_id() const override { return rows_[pos_].first; }
  void GetRow(Row* row) const override { *row = rows_[pos_].second; }

 private:
  std::vector<std::pair<RowId, Row>> rows_;
  size_t pos_ = 0;
};

std::unique_ptr<TableScanIterator> PagedTable::NewScanIterator() const {
  std::vector<std::pair<RowId, Row>> rows;
  {
    std::shared_lock<obs::TimedSharedMutex> lock(mu_);
    rows.reserve(live_rows_);
    for (RowId id = 0; id < next_row_; ++id) {
      Row row;
      bool live = false;
      if (!ReadSlot(id, &row, &live).ok() || !live) continue;
      rows.emplace_back(id, std::move(row));
    }
  }
  return std::make_unique<Iter>(std::move(rows));
}

}  // namespace graphbench
