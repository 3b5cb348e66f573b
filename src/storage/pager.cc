#include "storage/pager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "storage/page_codec.h"

namespace graphbench {
namespace storage {

namespace {

constexpr char kDbMagic[8] = {'G', 'B', 'P', 'A', 'G', 'E', '1', 0};
constexpr uint32_t kDbVersion = 1;
// Two header slots inside page 0, written alternately so a torn header
// write can never destroy the last good copy.
constexpr uint64_t kHeaderSlotBytes = 44;
constexpr uint64_t kHeaderSlotOffsets[2] = {0, 2048};

// WAL record types owned by the pager.
constexpr uint8_t kOpRecord = 1;

// Sub-record tags inside an op record's body.
constexpr uint8_t kSubImage = 1;  // [page_id u64][kPageDataSize bytes]
constexpr uint8_t kSubDelta = 2;  // [page_id u64][off u16][len u16][bytes]
constexpr uint8_t kSubZero = 3;   // [page_id u64]: the data area is zeros
// Bytes a sub-record spends before its payload. Changed runs separated by
// fewer unchanged bytes than this are logged as one delta: the gap costs
// less than a second header.
constexpr size_t kSubDeltaHeader = 1 + 8 + 2 + 2;
constexpr size_t kSubImageBytes = 1 + 8 + kPageDataSize;
// Declared ranges closer than this are merged. Changed bytes in two ranges
// are then more than kSubDeltaHeader apart, which a whole-page diff never
// joins into one run either, so diffing range by range logs the same runs.
constexpr size_t kRangeGap = (kSubDeltaHeader + 7) & ~size_t(7);

struct HeaderSlot {
  uint64_t generation = 0;
  uint64_t checkpoint_lsn = 0;
  uint64_t page_count = 0;
};

std::string SerializeHeaderSlot(const HeaderSlot& slot) {
  std::string out(kDbMagic, sizeof(kDbMagic));
  PutU32(&out, kDbVersion);
  PutU32(&out, 0);  // reserved
  PutU64(&out, slot.generation);
  PutU64(&out, slot.checkpoint_lsn);
  PutU64(&out, slot.page_count);
  PutU32(&out, Crc32(out, 0));
  return out;
}

bool ParseHeaderSlot(std::string_view buf, HeaderSlot* slot) {
  if (buf.size() < kHeaderSlotBytes) return false;
  if (std::memcmp(buf.data(), kDbMagic, sizeof(kDbMagic)) != 0) return false;
  if (GetU32(buf.data() + 8) != kDbVersion) return false;
  if (Crc32(buf.substr(0, 40), 0) != GetU32(buf.data() + 40)) return false;
  slot->generation = GetU64(buf.data() + 16);
  slot->checkpoint_lsn = GetU64(buf.data() + 24);
  slot->page_count = GetU64(buf.data() + 32);
  return true;
}

uint32_t PageCrc(const char* data_area, uint64_t page_lsn) {
  return Crc32(std::string_view(data_area, kPageDataSize),
               uint32_t(page_lsn) ^ uint32_t(page_lsn >> 32));
}

bool AllZero(std::string_view buf) {
  for (char c : buf) {
    if (c != 0) return false;
  }
  return true;
}

inline uint64_t LoadWord(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Appends one kSubDelta per maximal run in [lo, hi) where `now` differs
// from `was` (runs closer than a sub-record header merged), skipping equal
// bytes a word at a time. `lo` and `hi` are word-aligned. Returns false
// when the range is unchanged.
bool AppendDeltas(uint64_t page_id, const char* now, const char* was,
                  size_t lo, size_t hi, std::string* body) {
  static_assert(kPageDataSize % 8 == 0, "word-wise diff needs whole words");
  bool changed = false;
  size_t i = lo;
  for (;;) {
    while (i < hi && LoadWord(now + i) == LoadWord(was + i)) i += 8;
    if (i == hi) return changed;
    while (now[i] == was[i]) ++i;  // the word differs, so this stops in it
    size_t start = i;
    size_t end = i + 1;  // one past the last changed byte of the run
    for (size_t j = end; j < hi && j - end < kSubDeltaHeader; ++j) {
      if (now[j] != was[j]) end = j + 1;
    }
    body->push_back(char(kSubDelta));
    PutU64(body, page_id);
    PutU16(body, uint16_t(start));
    PutU16(body, uint16_t(end - start));
    body->append(now + start, end - start);
    changed = true;
    // The run ended because the kSubDeltaHeader bytes after it are equal:
    // resume at the word holding the first byte past them.
    i = std::min(hi, (end + kSubDeltaHeader) & ~size_t(7));
  }
}

}  // namespace

uint64_t Pager::SaltForGeneration(uint64_t generation) {
  // Deterministic per-generation salt (SQLite-style): stale records left
  // behind by a WAL reset that never hit the platter carry the old
  // generation's CRC seed and fail validation on replay.
  uint64_t salt = generation * 0x9E3779B97F4A7C15ull;
  salt ^= salt >> 32;
  salt ^= 0xD1B54A32D192ED03ull;
  return salt != 0 ? salt : 1;
}

void Pager::SealPage(Frame* frame, std::string* out) {
  out->assign(frame->data, kPageSize);
  StoreU64(out->data(), frame->page_lsn);
  StoreU32(out->data() + 8,
           PageCrc(frame->data + kPageHeaderBytes, frame->page_lsn));
  StoreU32(out->data() + 12, 0);
}

Pager::Pager(FileSystem* fs, std::unique_ptr<File> db,
             const PagerOptions& opts)
    : fs_(fs), db_(std::move(db)), options_(opts) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  evictions_ = reg.GetCounter("pager.evictions");
  flushes_ = reg.GetCounter("pager.flushes");
  checkpoints_ = reg.GetCounter("pager.checkpoints");
  ops_ = reg.GetCounter("pager.ops");
  cached_pages_ = reg.GetGauge("pager.cached_pages");
}

Pager::~Pager() = default;

Result<std::unique_ptr<Pager>> Pager::Open(FileSystem* fs,
                                           const std::string& db_path,
                                           const std::string& wal_path,
                                           const PagerOptions& options) {
  GB_ASSIGN_OR_RETURN(std::unique_ptr<File> db, fs->Open(db_path));
  GB_ASSIGN_OR_RETURN(uint64_t size, db->Size());
  std::unique_ptr<Pager> pager(new Pager(fs, std::move(db), options));
  std::lock_guard<std::mutex> lock(pager->mu_);
  if (size == 0) {
    // Fresh database: publish generation 1, then start its log.
    GB_RETURN_IF_ERROR(pager->WriteHeaderLocked());
    GB_RETURN_IF_ERROR(pager->db_->Sync());
    GB_ASSIGN_OR_RETURN(
        pager->wal_, Wal::Create(fs, wal_path, SaltForGeneration(1)));
    return pager;
  }

  std::string page0;
  GB_RETURN_IF_ERROR(pager->db_->ReadAt(0, kPageSize, &page0));
  page0.resize(kPageSize, '\0');
  HeaderSlot slots[2];
  bool valid[2];
  for (int i = 0; i < 2; ++i) {
    valid[i] = ParseHeaderSlot(
        std::string_view(page0).substr(kHeaderSlotOffsets[i]), &slots[i]);
  }
  int chosen = -1;
  for (int i = 0; i < 2; ++i) {
    if (valid[i] &&
        (chosen < 0 || slots[i].generation > slots[chosen].generation)) {
      chosen = i;
    }
  }
  if (chosen < 0) {
    return Status::Corruption("pager: no valid header slot in " + db_path);
  }
  pager->generation_ = slots[chosen].generation;
  pager->checkpoint_lsn_ = slots[chosen].checkpoint_lsn;
  pager->page_count_ = std::max<uint64_t>(slots[chosen].page_count, 1);
  // Next header write goes to the slot NOT holding the chosen copy.
  pager->header_slot_b_next_ = (chosen == 0);
  GB_RETURN_IF_ERROR(pager->RecoverLocked(wal_path));
  return pager;
}

Status Pager::RecoverLocked(const std::string& wal_path) {
  auto started = std::chrono::steady_clock::now();
  WalScanResult scan;
  GB_ASSIGN_OR_RETURN(
      wal_, Wal::Open(fs_, wal_path, SaltForGeneration(generation_), &scan));
  for (const WalRecord& record : scan.records) {
    if (record.type != kOpRecord) continue;
    std::string_view cursor(record.body);
    while (!cursor.empty()) {
      uint8_t tag;
      uint64_t page_id;
      if (!ReadU8(&cursor, &tag) || !ReadU64(&cursor, &page_id)) {
        return Status::Corruption("pager: malformed op sub-record");
      }
      if (page_id == 0) {
        return Status::Corruption("pager: op record touches header page");
      }
      page_count_ = std::max(page_count_, page_id + 1);
      GB_ASSIGN_OR_RETURN(Frame * frame,
                          FetchLocked(page_id, /*for_recovery=*/true));
      if (tag == kSubImage || tag == kSubZero) {
        // Full-page images and zero-page records apply unconditionally:
        // they are the repair path for pages torn by an interrupted flush.
        char* area = frame->data + kPageHeaderBytes;
        if (tag == kSubZero) {
          std::memset(area, 0, kPageDataSize);
        } else {
          std::string_view image;
          if (!ReadBytes(&cursor, kPageDataSize, &image)) {
            return Status::Corruption("pager: truncated page image");
          }
          std::memcpy(area, image.data(), kPageDataSize);
        }
        frame->page_lsn = record.lsn;
        frame->dirty = true;
        frame->image_logged = true;
      } else if (tag == kSubDelta) {
        uint16_t off, len;
        std::string_view bytes;
        if (!ReadU16(&cursor, &off) || !ReadU16(&cursor, &len) ||
            off + size_t(len) > kPageDataSize ||
            !ReadBytes(&cursor, len, &bytes)) {
          return Status::Corruption("pager: truncated page delta");
        }
        // LSN-gated so redo is idempotent against pages that were
        // flushed (and stamped) before the crash. The gate admits the
        // record's own LSN: one record may carry several deltas for a
        // page, and the first one stamps it. Reapplying a record to a
        // page flushed right after it rewrites the same bytes.
        if (record.lsn >= frame->page_lsn) {
          std::memcpy(frame->data + kPageHeaderBytes + off, bytes.data(),
                      len);
          frame->page_lsn = record.lsn;
          frame->dirty = true;
          frame->image_logged = true;
        }
      } else {
        return Status::Corruption("pager: unknown op sub-record tag");
      }
    }
    ++recovered_records_;
  }
  wal_->AdvanceLsn(std::max(checkpoint_lsn_, scan.last_lsn) + 1);
  recovery_micros_ = uint64_t(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("wal.recovered_records")->Increment(recovered_records_);
  reg.GetCounter("wal.truncated_bytes")->Increment(scan.truncated_bytes);
  reg.GetGauge("pager.recovery_ms")->Set(int64_t(recovery_micros_ / 1000));
  return Status::OK();
}

Result<Pager::Frame*> Pager::FetchLocked(uint64_t page_id,
                                         bool for_recovery) {
  if (page_id == 0) {
    return Status::InvalidArgument("pager: page 0 is the header page");
  }
  if (!for_recovery && page_id >= page_count_) {
    return Status::InvalidArgument("pager: page id out of range");
  }
  auto it = frames_.find(page_id);
  if (it != frames_.end()) return it->second.get();

  GB_RETURN_IF_ERROR(EvictIfNeededLocked());
  auto frame = std::make_unique<Frame>();
  frame->page_id = page_id;
  std::memset(frame->data, 0, kPageSize);

  std::string buf;
  GB_RETURN_IF_ERROR(db_->ReadAt(page_id * kPageSize, kPageSize, &buf));
  if (buf.size() == kPageSize) {
    uint64_t page_lsn = GetU64(buf.data());
    uint32_t stored_crc = GetU32(buf.data() + 8);
    bool ok;
    if (page_lsn == 0 && stored_crc == 0) {
      // Never-sealed page: valid only when actually all zeros.
      ok = AllZero(buf);
    } else {
      ok = PageCrc(buf.data() + kPageHeaderBytes, page_lsn) == stored_crc;
    }
    if (ok) {
      std::memcpy(frame->data, buf.data(), kPageSize);
      frame->page_lsn = page_lsn;
    } else if (!for_recovery) {
      return Status::Corruption("pager: checksum mismatch on page " +
                                std::to_string(page_id));
    }
    // During recovery a torn page stays zeroed; the WAL's full-page
    // image or zero-page record for it (every page's first record in a
    // generation is one of the two) repairs it.
  }
  // Short read: page allocated but never flushed — virgin zeros.

  Frame* raw = frame.get();
  frames_.emplace(page_id, std::move(frame));
  cached_pages_->Set(int64_t(frames_.size()));
  return raw;
}

Status Pager::FlushFrameLocked(Frame* frame) {
  // WAL rule: the log covering this page's last mutation must be durable
  // before the page itself is written in place.
  GB_RETURN_IF_ERROR(wal_->SyncTo(frame->page_lsn));
  std::string sealed;
  SealPage(frame, &sealed);
  GB_RETURN_IF_ERROR(db_->WriteAt(frame->page_id * kPageSize, sealed));
  frame->dirty = false;
  flushes_->Increment();
  return Status::OK();
}

Status Pager::EvictIfNeededLocked() {
  while (frames_.size() >= options_.cache_pages && !lru_.empty()) {
    uint64_t victim_id = lru_.back();
    auto it = frames_.find(victim_id);
    Frame* victim = it->second.get();
    if (victim->dirty) GB_RETURN_IF_ERROR(FlushFrameLocked(victim));
    lru_.pop_back();
    frames_.erase(it);
    evictions_->Increment();
  }
  cached_pages_->Set(int64_t(frames_.size()));
  return Status::OK();
}

Status Pager::WriteHeaderLocked() {
  HeaderSlot slot;
  slot.generation = generation_;
  slot.checkpoint_lsn = checkpoint_lsn_;
  slot.page_count = page_count_;
  uint64_t offset = kHeaderSlotOffsets[header_slot_b_next_ ? 1 : 0];
  GB_RETURN_IF_ERROR(db_->WriteAt(offset, SerializeHeaderSlot(slot)));
  header_slot_b_next_ = !header_slot_b_next_;
  return Status::OK();
}

void Pager::PinLocked(Frame* frame) {
  ++frame->pins;
  if (frame->in_lru) {
    lru_.erase(frame->lru_pos);
    frame->in_lru = false;
  }
}

void Pager::UnpinLocked(Frame* frame) {
  --frame->pins;
  if (frame->pins == 0 && !frame->in_lru) {
    lru_.push_front(frame->page_id);
    frame->lru_pos = lru_.begin();
    frame->in_lru = true;
  }
}

void Pager::Unpin(void* frame) {
  std::lock_guard<std::mutex> lock(mu_);
  UnpinLocked(static_cast<Frame*>(frame));
}

Result<PageRef> Pager::Fetch(uint64_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  GB_ASSIGN_OR_RETURN(Frame * frame,
                      FetchLocked(page_id, /*for_recovery=*/false));
  PinLocked(frame);
  return PageRef(this, frame, page_id);
}

Result<PageRef> Pager::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  GB_RETURN_IF_ERROR(EvictIfNeededLocked());
  uint64_t page_id = page_count_++;
  auto frame = std::make_unique<Frame>();
  frame->page_id = page_id;
  std::memset(frame->data, 0, kPageSize);
  frame->born = true;
  Frame* raw = frame.get();
  frames_.emplace(page_id, std::move(frame));
  cached_pages_->Set(int64_t(frames_.size()));
  PinLocked(raw);
  return PageRef(this, raw, page_id);
}

uint64_t Pager::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

void Pager::BeginOp() {
  op_mu_.lock();
  in_op_ = true;
}

void Pager::MarkDirtyFrame(void* frame_ptr, size_t offset, size_t len) {
  Frame* frame = static_cast<Frame*>(frame_ptr);
  if (!in_op_) return;
  if (!frame->touched_in_op) {
    frame->pre_image_slot = op_frames_.size();
    size_t need = (frame->pre_image_slot + 1) * kPageDataSize;
    if (pre_images_.size() < need) pre_images_.resize(need);
    frame->range_count = 0;
    frame->touched_in_op = true;
    op_frames_.push_back(frame);
    // Op pin: the frame must survive (unevicted) until Commit/AbortOp even
    // if the caller drops its PageRef early.
    std::lock_guard<std::mutex> lock(mu_);
    PinLocked(frame);
  }
  size_t hi = std::min(kPageDataSize, offset + len);
  if (offset < hi) {
    DeclareRange(frame, offset & ~size_t(7), (hi + 7) & ~size_t(7));
  }
}

void Pager::DeclareRange(Frame* frame, size_t lo, size_t hi) {
  Range* ranges = frame->ranges;
  size_t count = frame->range_count;
  for (size_t i = 0; i < count; ++i) {
    if (ranges[i].lo <= lo && hi <= ranges[i].hi) return;  // covered
  }
  const char* now = frame->data + kPageHeaderBytes;
  char* pre = PreImage(frame);
  auto snapshot = [&](size_t from, size_t to) {
    std::memcpy(pre + from, now + from, to - from);
  };
  // Snapshot the bytes of [lo, hi) that no earlier range covers: those
  // the op has already changed keep their first snapshot.
  size_t at = lo;
  for (size_t i = 0; i < count && at < hi; ++i) {
    if (ranges[i].hi <= at) continue;
    if (ranges[i].lo >= hi) break;
    if (ranges[i].lo > at) snapshot(at, ranges[i].lo);
    at = std::max<size_t>(at, ranges[i].hi);
  }
  if (at < hi) snapshot(at, hi);

  // Merge the new range in by start, joining ranges that overlap or lie
  // closer than kRangeGap; a gap joined that way is snapshotted too.
  Range merged[kMaxRanges + 1];
  size_t n = 0;
  auto add = [&](Range next) {
    if (n > 0 && next.lo < merged[n - 1].hi + kRangeGap) {
      if (next.lo > merged[n - 1].hi) snapshot(merged[n - 1].hi, next.lo);
      merged[n - 1].hi = std::max(merged[n - 1].hi, next.hi);
    } else {
      merged[n++] = next;
    }
  };
  Range added{uint16_t(lo), uint16_t(hi)};
  bool placed = false;
  for (size_t i = 0; i < count; ++i) {
    if (!placed && added.lo < ranges[i].lo) {
      add(added);
      placed = true;
    }
    add(ranges[i]);
  }
  if (!placed) add(added);
  if (n > kMaxRanges) {
    // Out of room: join the two ranges with the smallest gap between.
    size_t best = 0;
    for (size_t i = 1; i + 1 < n; ++i) {
      if (merged[i + 1].lo - merged[i].hi <
          merged[best + 1].lo - merged[best].hi) {
        best = i;
      }
    }
    snapshot(merged[best].hi, merged[best + 1].lo);
    merged[best].hi = merged[best + 1].hi;
    std::copy(merged + best + 2, merged + n, merged + best + 1);
    --n;
  }
  std::copy(merged, merged + n, ranges);
  frame->range_count = uint8_t(n);
}

Status Pager::CommitOp() {
  if (degraded_) {
    AbortOp();
    return Status::Internal(
        "pager: degraded after failed checkpoint; commits refused");
  }
  // Id order keeps the record's bytes independent of touch order.
  std::sort(op_frames_.begin(), op_frames_.end(),
            [](const Frame* a, const Frame* b) {
              return a->page_id < b->page_id;
            });
  std::string& body = commit_body_;
  body.clear();
  op_changed_.clear();
  for (Frame* frame : op_frames_) {
    const char* now = frame->data + kPageHeaderBytes;
    const char* was = PreImage(frame);
    const Range* ranges = frame->ranges;
    const Range* ranges_end = ranges + frame->range_count;
    size_t mark = body.size();
    if (frame->image_logged || frame->born) {
      if (frame->born) {
        // Born this generation and never logged: the page was zeros before
        // this op (bytes outside the declared ranges still are), so the
        // runs against the pre-image rebuild it from a zeroed page.
        body.push_back(char(kSubZero));
        PutU64(&body, frame->page_id);
      }
      bool changed = false;
      for (const Range* r = ranges; r != ranges_end; ++r) {
        changed |=
            AppendDeltas(frame->page_id, now, was, r->lo, r->hi, &body);
      }
      if (!changed) {  // touched but unchanged: nothing to log
        body.resize(mark);
        continue;
      }
      if (body.size() - mark <= kSubImageBytes) {
        op_changed_.push_back(frame);
        continue;
      }
      body.resize(mark);  // the runs cost more than the page: log it whole
    } else if (std::none_of(ranges, ranges_end, [&](const Range& r) {
                 return std::memcmp(now + r.lo, was + r.lo, r.hi - r.lo) != 0;
               })) {
      continue;
    }
    // First touch this WAL generation of a page older than it (or a
    // rewrite bigger than the page): log the full image so a flush torn
    // mid-page is repairable on replay.
    body.push_back(char(kSubImage));
    PutU64(&body, frame->page_id);
    body.append(now, kPageDataSize);
    op_changed_.push_back(frame);
  }

  if (body.empty()) {
    // Nothing new to log, but the durability contract still applies: the
    // bytes this op "wrote" may have been put there by an earlier
    // commit-unknown op whose record is still unsynced, and acking now
    // without an fsync would report data durable that is not. Sync
    // short-circuits when the log is already covered, so the common case
    // stays fsync-free.
    Status sync_status =
        options_.fsync_on_commit ? wal_->Sync() : Status::OK();
    {
      std::lock_guard<std::mutex> lock(mu_);
      EndOpLocked(/*restore=*/false);
    }
    op_mu_.unlock();
    ops_->Increment();
    return sync_status;
  }

  Result<uint64_t> lsn = wal_->Append(kOpRecord, body);
  if (!lsn.ok()) {
    // The record is not in the log's valid prefix (a short write may
    // have persisted a partial frame, but the next append overwrites it
    // and the scanner rejects it as a torn tail meanwhile): roll back in
    // memory so no un-logged mutation can ever be flushed without WAL
    // coverage.
    AbortOp();
    return lsn.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Frame* frame : op_changed_) {
      frame->page_lsn = *lsn;
      frame->dirty = true;
      frame->image_logged = true;  // logged now, or already this generation
      frame->born = false;
    }
  }
  Status sync_status = Status::OK();
  if (options_.fsync_on_commit) {
    // On failure the record is appended but not durable: commit-unknown.
    // In-memory state stands (it is WAL-covered); the caller must report
    // the op failed.
    sync_status = wal_->Sync();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    EndOpLocked(/*restore=*/false);
  }
  // Counted (and the checkpoint decision made) while op_mu_ is still
  // held: concurrent committers would otherwise race on the counter.
  bool checkpoint_due =
      options_.checkpoint_interval_ops > 0 &&
      ++ops_since_checkpoint_ >= options_.checkpoint_interval_ops;
  op_mu_.unlock();
  ops_->Increment();
  GB_RETURN_IF_ERROR(sync_status);

  if (checkpoint_due) return Checkpoint();
  return Status::OK();
}

void Pager::EndOpLocked(bool restore) {
  for (Frame* frame : op_frames_) {
    if (restore) {
      char* now = frame->data + kPageHeaderBytes;
      const char* was = PreImage(frame);
      for (size_t i = 0; i < frame->range_count; ++i) {
        const Range& r = frame->ranges[i];
        std::memcpy(now + r.lo, was + r.lo, r.hi - r.lo);
      }
    }
    frame->touched_in_op = false;
    UnpinLocked(frame);
  }
  op_frames_.clear();
  in_op_ = false;
}

void Pager::AbortOp() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    EndOpLocked(/*restore=*/true);
  }
  op_mu_.unlock();
}

Status Pager::Checkpoint() {
  // op_mu_ first (the global lock order): no op may be mid-flight, or a
  // flush could write uncommitted — hence un-logged — bytes in place.
  std::lock_guard<std::mutex> op_lock(op_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  if (degraded_) {
    return Status::Internal(
        "pager: degraded after failed checkpoint; checkpoint refused");
  }
  GB_RETURN_IF_ERROR(wal_->Sync());
  for (auto& [page_id, frame] : frames_) {
    if (frame->dirty) GB_RETURN_IF_ERROR(FlushFrameLocked(frame.get()));
  }
  GB_RETURN_IF_ERROR(db_->Sync());
  checkpoint_lsn_ = wal_->next_lsn() - 1;
  ++generation_;
  // From the first header-write byte onward, a failure leaves the
  // published generation ambiguous: the new-generation header may reach
  // the platter even though the call errored, in which case recovery
  // rejects the still-active old-salt WAL and every commit appended to
  // it after this point would be silently dropped. Refuse further
  // commits on ANY failure at or past the header write — not just a
  // failed WAL reset.
  Status publish = WriteHeaderLocked();
  if (publish.ok()) publish = db_->Sync();
  if (!publish.ok()) {
    degraded_ = true;
    return publish;
  }
  // Header published: from here the old log is dead. If the reset fails
  // we must refuse further commits — their records would land in a log
  // the published generation cannot replay.
  Status reset = wal_->ResetForCheckpoint(SaltForGeneration(generation_));
  if (!reset.ok()) {
    degraded_ = true;
    return reset;
  }
  for (auto& [page_id, frame] : frames_) {
    frame->image_logged = false;
    frame->born = false;
  }
  ops_since_checkpoint_ = 0;
  ++checkpoints_taken_;
  checkpoints_->Increment();
  return Status::OK();
}

// --- PageRef --------------------------------------------------------------

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    if (pager_ != nullptr) pager_->Unpin(frame_);
    pager_ = other.pager_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pager_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() {
  if (pager_ != nullptr) pager_->Unpin(frame_);
}

char* PageRef::data() {
  return static_cast<Pager::Frame*>(frame_)->data + kPageHeaderBytes;
}

const char* PageRef::data() const {
  return static_cast<Pager::Frame*>(frame_)->data + kPageHeaderBytes;
}

void PageRef::MarkDirty(size_t offset, size_t len) {
  pager_->MarkDirtyFrame(frame_, offset, len);
}

// --- Overflow chains ------------------------------------------------------

namespace {
constexpr size_t kOverflowPayload = kPageDataSize - 8;
}  // namespace

Result<uint64_t> WriteOverflowChain(Pager* pager, std::string_view data) {
  size_t pages = std::max<size_t>(1, (data.size() + kOverflowPayload - 1) /
                                         kOverflowPayload);
  std::vector<PageRef> refs;
  refs.reserve(pages);
  for (size_t i = 0; i < pages; ++i) {
    GB_ASSIGN_OR_RETURN(PageRef ref, pager->Allocate());
    refs.push_back(std::move(ref));
  }
  for (size_t i = 0; i < pages; ++i) {
    refs[i].MarkDirty();
    uint64_t next = (i + 1 < pages) ? refs[i + 1].page_id() : 0;
    StoreU64(refs[i].data(), next);
    size_t off = i * kOverflowPayload;
    size_t len = std::min(kOverflowPayload, data.size() - off);
    if (len > 0) std::memcpy(refs[i].data() + 8, data.data() + off, len);
  }
  return refs[0].page_id();
}

Result<std::string> ReadOverflowChain(Pager* pager, uint64_t first_page,
                                      uint64_t total_len) {
  std::string out;
  out.reserve(total_len);
  uint64_t page_id = first_page;
  while (out.size() < total_len) {
    if (page_id == 0) {
      return Status::Corruption("pager: overflow chain ended early");
    }
    GB_ASSIGN_OR_RETURN(PageRef ref, pager->Fetch(page_id));
    size_t len =
        std::min<uint64_t>(kOverflowPayload, total_len - out.size());
    out.append(ref.data() + 8, len);
    page_id = GetU64(ref.data());
  }
  return out;
}

}  // namespace storage
}  // namespace graphbench
