#include "storage/os_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace graphbench {
namespace storage {

namespace {

// Slice-by-8 tables for CRC-32C (Castagnoli, reflected): t[0] is the
// classic bytewise table, and t[k][b] is b's CRC advanced through k more
// zero bytes, so eight lookups consume eight input bytes.
struct CrcTables {
  uint32_t t[8][256];
  CrcTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const CrcTables& Tables() {
  static const CrcTables tables;
  return tables;
}

// Little-endian 32-bit load, independent of the host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t init) {
  const auto& t = Tables().t;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = init ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = LoadLe32(p) ^ crc;
    uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

// --- Posix ----------------------------------------------------------------

namespace {

class PosixFile : public File {
 public:
  PosixFile(int fd, uint64_t size) : fd_(fd), size_(size) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override {
    out->clear();
    out->resize(n);
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, out->data() + done, n - done,
                          off_t(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("pread: ") +
                                std::strerror(errno));
      }
      if (r == 0) break;  // EOF
      done += size_t(r);
    }
    out->resize(done);
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, std::string_view data) override {
    size_t done = 0;
    while (done < data.size()) {
      ssize_t w = ::pwrite(fd_, data.data() + done, data.size() - done,
                           off_t(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("pwrite: ") +
                                std::strerror(errno));
      }
      done += size_t(w);
    }
    size_ = std::max(size_, offset + data.size());
    return Status::OK();
  }

  Status Append(std::string_view data) override {
    return WriteAt(size_, data);
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::Internal(std::string("fsync: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, off_t(size)) != 0) {
      return Status::Internal(std::string("ftruncate: ") +
                              std::strerror(errno));
    }
    size_ = size;
    return Status::OK();
  }

  Result<uint64_t> Size() const override { return size_; }

 private:
  int fd_;
  uint64_t size_;
};

}  // namespace

PosixFileSystem* PosixFileSystem::Default() {
  static PosixFileSystem fs;
  return &fs;
}

Result<std::unique_ptr<File>> PosixFileSystem::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<File>(new PosixFile(fd, uint64_t(st.st_size)));
}

bool PosixFileSystem::Exists(const std::string& path) const {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status PosixFileSystem::Remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal("unlink " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status PosixFileSystem::CreateDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("mkdir " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

// --- In-memory with crash semantics ---------------------------------------

namespace {

// Applies one write to a flat image, zero-filling any hole.
void ApplyWrite(std::string* image, uint64_t offset, std::string_view data) {
  if (image->size() < offset + data.size()) {
    image->resize(offset + data.size(), '\0');
  }
  std::memcpy(image->data() + offset, data.data(), data.size());
}

}  // namespace

void MemFileSystem::FileState::ApplyPending(std::string* image,
                                            const PendingWrite& w) {
  if (w.data.empty()) {
    image->resize(w.offset, '\0');  // pending truncate
  } else {
    ApplyWrite(image, w.offset, w.data);
  }
}

void MemFileSystem::FileState::AddPending(uint64_t offset,
                                          std::string_view data) {
  size_t index = pending.size();
  pending.push_back({offset, std::string(data)});
  if (data.empty()) {
    truncates.push_back(index);
    return;
  }
  uint64_t end = offset + data.size();
  for (uint64_t b = offset / kBlockBytes; b <= (end - 1) / kBlockBytes; ++b) {
    std::vector<size_t>& writes = block_writes[b];
    if (offset <= b * kBlockBytes && (b + 1) * kBlockBytes <= end) {
      writes.clear();  // covers the block: the earlier writes are hidden
    }
    writes.push_back(index);
  }
}

void MemFileSystem::FileState::ClearPending() {
  pending.clear();
  block_writes.clear();
  truncates.clear();
}

std::string MemFileSystem::FileState::Materialize() const {
  std::string image = durable;
  for (const PendingWrite& w : pending) ApplyPending(&image, w);
  return image;
}

class MemFile : public File {
 public:
  MemFile(std::mutex* mu, std::shared_ptr<void> state)
      : mu_(mu), state_holder_(std::move(state)) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override;
  Status WriteAt(uint64_t offset, std::string_view data) override;
  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;
  Result<uint64_t> Size() const override;

 private:
  using FileState = MemFileSystem::FileState;
  FileState* state() const {
    return static_cast<FileState*>(state_holder_.get());
  }
  std::mutex* mu_;
  std::shared_ptr<void> state_holder_;
};

Status MemFile::ReadAt(uint64_t offset, size_t n, std::string* out) const {
  std::lock_guard<std::mutex> lock(*mu_);
  const FileState* s = state();
  out->clear();
  if (offset >= s->logical_size) return Status::OK();
  uint64_t end = std::min<uint64_t>(offset + n, s->logical_size);
  // Builds only [offset, end): the durable slice, then every pending write
  // and truncate in issue order, clipped to the range. Bytes past the size
  // at any step stay zero, which is what a later hole-extending write
  // leaves there in the flat image.
  out->assign(size_t(end - offset), '\0');
  if (offset < s->durable.size()) {
    size_t have = size_t(std::min<uint64_t>(end, s->durable.size()) - offset);
    std::memcpy(out->data(), s->durable.data() + offset, have);
  }
  // Only the pending writes that touch the range (plus every truncate),
  // in issue order.
  std::vector<size_t> order = s->truncates;
  for (uint64_t b = offset / FileState::kBlockBytes;
       b <= (end - 1) / FileState::kBlockBytes; ++b) {
    auto it = s->block_writes.find(b);
    if (it != s->block_writes.end()) {
      order.insert(order.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  for (size_t index : order) {
    const MemFileSystem::PendingWrite& w = s->pending[index];
    if (w.data.empty()) {  // truncate: everything at or past it reads zero
      if (w.offset < end) {
        uint64_t from = std::max(w.offset, offset);
        std::memset(out->data() + (from - offset), 0, size_t(end - from));
      }
      continue;
    }
    uint64_t from = std::max(w.offset, offset);
    uint64_t to = std::min<uint64_t>(w.offset + w.data.size(), end);
    if (from < to) {
      std::memcpy(out->data() + (from - offset),
                  w.data.data() + (from - w.offset), size_t(to - from));
    }
  }
  return Status::OK();
}

Status MemFile::WriteAt(uint64_t offset, std::string_view data) {
  if (data.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(*mu_);
  FileState* s = state();
  s->AddPending(offset, data);
  s->logical_size = std::max(s->logical_size, offset + data.size());
  return Status::OK();
}

Status MemFile::Append(std::string_view data) {
  if (data.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(*mu_);
  FileState* s = state();
  s->AddPending(s->logical_size, data);
  s->logical_size += data.size();
  return Status::OK();
}

Status MemFile::Sync() {
  std::lock_guard<std::mutex> lock(*mu_);
  FileState* s = state();
  for (const MemFileSystem::PendingWrite& w : s->pending) {
    FileState::ApplyPending(&s->durable, w);
  }
  s->ClearPending();
  return Status::OK();
}

Status MemFile::Truncate(uint64_t size) {
  std::lock_guard<std::mutex> lock(*mu_);
  FileState* s = state();
  // Represented as an empty-data pending write: Materialize and Crash both
  // treat it as "resize to offset".
  s->AddPending(size, std::string_view());
  s->logical_size = size;
  return Status::OK();
}

Result<uint64_t> MemFile::Size() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return state()->logical_size;
}

Result<std::unique_ptr<File>> MemFileSystem::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<FileState>& state = files_[path];
  if (state == nullptr) state = std::make_shared<FileState>();
  return std::unique_ptr<File>(new MemFile(&mu_, state));
}

bool MemFileSystem::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status MemFileSystem::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
  return Status::OK();
}

void MemFileSystem::Crash(Rng* rng) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [path, state] : files_) {
    std::string image = state->durable;
    for (const PendingWrite& w : state->pending) {
      if (w.data.empty()) {
        // Unsynced truncate: kept or lost wholesale.
        if (rng->Bernoulli(0.5)) image.resize(w.offset, '\0');
        continue;
      }
      switch (rng->Uniform(3)) {
        case 0:  // fully persisted
          ApplyWrite(&image, w.offset, w.data);
          break;
        case 1: {  // torn: a 512-byte-aligned prefix survives
          uint64_t sectors = (w.data.size() + kSectorBytes - 1) / kSectorBytes;
          uint64_t keep =
              std::min<uint64_t>(rng->Uniform(sectors + 1) * kSectorBytes,
                                 w.data.size());
          if (keep > 0) {
            ApplyWrite(&image, w.offset,
                       std::string_view(w.data).substr(0, keep));
          }
          break;
        }
        default:  // dropped entirely
          break;
      }
    }
    state->durable = std::move(image);
    state->ClearPending();
    state->logical_size = state->durable.size();
  }
}

std::string MemFileSystem::Materialize(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  return it == files_.end() ? std::string() : it->second->Materialize();
}

uint64_t MemFileSystem::PendingBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, state] : files_) {
    for (const PendingWrite& w : state->pending) total += w.data.size();
  }
  return total;
}

// --- Fault injection ------------------------------------------------------

Result<size_t> FaultFile::AdmitWrite(size_t len) {
  ++writes_;
  bytes_written_ += len;
  if (options_.fail_after_write_bytes >= 0 &&
      int64_t(bytes_written_) > options_.fail_after_write_bytes) {
    return Status::Internal("fault: write failed (disk full)");
  }
  if (options_.short_write_at >= 0 &&
      int64_t(writes_) == options_.short_write_at) {
    // Persist a sector-aligned strict prefix, then report the failure. A
    // write that is already sector-aligned still loses its last sector —
    // a "short write" that persists everything would not be a fault.
    size_t aligned = len / kSectorBytes * kSectorBytes;
    if (aligned >= len && aligned > 0) aligned -= kSectorBytes;
    return aligned;
  }
  return len;
}

Status FaultFile::ReadAt(uint64_t offset, size_t n, std::string* out) const {
  return base_->ReadAt(offset, n, out);
}

Status FaultFile::WriteAt(uint64_t offset, std::string_view data) {
  Result<size_t> admit = AdmitWrite(data.size());
  if (!admit.ok()) return admit.status();
  if (*admit < data.size()) {
    Status s = base_->WriteAt(offset, data.substr(0, *admit));
    if (!s.ok()) return s;
    return Status::Internal("fault: short write");
  }
  return base_->WriteAt(offset, data);
}

Status FaultFile::Append(std::string_view data) {
  Result<size_t> admit = AdmitWrite(data.size());
  if (!admit.ok()) return admit.status();
  if (*admit < data.size()) {
    Status s = base_->Append(data.substr(0, *admit));
    if (!s.ok()) return s;
    return Status::Internal("fault: short write");
  }
  return base_->Append(data);
}

Status FaultFile::Sync() {
  ++syncs_;
  if (options_.fail_after_fsyncs >= 0 &&
      int64_t(syncs_) >= options_.fail_after_fsyncs) {
    return Status::Internal("fault: fsync failed");
  }
  return base_->Sync();
}

Status FaultFile::Truncate(uint64_t size) { return base_->Truncate(size); }

Result<uint64_t> FaultFile::Size() const { return base_->Size(); }

Result<std::unique_ptr<File>> FaultFileSystem::Open(const std::string& path) {
  GB_ASSIGN_OR_RETURN(std::unique_ptr<File> base, base_->Open(path));
  if (!path_filter_.empty() &&
      path.find(path_filter_) == std::string::npos) {
    return base;
  }
  return std::unique_ptr<File>(
      new FaultFile(std::move(base), options_));
}

}  // namespace storage
}  // namespace graphbench
