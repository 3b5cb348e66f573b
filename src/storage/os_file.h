#ifndef GRAPHBENCH_STORAGE_OS_FILE_H_
#define GRAPHBENCH_STORAGE_OS_FILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace graphbench {
namespace storage {

/// CRC-32C (Castagnoli polynomial, software slice-by-8). `init` chains/
/// seeds the computation so callers can fold a per-generation salt into
/// checksums.
uint32_t Crc32(std::string_view data, uint32_t init = 0);

/// The disk sector size fault injection tears writes at: a crash may
/// persist any 512-byte-aligned prefix of an unsynced write, never a
/// partial sector.
inline constexpr uint64_t kSectorBytes = 512;

/// Abstract random-access file. The durable storage layer (pager + WAL)
/// talks only to this interface so tests can substitute in-memory files
/// with crash/fault semantics for the real thing.
///
/// Durability contract: WriteAt/Append affect the file contents
/// immediately for subsequent reads, but survive a crash only once Sync()
/// has returned OK (the fsync barrier). Implementations may lose or tear
/// unsynced writes at `kSectorBytes` granularity on a crash.
class File {
 public:
  virtual ~File() = default;

  /// Reads up to `n` bytes at `offset` into `*out` (replaced). Reading at
  /// or past EOF yields an empty/short result, not an error.
  virtual Status ReadAt(uint64_t offset, size_t n, std::string* out) const = 0;

  /// Writes `data` at `offset`, extending the file if needed (sparse holes
  /// read as zeros).
  virtual Status WriteAt(uint64_t offset, std::string_view data) = 0;

  /// Appends `data` at the current end of file.
  virtual Status Append(std::string_view data) = 0;

  /// Durability barrier: all previous writes survive a crash after this
  /// returns OK.
  virtual Status Sync() = 0;

  virtual Status Truncate(uint64_t size) = 0;

  virtual Result<uint64_t> Size() const = 0;
};

/// Abstract file namespace. Open() creates the file when absent.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual Result<std::unique_ptr<File>> Open(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) const = 0;
  virtual Status Remove(const std::string& path) = 0;

  /// Ensures `path` exists as a directory (one level; parents must exist).
  /// OK when it already does. In-memory namespaces have no directories and
  /// accept everything.
  virtual Status CreateDir(const std::string& path) {
    (void)path;
    return Status::OK();
  }
};

/// Real files via pread/pwrite/fsync. One process-wide instance.
class PosixFileSystem : public FileSystem {
 public:
  static PosixFileSystem* Default();

  Result<std::unique_ptr<File>> Open(const std::string& path) override;
  bool Exists(const std::string& path) const override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
};

/// In-memory file system with crash semantics, the substrate under every
/// durability test. File contents outlive the File handles (they belong to
/// the file system object), so a test can drop a store, "crash the
/// machine", and reopen against the surviving bytes.
///
/// Each file tracks its durable image (as of the last Sync) plus the
/// ordered list of unsynced writes. Crash() resolves the unsynced writes
/// the way a dying page cache would: each one is independently kept,
/// dropped, or torn at a `kSectorBytes` boundary, chosen by the rng — so
/// replay code sees holes, torn record tails, and partially-flushed pages.
class MemFileSystem : public FileSystem {
 public:
  MemFileSystem() = default;

  Result<std::unique_ptr<File>> Open(const std::string& path) override;
  bool Exists(const std::string& path) const override;
  Status Remove(const std::string& path) override;

  /// Simulates a machine crash: every file reverts to its durable image
  /// with each unsynced write applied fully, partially (512-byte-aligned
  /// prefix), or not at all. Open File handles remain usable and see the
  /// post-crash contents.
  void Crash(Rng* rng);

  /// Total unsynced write bytes across all files (observable for tests).
  uint64_t PendingBytes() const;

  /// The logical contents of `path` (durable image plus every pending
  /// write, applied in issue order), rebuilt in full: the reference
  /// the range-building MemFile reads are tested against.
  std::string Materialize(const std::string& path) const;

 private:
  friend class MemFile;
  struct PendingWrite {
    uint64_t offset;
    std::string data;
  };
  struct FileState {
    static constexpr uint64_t kBlockBytes = 4096;
    std::string durable;              // contents as of the last Sync
    std::vector<PendingWrite> pending;  // unsynced writes, in issue order
    uint64_t logical_size = 0;          // durable + pending view
    // Where the pending writes are, so a read visits only those that
    // overlap it: per kBlockBytes block, the indices into `pending` of
    // the writes touching it, in issue order, starting from the last one
    // that covered the whole block (earlier ones are hidden there); and
    // the indices of the pending truncates.
    std::unordered_map<uint64_t, std::vector<size_t>> block_writes;
    std::vector<size_t> truncates;
    // Renders durable+pending into a flat contents string.
    std::string Materialize() const;
    // Appends a write, or truncate (empty data), to `pending` and indexes it.
    void AddPending(uint64_t offset, std::string_view data);
    // Drops every pending write and its index (after a Sync or Crash).
    void ClearPending();
    // Applies one pending write, or truncate (empty data), to `image`.
    static void ApplyPending(std::string* image, const PendingWrite& w);
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<FileState>> files_;
};

/// Fault plan for FaultFile. Counters trigger once; -1 disarms.
struct FaultOptions {
  /// Fail the Nth Sync() call (1-based) and every one after it, leaving
  /// the pending writes unsynced (they are at the crash's mercy).
  int64_t fail_after_fsyncs = -1;
  /// On the Nth write (WriteAt/Append, 1-based), persist only a
  /// 512-byte-aligned prefix and return an error — the short-write fault.
  int64_t short_write_at = -1;
  /// Fail every write after `fail_after_write_bytes` total bytes written
  /// through this handle (disk-full style). -1 disarms.
  int64_t fail_after_write_bytes = -1;
};

/// Fault-injection File decorator wrapping any base File. All new
/// durability tests reuse this double to force short writes, torn
/// sectors, and fsync failures at scripted points.
class FaultFile : public File {
 public:
  FaultFile(std::unique_ptr<File> base, FaultOptions options)
      : base_(std::move(base)), options_(options) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override;
  Status WriteAt(uint64_t offset, std::string_view data) override;
  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;
  Result<uint64_t> Size() const override;

  uint64_t syncs_attempted() const { return syncs_; }
  uint64_t writes_attempted() const { return writes_; }

 private:
  // Applies the write-fault schedule; returns the (possibly shortened)
  // number of bytes to persist, or an error without any write.
  Result<size_t> AdmitWrite(size_t len);

  std::unique_ptr<File> base_;
  FaultOptions options_;
  uint64_t syncs_ = 0;
  uint64_t writes_ = 0;
  uint64_t bytes_written_ = 0;
};

/// FileSystem decorator applying one FaultOptions schedule to every file
/// it opens whose path contains `path_filter` (empty matches all);
/// counters are per-file. Non-matching paths pass through unwrapped, so a
/// test can fault only the WAL while the page file behaves.
class FaultFileSystem : public FileSystem {
 public:
  FaultFileSystem(FileSystem* base, FaultOptions options,
                  std::string path_filter = "")
      : base_(base), options_(options),
        path_filter_(std::move(path_filter)) {}

  Result<std::unique_ptr<File>> Open(const std::string& path) override;
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }

 private:
  FileSystem* base_;
  FaultOptions options_;
  std::string path_filter_;
};

}  // namespace storage
}  // namespace graphbench

#endif  // GRAPHBENCH_STORAGE_OS_FILE_H_
