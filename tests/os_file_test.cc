#include "storage/os_file.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/random.h"

namespace graphbench {
namespace storage {
namespace {

TEST(Crc32Test, KnownVectorsAndSeedChaining) {
  // CRC-32C of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32(""), 0u);
  // Different seeds must produce different checksums (the salt property
  // the WAL's generation rejection relies on).
  EXPECT_NE(Crc32("payload", 1), Crc32("payload", 2));
}

// The bytewise table-driven CRC-32C the slice-by-8 version must reproduce
// exactly.
uint32_t BytewiseCrc32c(std::string_view data, uint32_t init) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = init ^ 0xffffffffu;
  for (unsigned char b : data) crc = table[(crc ^ b) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(9);
  std::string buf(9000 + 8, '\0');
  for (char& c : buf) c = char(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 9000; ++len) {
      std::string_view data(buf.data() + align, len);
      ASSERT_EQ(Crc32(data), BytewiseCrc32c(data, 0))
          << "len " << len << " align " << align;
      ASSERT_EQ(Crc32(data, 0x5eedu + uint32_t(len)),
                BytewiseCrc32c(data, 0x5eedu + uint32_t(len)))
          << "seeded, len " << len << " align " << align;
    }
  }
}

TEST(MemFileSystemTest, ReadWriteAppendTruncate) {
  MemFileSystem fs;
  auto file = fs.Open("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  std::string out;
  ASSERT_TRUE((*file)->ReadAt(0, 64, &out).ok());
  EXPECT_EQ(out, "hello world");
  ASSERT_TRUE((*file)->WriteAt(6, "WORLD").ok());
  ASSERT_TRUE((*file)->ReadAt(6, 5, &out).ok());
  EXPECT_EQ(out, "WORLD");
  ASSERT_TRUE((*file)->Truncate(5).ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5u);
  // Reading past EOF is a short read, not an error.
  ASSERT_TRUE((*file)->ReadAt(100, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MemFileSystemTest, SparseHolesReadAsZeros) {
  MemFileSystem fs;
  auto file = fs.Open("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->WriteAt(10, "x").ok());
  std::string out;
  ASSERT_TRUE((*file)->ReadAt(0, 11, &out).ok());
  ASSERT_EQ(out.size(), 11u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], '\0');
  EXPECT_EQ(out[10], 'x');
}

TEST(MemFileSystemTest, ContentsOutliveHandlesAndCrashKeepsSynced) {
  MemFileSystem fs;
  {
    auto file = fs.Open("f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("durable").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Append("-pending").ok());
  }
  EXPECT_EQ(fs.PendingBytes(), 8u);
  Rng rng(1);
  fs.Crash(&rng);
  EXPECT_EQ(fs.PendingBytes(), 0u);
  auto file = fs.Open("f");
  ASSERT_TRUE(file.ok());
  std::string out;
  ASSERT_TRUE((*file)->ReadAt(0, 64, &out).ok());
  // The synced prefix always survives; the pending suffix may or may not.
  ASSERT_GE(out.size(), 7u);
  EXPECT_EQ(out.substr(0, 7), "durable");
}

TEST(MemFileSystemTest, CrashTearsAtSectorBoundaries) {
  // A large unsynced write must survive only as a 512-aligned prefix (or
  // fully, or not at all) — never at byte granularity.
  for (uint64_t seed = 0; seed < 32; ++seed) {
    MemFileSystem fs;
    auto file = fs.Open("f");
    ASSERT_TRUE(file.ok());
    std::string data(4096, 'd');
    ASSERT_TRUE((*file)->Append(data).ok());
    Rng rng(seed);
    fs.Crash(&rng);
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size % kSectorBytes, 0u) << "seed " << seed;
    EXPECT_LE(*size, data.size());
  }
}

// MemFile builds each read from the durable slice plus the overlapping
// pending writes; the flat image rebuilt in full is the oracle, across
// random writes, holes, truncates (shrinking and growing), syncs and
// crashes, and across thousands of pending writes, where a read visits
// only those its blocks index.
TEST(MemFileSystemTest, RangeReadsMatchMaterializedImage) {
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    MemFileSystem fs;
    auto file = fs.Open("f");
    ASSERT_TRUE(file.ok());
    for (int step = 0; step < 200; ++step) {
      uint64_t action = rng.Uniform(20);
      if (action < 10) {
        std::string data(rng.Uniform(700) + 1, char('a' + rng.Uniform(26)));
        ASSERT_TRUE((*file)->WriteAt(rng.Uniform(6000), data).ok());
      } else if (action < 12) {
        std::string data(rng.Uniform(300) + 1, 'z');
        ASSERT_TRUE((*file)->Append(data).ok());
      } else if (action < 14) {
        ASSERT_TRUE((*file)->Truncate(rng.Uniform(7000)).ok());
      } else if (action < 16) {
        ASSERT_TRUE((*file)->Sync().ok());
      } else if (action == 16) {
        fs.Crash(&rng);
      }
      std::string image = fs.Materialize("f");
      auto size = (*file)->Size();
      ASSERT_TRUE(size.ok());
      ASSERT_EQ(*size, image.size()) << "trial " << trial << " step " << step;
      for (int r = 0; r < 4; ++r) {
        uint64_t offset = rng.Uniform(image.size() + 64);
        size_t n = size_t(rng.Uniform(1500));
        std::string out;
        ASSERT_TRUE((*file)->ReadAt(offset, n, &out).ok());
        std::string expect =
            offset < image.size() ? image.substr(offset, n) : std::string();
        ASSERT_EQ(out, expect) << "trial " << trial << " step " << step
                               << " offset " << offset << " n " << n;
      }
    }
  }

  // A pager's db file between checkpoints: thousands of unsynced page
  // writes (most of them rewrites of a few hot pages), unaligned writes
  // straddling blocks, appends and the odd truncate, never synced.
  for (int trial = 0; trial < 3; ++trial) {
    MemFileSystem fs;
    auto file = fs.Open("f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, std::string(20 * 4096, 'D')).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    for (int step = 0; step < 3000; ++step) {
      uint64_t action = rng.Uniform(100);
      if (action < 60) {
        uint64_t page =
            rng.Uniform(4) == 0 ? rng.Uniform(40) : rng.Uniform(4);
        std::string data(4096, char('a' + rng.Uniform(26)));
        data[rng.Uniform(4096)] = '!';
        ASSERT_TRUE((*file)->WriteAt(page * 4096, data).ok());
      } else if (action < 90) {
        std::string data(rng.Uniform(9000) + 1, char('a' + rng.Uniform(26)));
        ASSERT_TRUE((*file)->WriteAt(rng.Uniform(45 * 4096), data).ok());
      } else if (action < 98) {
        std::string data(rng.Uniform(300) + 1, 'z');
        ASSERT_TRUE((*file)->Append(data).ok());
      } else {
        ASSERT_TRUE((*file)->Truncate(rng.Uniform(50 * 4096)).ok());
      }
      if (step % 50 != 49) continue;
      std::string image = fs.Materialize("f");
      auto size = (*file)->Size();
      ASSERT_TRUE(size.ok());
      ASSERT_EQ(*size, image.size()) << "trial " << trial << " step " << step;
      for (int r = 0; r < 8; ++r) {
        uint64_t offset = r % 2 == 0
                              ? rng.Uniform(image.size() / 4096 + 1) * 4096
                              : rng.Uniform(image.size() + 64);
        size_t n = r % 2 == 0 ? 4096 : size_t(rng.Uniform(12000));
        std::string out;
        ASSERT_TRUE((*file)->ReadAt(offset, n, &out).ok());
        std::string expect =
            offset < image.size() ? image.substr(offset, n) : std::string();
        ASSERT_EQ(out, expect) << "trial " << trial << " step " << step
                               << " offset " << offset << " n " << n;
      }
    }
    EXPECT_GT(fs.PendingBytes(), 0u);
  }
}

TEST(MemFileSystemTest, RemoveAndExists) {
  MemFileSystem fs;
  EXPECT_FALSE(fs.Exists("f"));
  ASSERT_TRUE(fs.Open("f").ok());
  EXPECT_TRUE(fs.Exists("f"));
  ASSERT_TRUE(fs.Remove("f").ok());
  EXPECT_FALSE(fs.Exists("f"));
  // Directories don't exist in the in-memory namespace; CreateDir accepts
  // anything so callers can be path-layout agnostic.
  EXPECT_TRUE(fs.CreateDir("any/dir").ok());
}

TEST(FaultFileTest, FailsAfterScheduledFsyncCount) {
  MemFileSystem fs;
  auto base = fs.Open("f");
  ASSERT_TRUE(base.ok());
  FaultOptions opts;
  opts.fail_after_fsyncs = 2;
  FaultFile file(std::move(*base), opts);
  ASSERT_TRUE(file.Append("a").ok());
  EXPECT_TRUE(file.Sync().ok());   // 1st: ok
  EXPECT_FALSE(file.Sync().ok());  // 2nd: scheduled failure
  EXPECT_FALSE(file.Sync().ok());  // and every one after
  EXPECT_EQ(file.syncs_attempted(), 3u);
  // The failed fsync left the write pending — at the crash's mercy.
  EXPECT_EQ(fs.PendingBytes(), 0u);  // first sync covered it
}

TEST(FaultFileTest, ShortWritePersistsAlignedPrefixAndErrors) {
  MemFileSystem fs;
  auto base = fs.Open("f");
  ASSERT_TRUE(base.ok());
  FaultOptions opts;
  opts.short_write_at = 2;
  FaultFile file(std::move(*base), opts);
  ASSERT_TRUE(file.Append(std::string(512, 'a')).ok());
  EXPECT_FALSE(file.Append(std::string(1024, 'b')).ok());  // torn short
  auto size = file.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size % kSectorBytes, 0u);
  EXPECT_LT(*size, 512u + 1024u);
}

TEST(FaultFileTest, DiskFullAfterByteBudget) {
  MemFileSystem fs;
  auto base = fs.Open("f");
  ASSERT_TRUE(base.ok());
  FaultOptions opts;
  opts.fail_after_write_bytes = 100;
  FaultFile file(std::move(*base), opts);
  ASSERT_TRUE(file.Append(std::string(100, 'a')).ok());
  EXPECT_FALSE(file.Append("b").ok());
}

TEST(FaultFileSystemTest, PathFilterScopesTheFaultSchedule) {
  MemFileSystem base;
  FaultOptions opts;
  opts.fail_after_fsyncs = 1;
  FaultFileSystem fs(&base, opts, ".wal");
  auto wal = fs.Open("store.wal");
  auto db = fs.Open("store.db");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*wal)->Sync().ok());  // matches filter: faulted
  EXPECT_TRUE((*db)->Sync().ok());    // passes through unwrapped
}

}  // namespace
}  // namespace storage
}  // namespace graphbench
