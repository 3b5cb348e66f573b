#ifndef GRAPHBENCH_TESTS_PAGER_ORACLE_H_
#define GRAPHBENCH_TESTS_PAGER_ORACLE_H_

// Recovery oracle shared by the paged-store tests. A store declares to the
// pager only the bytes an op changes (PageRef::MarkDirty(offset, len)); a
// change outside every declared range is missing from the WAL. Recovering
// a second pager from copies of the live files and comparing every page
// catches it, as long as the stream ran without a checkpoint (so the WAL
// holds every change since the first touch of each page).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "storage/os_file.h"
#include "storage/pager.h"

namespace graphbench {
namespace testing_oracle {

// Copies the logical contents of `db_path` and `wal_path` (durable image
// plus every pending write) from `live_fs` into a fresh file system,
// recovers a pager from them, and checks that it holds the same pages
// with the same data areas as `live`.
inline ::testing::AssertionResult RecoveredPagesMatch(
    const storage::MemFileSystem& live_fs, storage::Pager* live,
    const std::string& db_path, const std::string& wal_path) {
  storage::MemFileSystem copy_fs;
  for (const std::string& path : {db_path, wal_path}) {
    auto file = copy_fs.Open(path);
    if (!file.ok()) {
      return ::testing::AssertionFailure() << file.status().ToString();
    }
    Status s = (*file)->WriteAt(0, live_fs.Materialize(path));
    if (s.ok()) s = (*file)->Sync();
    if (!s.ok()) return ::testing::AssertionFailure() << s.ToString();
  }
  storage::PagerOptions options;
  options.cache_pages = 8;
  auto recovered =
      storage::Pager::Open(&copy_fs, db_path, wal_path, options);
  if (!recovered.ok()) {
    return ::testing::AssertionFailure()
           << "recovery failed: " << recovered.status().ToString();
  }
  if ((*recovered)->page_count() != live->page_count()) {
    return ::testing::AssertionFailure()
           << "page count " << (*recovered)->page_count() << ", live "
           << live->page_count();
  }
  for (uint64_t id = 1; id < live->page_count(); ++id) {
    auto want = live->Fetch(id);
    auto got = (*recovered)->Fetch(id);
    if (!want.ok() || !got.ok()) {
      return ::testing::AssertionFailure()
             << "page " << id << ": "
             << (want.ok() ? got.status() : want.status()).ToString();
    }
    if (std::memcmp(want->data(), got->data(), storage::kPageDataSize) !=
        0) {
      size_t at = 0;
      while (want->data()[at] == got->data()[at]) ++at;
      return ::testing::AssertionFailure()
             << "page " << id << " differs from byte " << at;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing_oracle
}  // namespace graphbench

#endif  // GRAPHBENCH_TESTS_PAGER_ORACLE_H_
