#ifndef GRAPHBENCH_TESTS_PAGER_ORACLE_H_
#define GRAPHBENCH_TESTS_PAGER_ORACLE_H_

// Recovery oracle shared by the paged-store tests. A store declares to the
// pager only the bytes an op changes (PageRef::MarkDirty(offset, len)); a
// change outside every declared range is missing from the WAL. Recovering
// a second pager from copies of the live files and comparing every page
// catches it, as long as the stream ran without a checkpoint (so the WAL
// holds every change since the first touch of each page). The same
// comparison after MemFileSystem::Crash checks that replay repairs every
// torn flush.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "storage/os_file.h"
#include "storage/pager.h"

namespace graphbench {
namespace testing_oracle {

// The data area of every page of `pager` (index = page id; page 0, the
// header, is left empty).
inline std::vector<std::string> PageImages(storage::Pager* pager) {
  std::vector<std::string> images(pager->page_count());
  for (uint64_t id = 1; id < images.size(); ++id) {
    auto page = pager->Fetch(id);
    EXPECT_TRUE(page.ok()) << "page " << id << ": "
                           << page.status().ToString();
    if (page.ok()) images[id].assign(page->data(), storage::kPageDataSize);
  }
  return images;
}

// Recovers a pager from `db_path` and `wal_path` in `fs` and checks that
// it holds exactly the pages `want` (as PageImages returns them).
inline ::testing::AssertionResult RecoveredPagesEqual(
    storage::FileSystem* fs, const std::string& db_path,
    const std::string& wal_path, const std::vector<std::string>& want) {
  storage::PagerOptions options;
  options.cache_pages = 8;
  auto recovered = storage::Pager::Open(fs, db_path, wal_path, options);
  if (!recovered.ok()) {
    return ::testing::AssertionFailure()
           << "recovery failed: " << recovered.status().ToString();
  }
  if ((*recovered)->page_count() != want.size()) {
    return ::testing::AssertionFailure()
           << "page count " << (*recovered)->page_count() << ", want "
           << want.size();
  }
  for (uint64_t id = 1; id < want.size(); ++id) {
    auto got = (*recovered)->Fetch(id);
    if (!got.ok()) {
      return ::testing::AssertionFailure()
             << "page " << id << ": " << got.status().ToString();
    }
    if (std::memcmp(want[id].data(), got->data(), storage::kPageDataSize) !=
        0) {
      size_t at = 0;
      while (want[id][at] == got->data()[at]) ++at;
      return ::testing::AssertionFailure()
             << "page " << id << " differs from byte " << at;
    }
  }
  return ::testing::AssertionSuccess();
}

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
  return RecoveredPagesEqual(&copy_fs, db_path, wal_path, PageImages(live));
}

}  // namespace testing_oracle
}  // namespace graphbench

#endif  // GRAPHBENCH_TESTS_PAGER_ORACLE_H_
