#include "storage/paged_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "numbered.h"
#include "pager_oracle.h"
#include "storage/os_file.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "util/random.h"

namespace graphbench {
namespace {

using storage::MemFileSystem;
using storage::Pager;
using storage::PagerOptions;

TableSchema IdValueSchema() {
  return TableSchema(
      "t", {{"id", Value::Type::kInt}, {"v", Value::Type::kString}});
}

Row MakeRow(RowId id) {
  return Row{Value(int64_t(id)), Value("v" + std::to_string(id))};
}

std::unique_ptr<Pager> MustOpen(storage::FileSystem* fs,
                                size_t cache_pages = 64) {
  PagerOptions options;
  options.cache_pages = cache_pages;
  auto pager = Pager::Open(fs, "t.db", "t.wal", options);
  EXPECT_TRUE(pager.ok()) << pager.status().ToString();
  return std::move(pager).value();
}

// Attach must rebuild slot_pages_ in allocation order. The directory
// chain is stored newest-page-first, so this only bites once the table
// spans more than one directory page (> kDirCapacity slot pages, ~15.7k
// rows): a naive chain-order walk permutes the RowId -> page mapping and
// every row in the older runs resolves to the wrong page.
TEST(PagedTableTest, AttachAfterMultipleDirectoryPages) {
  // 508 ids per directory page; two pages of slots past the first
  // directory page so both runs are non-trivial.
  constexpr RowId kRows = RowId((508 + 2) * PagedTable::kSlotsPerPage);
  MemFileSystem fs;
  uint64_t meta_page = 0;
  {
    auto pager = MustOpen(&fs);
    auto table = PagedTable::Create(pager.get(), IdValueSchema());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    meta_page = (*table)->meta_page();
    for (RowId id = 0; id < kRows; ++id) {
      auto inserted = (*table)->Insert(MakeRow(id));
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
      ASSERT_EQ(*inserted, id);
    }
    // Deletes sprinkled across both directory runs must survive too.
    ASSERT_TRUE((*table)->Delete(3).ok());
    ASSERT_TRUE((*table)->Delete(kRows - 3).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }

  auto pager = MustOpen(&fs);
  auto table = PagedTable::Attach(pager.get(), meta_page, IdValueSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->row_count(), kRows - 2);
  for (RowId id : {RowId(0), RowId(1000),
                   RowId(508 * PagedTable::kSlotsPerPage - 1),
                   RowId(508 * PagedTable::kSlotsPerPage), kRows - 1}) {
    Row row;
    ASSERT_TRUE((*table)->Get(id, &row).ok()) << "row " << id;
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].as_int(), int64_t(id));
    EXPECT_EQ(row[1].as_string(), Numbered("v", int64_t(id)));
  }
  Row row;
  EXPECT_TRUE((*table)->Get(3, &row).IsNotFound());
  EXPECT_TRUE((*table)->Get(kRows - 3, &row).IsNotFound());

  // And the reattached table keeps accepting writes at the right ids.
  auto inserted = (*table)->Insert(MakeRow(kRows));
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, kRows);
}

// Log bytes per insert, the durable Postgres/Virtuoso table's share of a
// write: a fixed seeded stream of SNB person rows (short strings), knows
// rows (three ints) and post rows (30-200 B of content, so most outgrow
// the slot and are packed into shared row pages). The bounds sit just
// above what each insert logs now (the mirror of
// PagedBTreeKvTest.WalBytesPerOpStayRecordSized): they fence the current
// cost, they do not shrink it.
TEST(PagedTableTest, WalBytesPerInsertStayBounded) {
  using T = Value::Type;
  MemFileSystem fs;
  auto pager = MustOpen(&fs);
  auto person = PagedTable::Create(
      pager.get(),
      TableSchema("person", {{"id", T::kInt},
                             {"firstName", T::kString},
                             {"lastName", T::kString},
                             {"gender", T::kString},
                             {"birthday", T::kInt},
                             {"creationDate", T::kInt},
                             {"browserUsed", T::kString},
                             {"locationIP", T::kString},
                             {"cityId", T::kInt}}));
  ASSERT_TRUE(person.ok()) << person.status().ToString();
  auto knows = PagedTable::Create(
      pager.get(), TableSchema("knows", {{"person1Id", T::kInt},
                                         {"person2Id", T::kInt},
                                         {"creationDate", T::kInt}}));
  ASSERT_TRUE(knows.ok()) << knows.status().ToString();
  auto post = PagedTable::Create(
      pager.get(), TableSchema("post", {{"id", T::kInt},
                                        {"content", T::kString},
                                        {"creationDate", T::kInt},
                                        {"creatorId", T::kInt},
                                        {"forumId", T::kInt},
                                        {"browserUsed", T::kString}}));
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  storage::Wal* wal = pager->wal();

  constexpr int kInserts = 5000;
  Rng rng(17);
  auto word = [&rng](size_t min_len, size_t max_len) {
    std::string out(min_len + rng.Uniform(max_len - min_len + 1), 'a');
    for (char& c : out) c = char('a' + rng.Uniform(26));
    return out;
  };
  uint64_t before = wal->log_bytes();
  for (int i = 0; i < kInserts; ++i) {
    Row row{Value(int64_t(i)), Value(word(3, 10)), Value(word(3, 12)),
            Value(rng.Uniform(2) ? "male" : "female"),
            Value(int64_t(rng.Uniform(1u << 30))),
            Value(int64_t(rng.Uniform(1u << 30))), Value(word(5, 8)),
            Value(std::to_string(rng.Uniform(256)) + ".1.2." +
                  std::to_string(rng.Uniform(256))),
            Value(int64_t(rng.Uniform(1000)))};
    ASSERT_TRUE((*person)->Insert(row).ok());
  }
  double person_bytes = double(wal->log_bytes() - before) / kInserts;

  before = wal->log_bytes();
  for (int i = 0; i < kInserts; ++i) {
    Row row{Value(int64_t(rng.Uniform(kInserts))),
            Value(int64_t(rng.Uniform(kInserts))),
            Value(int64_t(rng.Uniform(1u << 30)))};
    ASSERT_TRUE((*knows)->Insert(row).ok());
  }
  double knows_bytes = double(wal->log_bytes() - before) / kInserts;

  before = wal->log_bytes();
  for (int i = 0; i < kInserts; ++i) {
    Row row{Value(int64_t(i)), Value(word(30, 200)),
            Value(int64_t(rng.Uniform(1u << 30))),
            Value(int64_t(rng.Uniform(kInserts))),
            Value(int64_t(rng.Uniform(100))), Value(word(5, 8))};
    ASSERT_TRUE((*post)->Insert(row).ok());
  }
  double post_bytes = double(wal->log_bytes() - before) / kInserts;

  EXPECT_EQ((*person)->row_count(), uint64_t(kInserts));
  EXPECT_EQ((*post)->row_count(), uint64_t(kInserts));
  // Logged today: person 158.6 B, knows 91.4 B, post 267.3 B.
  EXPECT_LE(person_bytes, 170.0);
  EXPECT_LE(knows_bytes, 100.0);
  EXPECT_LE(post_bytes, 280.0);
  std::printf("log bytes per insert: person %.1f, knows %.1f, post %.1f\n",
              person_bytes, knows_bytes, post_bytes);
}

// The table declares to the pager only the bytes each op changes (the slot,
// the meta counters, a directory entry). A seeded stream with no checkpoint
// on a 16-page pool, so pages are evicted and reloaded, covers inserts,
// updates and deletes of inline rows and of rows past the slot's 124 bytes
// (overflow chains), and directory growth past one directory page. A
// second pager recovered from copies of the files must hold exactly the
// live pages, and the table attached to it the oracle's rows.
TEST(PagedTableTest, RecoveredPagesMatchLivePagerAfterEvictingStream) {
  // Past one directory page (508 slot pages of 31 rows).
  constexpr uint64_t kInserts = 509 * PagedTable::kSlotsPerPage + 40;
  MemFileSystem fs;
  auto pager = MustOpen(&fs, /*cache_pages=*/64);
  auto table = PagedTable::Create(pager.get(), IdValueSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  std::map<RowId, std::string> oracle;
  Rng rng(43);
  auto payload = [&rng] {
    size_t len = rng.Uniform(8) == 0 ? 125 + rng.Uniform(600)
                                     : 1 + rng.Uniform(100);
    return std::string(len, char('a' + rng.Uniform(26)));
  };
  RowId next = 0;
  while (next < kInserts) {
    uint64_t kind = rng.Uniform(10);
    if (kind < 6 || oracle.empty()) {
      std::string v = payload();
      auto id = (*table)->Insert(Row{Value(int64_t(next)), Value(v)});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, next);
      oracle[next++] = v;
      continue;
    }
    // An existing row at or after a random id.
    auto it = oracle.lower_bound(rng.Uniform(next));
    if (it == oracle.end()) it = oracle.begin();
    if (kind < 9) {
      std::string v = payload();
      ASSERT_TRUE(
          (*table)->Update(it->first, Row{Value(int64_t(it->first)), Value(v)})
              .ok());
      it->second = v;
    } else {
      ASSERT_TRUE((*table)->Delete(it->first).ok());
      oracle.erase(it);
    }
  }
  ASSERT_TRUE(testing_oracle::RecoveredPagesMatch(fs, pager.get(), "t.db",
                                                  "t.wal"));

  // The same files, reopened: the attached table holds the oracle's rows.
  uint64_t meta_page = (*table)->meta_page();
  table->reset();
  pager.reset();
  auto reopened = MustOpen(&fs, /*cache_pages=*/64);
  auto attached =
      PagedTable::Attach(reopened.get(), meta_page, IdValueSchema());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  std::map<RowId, std::string> rows;
  std::vector<RowId> ids;
  ASSERT_TRUE((*attached)->LiveRowIds(&ids).ok());
  for (RowId id : ids) {
    Row row;
    ASSERT_TRUE((*attached)->Get(id, &row).ok());
    rows[id] = row[1].as_string();
  }
  EXPECT_TRUE(rows == oracle);
  EXPECT_EQ((*attached)->row_count(), oracle.size());
}

// An allocating stream torn by a crash: with fsync-per-commit every op is
// acknowledged, so after MemFileSystem::Crash keeps, tears or drops each
// unsynced flush of the db file, replay must rebuild exactly the pages the
// live pager held. The rows take all three paths (inline, packed into row
// pages, chains longer than a page), and the 8-page pool evicts, and so
// flushes, pages allocated since the last checkpoint, some of them more
// than once; a checkpoint partway makes the later ones older than the log.
TEST(PagedTableTest, RecoveredPagesMatchAfterCrashTearsAllocatingStream) {
  for (uint64_t trial = 0; trial < 6; ++trial) {
    MemFileSystem fs;
    PagerOptions options;
    options.cache_pages = 8;
    options.fsync_on_commit = true;
    auto opened = Pager::Open(&fs, "t.db", "t.wal", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Pager> pager = std::move(opened).value();
    auto table = PagedTable::Create(pager.get(), IdValueSchema());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    Rng rng(trial + 101);
    auto payload = [&rng] {
      uint64_t shape = rng.Uniform(10);
      size_t len = shape == 0   ? 4100 + rng.Uniform(3000)
                   : shape < 4 ? 125 + rng.Uniform(900)
                               : 1 + rng.Uniform(100);
      return std::string(len, char('a' + rng.Uniform(26)));
    };
    RowId next = 0;
    for (int op = 0; op < 400; ++op) {
      if (op == 150) {
        ASSERT_TRUE(pager->Checkpoint().ok());
      }
      if (next == 0 || rng.Uniform(4) != 0) {
        auto id =
            (*table)->Insert(Row{Value(int64_t(next)), Value(payload())});
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ++next;
      } else {
        RowId id = rng.Uniform(next);
        ASSERT_TRUE(
            (*table)->Update(id, Row{Value(int64_t(id)), Value(payload())})
                .ok());
      }
    }
    std::vector<std::string> want = testing_oracle::PageImages(pager.get());
    ASSERT_GT(fs.PendingBytes(), 0u);
    fs.Crash(&rng);
    table->reset();
    pager.reset();
    EXPECT_TRUE(
        testing_oracle::RecoveredPagesEqual(&fs, "t.db", "t.wal", want))
        << "trial " << trial;
  }
}

// Readers Get rows of one table while a writer inserts into a second table
// of the same pager. The 8-page pool makes the writer evict pages the
// readers pin and reload, beside the writer's declared-range bookkeeping.
TEST(PagedTableTest, ReadersOfOneTableBesideWriterOfAnother) {
  MemFileSystem fs;
  auto pager = MustOpen(&fs, /*cache_pages=*/8);
  auto read_table = PagedTable::Create(pager.get(), IdValueSchema());
  auto write_table = PagedTable::Create(pager.get(), IdValueSchema());
  ASSERT_TRUE(read_table.ok() && write_table.ok());
  constexpr RowId kRows = 500;
  for (RowId id = 0; id < kRows; ++id) {
    ASSERT_TRUE((*read_table)->Insert(MakeRow(id)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inserted{0};
  std::thread writer([&] {
    RowId id = 0;
    while (!stop.load()) {
      Row row{Value(int64_t(id)), Value(std::string(id % 7 == 0 ? 200 : 20,
                                                    'w'))};
      EXPECT_TRUE((*write_table)->Insert(row).ok());
      ++id;
      inserted.store(id);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(uint64_t(r) + 1);
      for (int i = 0; i < 3000; ++i) {
        RowId id = rng.Uniform(kRows);
        Row row;
        ASSERT_TRUE((*read_table)->Get(id, &row).ok());
        EXPECT_EQ(row[1].as_string(), Numbered("v", int64_t(id)));
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop = true;
  writer.join();
  EXPECT_GT(inserted.load(), 0u);
  EXPECT_EQ((*write_table)->row_count(), inserted.load());
  EXPECT_GT(pager->page_count(), 8u);
}

}  // namespace
}  // namespace graphbench
