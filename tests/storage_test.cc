#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "numbered.h"
#include "storage/column_table.h"
#include "storage/hash_index.h"
#include "storage/heap_table.h"
#include "storage/os_file.h"
#include "storage/paged_table.h"
#include "storage/pager.h"
#include "util/random.h"

namespace graphbench {
namespace {

TableSchema PersonSchema() {
  return TableSchema("person", {{"id", Value::Type::kInt},
                                {"firstName", Value::Type::kString},
                                {"lastName", Value::Type::kString}});
}

// Row store and column store must satisfy the same Table contract.
class TableContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Table> Make() const {
    if (std::string(GetParam()) == "heap") {
      return std::make_unique<HeapTable>(PersonSchema());
    }
    return std::make_unique<ColumnTable>(PersonSchema());
  }
};

TEST_P(TableContractTest, InsertGetRoundTrip) {
  auto t = Make();
  auto id = t->Insert({Value(1), Value("Ada"), Value("Lovelace")});
  ASSERT_TRUE(id.ok());
  Row row;
  ASSERT_TRUE(t->Get(*id, &row).ok());
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1].as_string(), "Ada");
  EXPECT_EQ(t->row_count(), 1u);
}

TEST_P(TableContractTest, ArityMismatchRejected) {
  auto t = Make();
  EXPECT_TRUE(t->Insert({Value(1)}).status().IsInvalidArgument());
  auto id = t->Insert({Value(1), Value("A"), Value("B")});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(t->Update(*id, {Value(1)}).IsInvalidArgument());
}

TEST_P(TableContractTest, GetColumnFetchesSingleValue) {
  auto t = Make();
  auto id = t->Insert({Value(9), Value("Grace"), Value("Hopper")});
  ASSERT_TRUE(id.ok());
  Value v;
  ASSERT_TRUE(t->GetColumn(*id, 2, &v).ok());
  EXPECT_EQ(v.as_string(), "Hopper");
  EXPECT_TRUE(t->GetColumn(*id, 7, &v).IsInvalidArgument());
}

TEST_P(TableContractTest, GetColumnBatchReadsInRequestOrder) {
  auto t = Make();
  // Past ColumnTable's delta merge, so a batch spans both of its regions.
  const int n = int(ColumnTable::kDeltaMergeRows) + 10;
  std::vector<RowId> ids;
  for (int i = 0; i < n; ++i) {
    auto id = t->Insert({Value(i), Value(Numbered("f", i)),
                         Value("l")});
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::vector<RowId> want = {ids[size_t(n - 1)], ids[3], ids[3], ids[0]};
  std::vector<Value> got(7, Value("stale"));
  ASSERT_TRUE(t->GetColumnBatch(want, 1, &got).ok());
  EXPECT_EQ(got, (std::vector<Value>{Value(Numbered("f", n - 1)),
                                     Value("f3"), Value("f3"), Value("f0")}));
  ASSERT_TRUE(t->GetColumnBatch({}, 0, &got).ok());
  EXPECT_TRUE(got.empty());
  // A deleted row anywhere in the batch fails it.
  ASSERT_TRUE(t->Delete(ids[3]).ok());
  EXPECT_TRUE(t->GetColumnBatch(want, 0, &got).IsNotFound());
}

TEST_P(TableContractTest, UpdateOverwrites) {
  auto t = Make();
  auto id = t->Insert({Value(1), Value("A"), Value("B")});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(t->Update(*id, {Value(1), Value("X"), Value("Y")}).ok());
  Row row;
  ASSERT_TRUE(t->Get(*id, &row).ok());
  EXPECT_EQ(row[1].as_string(), "X");
}

TEST_P(TableContractTest, DeleteTombstonesRow) {
  auto t = Make();
  auto id1 = t->Insert({Value(1), Value("A"), Value("B")});
  auto id2 = t->Insert({Value(2), Value("C"), Value("D")});
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(t->Delete(*id1).ok());
  Row row;
  EXPECT_TRUE(t->Get(*id1, &row).IsNotFound());
  EXPECT_TRUE(t->Delete(*id1).IsNotFound());
  EXPECT_TRUE(t->Get(*id2, &row).ok());
  EXPECT_EQ(t->row_count(), 1u);
}

TEST_P(TableContractTest, ScanVisitsExactlyLiveRows) {
  auto t = Make();
  std::vector<RowId> ids;
  for (int i = 0; i < 300; ++i) {
    auto id = t->Insert({Value(i), Value("n"), Value("m")});
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (int i = 0; i < 300; i += 3) ASSERT_TRUE(t->Delete(ids[size_t(i)]).ok());

  std::vector<RowId> live;
  ASSERT_TRUE(t->LiveRowIds(&live).ok());
  for (RowId id : live) {
    Row row;
    ASSERT_TRUE(t->Get(id, &row).ok());
    ASSERT_EQ(row.size(), 3u);
    EXPECT_NE(row[0].as_int() % 3, 0);
  }
  EXPECT_EQ(live.size(), 200u);
  EXPECT_EQ(t->row_count(), 200u);
}

TEST_P(TableContractTest, SizeAccountingTracksInsertsAndDeletes) {
  auto t = Make();
  auto id = t->Insert({Value(1), Value(std::string(500, 'x')), Value("y")});
  ASSERT_TRUE(id.ok());
  uint64_t after_insert = t->ApproximateSizeBytes();
  EXPECT_GT(after_insert, 500u);
  ASSERT_TRUE(t->Delete(*id).ok());
  EXPECT_LT(t->ApproximateSizeBytes(), after_insert);
}

INSTANTIATE_TEST_SUITE_P(Stores, TableContractTest,
                         ::testing::Values("heap", "columnar"));

TEST(HeapTableTest, RowIdsSpanPages) {
  HeapTable t(PersonSchema());
  for (size_t i = 0; i < HeapTable::kRowsPerPage + 5; ++i) {
    ASSERT_TRUE(t.Insert({Value(int64_t(i)), Value("a"), Value("b")}).ok());
  }
  Row row;
  ASSERT_TRUE(t.Get(HeapTable::kRowsPerPage + 2, &row).ok());
  EXPECT_EQ(row[0].as_int(), int64_t(HeapTable::kRowsPerPage + 2));
}

TEST(ColumnTableTest, ScanColumnSkipsDeleted) {
  ColumnTable t(PersonSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value("f"), Value("l")}).ok());
  }
  ASSERT_TRUE(t.Delete(4).ok());
  // The executor's column scan: the live row ids, then one batch read of
  // the column.
  std::vector<RowId> ids;
  ASSERT_TRUE(t.LiveRowIds(&ids).ok());
  std::vector<Value> values;
  ASSERT_TRUE(t.GetColumnBatch(ids, 0, &values).ok());
  EXPECT_EQ(values.size(), 9u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], 4u);
    EXPECT_EQ(values[i].as_int(), int64_t(ids[i]));
  }
}

// LiveRowIds beside a writer that inserts and deletes, on all three
// tables: the ids come from one latch hold, ascending, so each names a row
// that was live then. Read afterwards, it is live (OK) or was deleted
// since (NotFound), never anything else.
TEST(LiveRowIdsTest, EveryIdReadsOkOrNotFoundBesideAWriter) {
  storage::MemFileSystem fs;
  storage::PagerOptions options;
  options.cache_pages = 64;
  auto pager = storage::Pager::Open(&fs, "t.db", "t.wal", options);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  auto paged = PagedTable::Create(pager->get(), PersonSchema());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  std::vector<std::unique_ptr<Table>> tables;
  tables.push_back(std::make_unique<HeapTable>(PersonSchema()));
  tables.push_back(std::make_unique<ColumnTable>(PersonSchema()));
  tables.push_back(std::move(paged).value());
  for (const auto& t : tables) {
    std::vector<RowId> live;  // the writer's own, and only its
    for (int i = 0; i < 100; ++i) {
      auto id = t->Insert({Value(i), Value("f"), Value("l")});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live.push_back(*id);
    }
    std::atomic<bool> done{false};
    std::thread writer([&] {
      Rng rng(7);
      for (int i = 0; i < 1500; ++i) {
        auto id = t->Insert({Value(i), Value("f"), Value("l")});
        EXPECT_TRUE(id.ok()) << id.status().ToString();
        if (id.ok()) live.push_back(*id);
        size_t victim = size_t(rng.Uniform(live.size()));
        EXPECT_TRUE(t->Delete(live[victim]).ok());
        live[victim] = live.back();
        live.pop_back();
      }
      done.store(true);
    });
    std::vector<RowId> ids;
    Row row;
    size_t scans = 0;
    do {
      // EXPECT, not ASSERT: returning early would leave the writer running.
      EXPECT_TRUE(t->LiveRowIds(&ids).ok());
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      for (RowId id : ids) {
        Status got = t->Get(id, &row);
        EXPECT_TRUE(got.ok() || got.IsNotFound()) << got.ToString();
      }
      ++scans;
    } while (!done.load());
    writer.join();
    EXPECT_GT(scans, 0u);
    // Quiescent: exactly the writer's live rows.
    ASSERT_TRUE(t->LiveRowIds(&ids).ok());
    std::sort(live.begin(), live.end());
    EXPECT_EQ(ids, live);
  }
}

TEST(HashIndexTest, MultiValueLookup) {
  HashIndex idx("knows_src", /*unique=*/false);
  ASSERT_TRUE(idx.Insert(Value(int64_t{7}), 100).ok());
  ASSERT_TRUE(idx.Insert(Value(int64_t{7}), 101).ok());
  ASSERT_TRUE(idx.Insert(Value(int64_t{8}), 102).ok());
  std::vector<RowId> ids;
  idx.Lookup(Value(int64_t{7}), &ids);
  EXPECT_EQ(ids, (std::vector<RowId>{100, 101}));
  idx.Lookup(Value(int64_t{9}), &ids);
  EXPECT_EQ(ids.size(), 2u);
  // Appends to what the caller's buffer already holds.
  idx.Lookup(Value(int64_t{8}), &ids);
  EXPECT_EQ(ids, (std::vector<RowId>{100, 101, 102}));
  EXPECT_EQ(idx.entry_count(), 3u);
}

TEST(HashIndexTest, UniqueIndexRejectsDuplicates) {
  HashIndex idx("person_id", /*unique=*/true);
  ASSERT_TRUE(idx.Insert(Value(int64_t{1}), 10).ok());
  EXPECT_TRUE(idx.Insert(Value(int64_t{1}), 11).IsAlreadyExists());
  auto found = idx.LookupUnique(Value(int64_t{1}));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 10u);
  EXPECT_TRUE(idx.LookupUnique(Value(int64_t{2})).status().IsNotFound());
}

TEST(HashIndexTest, RemoveDropsEntry) {
  HashIndex idx("x", false);
  ASSERT_TRUE(idx.Insert(Value("k"), 1).ok());
  ASSERT_TRUE(idx.Remove(Value("k"), 1).ok());
  EXPECT_TRUE(idx.Remove(Value("k"), 1).IsNotFound());
  EXPECT_FALSE(idx.Contains(Value("k")));
}

}  // namespace
}  // namespace graphbench
