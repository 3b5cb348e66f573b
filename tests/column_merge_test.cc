// Tests for the column store's write-optimized delta + merge machinery
// (the Virtuoso write-path model behind the §4.3 row-vs-column gap).

#include <gtest/gtest.h>

#include "numbered.h"
#include "storage/column_table.h"

namespace graphbench {
namespace {

TableSchema TwoColSchema() {
  return TableSchema("t", {{"id", Value::Type::kInt},
                           {"name", Value::Type::kString}});
}

TEST(ColumnMergeTest, DeltaRowsVisibleBeforeMerge) {
  ColumnTable t(TwoColSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(Numbered("n", i))}).ok());
  }
  EXPECT_EQ(t.merges(), 0u);  // below the merge threshold
  Row row;
  ASSERT_TRUE(t.Get(7, &row).ok());
  EXPECT_EQ(row[1].as_string(), "n7");
  Value v;
  ASSERT_TRUE(t.GetColumn(3, 0, &v).ok());
  EXPECT_EQ(v.as_int(), 3);
}

TEST(ColumnMergeTest, MergeTriggersAtThresholdAndPreservesData) {
  ColumnTable t(TwoColSchema());
  const int n = int(ColumnTable::kDeltaMergeRows) * 3 + 17;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value("x")}).ok());
  }
  EXPECT_EQ(t.merges(), 3u);
  EXPECT_EQ(t.row_count(), uint64_t(n));
  // Rows on both sides of the merged/delta boundary read correctly.
  Value v;
  ASSERT_TRUE(t.GetColumn(RowId(ColumnTable::kDeltaMergeRows - 1), 0, &v)
                  .ok());
  EXPECT_EQ(v.as_int(), int64_t(ColumnTable::kDeltaMergeRows) - 1);
  ASSERT_TRUE(t.GetColumn(RowId(n - 1), 0, &v).ok());
  EXPECT_EQ(v.as_int(), n - 1);
}

TEST(ColumnMergeTest, UpdateAndDeleteAcrossRegions) {
  ColumnTable t(TwoColSchema());
  const int n = int(ColumnTable::kDeltaMergeRows) + 5;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value("x")}).ok());
  }
  // Row 2 is merged; row n-1 is in the delta.
  ASSERT_TRUE(t.Update(2, {Value(200), Value("merged")}).ok());
  ASSERT_TRUE(t.Update(RowId(n - 1), {Value(900), Value("delta")}).ok());
  Row row;
  ASSERT_TRUE(t.Get(2, &row).ok());
  EXPECT_EQ(row[1].as_string(), "merged");
  ASSERT_TRUE(t.Get(RowId(n - 1), &row).ok());
  EXPECT_EQ(row[1].as_string(), "delta");

  ASSERT_TRUE(t.Delete(2).ok());
  ASSERT_TRUE(t.Delete(RowId(n - 1)).ok());
  EXPECT_TRUE(t.Get(2, &row).IsNotFound());
  EXPECT_TRUE(t.Get(RowId(n - 1), &row).IsNotFound());
  EXPECT_EQ(t.row_count(), uint64_t(n - 2));
}

TEST(ColumnMergeTest, ScanColumnSpansBothRegions) {
  ColumnTable t(TwoColSchema());
  const int n = int(ColumnTable::kDeltaMergeRows) + 3;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value("x")}).ok());
  }
  // The live row ids, then one batch read across the merged region and
  // the delta.
  std::vector<RowId> ids;
  ASSERT_TRUE(t.LiveRowIds(&ids).ok());
  std::vector<Value> values;
  ASSERT_TRUE(t.GetColumnBatch(ids, 0, &values).ok());
  ASSERT_EQ(values.size(), size_t(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(values[size_t(i)].as_int(), i);
    EXPECT_EQ(ids[size_t(i)], RowId(i));
  }
}

TEST(ColumnMergeTest, LiveRowIdsSeesDeltaRows) {
  ColumnTable t(TwoColSchema());
  const int n = int(ColumnTable::kDeltaMergeRows) + 2;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value("x")}).ok());
  }
  std::vector<RowId> ids;
  ASSERT_TRUE(t.LiveRowIds(&ids).ok());
  EXPECT_EQ(ids.size(), size_t(n));
}

}  // namespace
}  // namespace graphbench
