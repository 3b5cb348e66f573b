#include "concurrency/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "concurrency/versioned.h"
#include "numbered.h"

namespace graphbench {
namespace concurrency {
namespace {

std::shared_ptr<const void> Erase(std::shared_ptr<int> p) {
  return std::static_pointer_cast<const void>(std::move(p));
}

TEST(EpochManagerTest, RetiredObjectSurvivesUntilEpochAdvances) {
  EpochManager& mgr = EpochManager::Global();
  auto obj = std::make_shared<int>(7);
  std::weak_ptr<int> w = obj;
  {
    WriteBatch batch;
    mgr.Retire(Erase(std::move(obj)));
    // Mid-batch the retired version is still the visible one.
    mgr.Reclaim();
    EXPECT_FALSE(w.expired());
  }
  // Batch commit advanced the epoch and drained the list (no pins).
  EXPECT_TRUE(w.expired());
}

TEST(EpochManagerTest, NoReclaimWhilePinnedDrainsOnUnpin) {
  EpochManager& mgr = EpochManager::Global();
  auto obj = std::make_shared<int>(7);
  std::weak_ptr<int> w = obj;
  {
    EpochGuard pin;
    {
      WriteBatch batch;
      mgr.Retire(Erase(std::move(obj)));
    }
    // The writer committed, but this reader's pin still reaches the
    // retired version.
    mgr.Reclaim();
    EXPECT_FALSE(w.expired());
    EXPECT_GE(mgr.pinned_readers(), 1u);
  }
  // Last reader out sweeps.
  EXPECT_TRUE(w.expired());
}

TEST(EpochManagerTest, NestedGuardsShareOnePin) {
  EpochManager& mgr = EpochManager::Global();
  EpochGuard outer;
  {
    WriteBatch batch;  // would advance on commit...
  }
  // ...but a nested guard must keep the outer snapshot, not repin.
  EpochGuard inner;
  EXPECT_EQ(inner.epoch(), outer.epoch());
  EXPECT_LT(outer.epoch(), mgr.current());
}

TEST(EpochManagerTest, NestedBatchesCommitOnce) {
  EpochManager& mgr = EpochManager::Global();
  uint64_t before = mgr.current();
  {
    WriteBatch outer;
    {
      WriteBatch inner;
    }
    // Inner close must not commit while the outer batch is open.
    EXPECT_EQ(mgr.current(), before);
  }
  EXPECT_EQ(mgr.current(), before + 1);
}

TEST(EpochManagerTest, StatsCountRetireAndReclaim) {
  EpochManager& mgr = EpochManager::Global();
  {
    WriteBatch batch;  // drain anything left over
  }
  uint64_t retired = mgr.total_retired();
  uint64_t reclaimed = mgr.total_reclaimed();
  {
    WriteBatch batch;
    mgr.Retire(Erase(std::make_shared<int>(1)));
    mgr.Retire(Erase(std::make_shared<int>(2)));
  }
  EXPECT_EQ(mgr.total_retired(), retired + 2);
  EXPECT_EQ(mgr.total_reclaimed(), reclaimed + 2);
  EXPECT_EQ(mgr.retired_outstanding(), 0u);
}

TEST(VersionedCellTest, UncommittedWritesInvisibleThenAtomic) {
  EpochManager& mgr = EpochManager::Global();
  VersionedCell<int> a;
  VersionedCell<int> b;
  {
    WriteBatch batch;
    a.Store(mgr, 1);
    b.Store(mgr, 1);
    EpochGuard pin;
    // Mid-batch: neither write is visible...
    EXPECT_EQ(a.Read(pin.epoch()), nullptr);
    EXPECT_EQ(b.Read(pin.epoch()), nullptr);
    // ...but the writer reads its own batch.
    ASSERT_NE(a.WriterLatest(), nullptr);
    EXPECT_EQ(*a.WriterLatest(), 1);
  }
  EpochGuard pin;
  ASSERT_NE(a.Read(pin.epoch()), nullptr);
  EXPECT_EQ(*a.Read(pin.epoch()), 1);
  EXPECT_EQ(*b.Read(pin.epoch()), 1);
}

TEST(VersionedCellTest, PinnedReaderKeepsItsSnapshotValue) {
  EpochManager& mgr = EpochManager::Global();
  VersionedCell<int> cell;
  {
    WriteBatch batch;
    cell.Store(mgr, 1);
  }
  EpochGuard pin;
  {
    WriteBatch batch;
    cell.Store(mgr, 2);
  }
  // New readers see 2; the pinned reader still sees 1.
  EXPECT_EQ(*cell.Read(pin.epoch()), 1);
  EpochGuard fresh;  // nested: same thread shares the pin
  EXPECT_EQ(*cell.Read(fresh.epoch()), 1);
  std::thread other([&cell] {
    EpochGuard g;
    EXPECT_EQ(*cell.Read(g.epoch()), 2);
  });
  other.join();
}

TEST(VersionedTableTest, AppendAndVersionVisibility) {
  EpochManager& mgr = EpochManager::Global();
  VersionedTable<std::vector<int>> table;
  size_t idx;
  {
    WriteBatch batch;
    idx = table.Append(mgr, {1, 2});
    // Multiple publishes in one batch mutate one version in place.
    table.Publish(mgr, idx, [](std::vector<int>& v) { v.push_back(3); });
  }
  EpochGuard pin;
  ASSERT_NE(table.Read(idx, pin.epoch()), nullptr);
  EXPECT_EQ(*table.Read(idx, pin.epoch()), (std::vector<int>{1, 2, 3}));
  {
    WriteBatch batch;
    table.Publish(mgr, idx, [](std::vector<int>& v) { v.clear(); });
    // Pinned reader keeps the pre-batch version even mid-batch...
    EXPECT_EQ(table.Read(idx, pin.epoch())->size(), 3u);
  }
  // ...and after commit, until it unpins.
  EXPECT_EQ(table.Read(idx, pin.epoch())->size(), 3u);
  EXPECT_TRUE(table.WriterLatest(idx)->empty());
}

TEST(VersionedTableTest, GrowthAcrossChunksKeepsOldSlotsReadable) {
  EpochManager& mgr = EpochManager::Global();
  VersionedTable<int, 8> table;  // tiny chunks: force directory growth
  {
    WriteBatch batch;
    for (int i = 0; i < 100; ++i) table.Append(mgr, i * 10);
  }
  EpochGuard pin;
  ASSERT_EQ(table.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(table.Read(i, pin.epoch()), nullptr) << i;
    EXPECT_EQ(*table.Read(i, pin.epoch()), i * 10);
  }
}

TEST(EpochHashMapTest, InsertVisibilityAndUniqueness) {
  EpochManager& mgr = EpochManager::Global();
  EpochHashMap<int64_t, int> map(4);  // small: force growth
  {
    WriteBatch batch;
    for (int64_t k = 0; k < 50; ++k) EXPECT_TRUE(map.Insert(mgr, k, int(k)));
    EXPECT_FALSE(map.Insert(mgr, 7, 99));  // duplicate, same batch
    EpochGuard pin;
    EXPECT_EQ(map.Find(7, pin.epoch()), nullptr);  // uncommitted
    ASSERT_NE(map.Find(7, EpochManager::kWriterPin), nullptr);
  }
  EpochGuard pin;
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_NE(map.Find(k, pin.epoch()), nullptr) << k;
    EXPECT_EQ(*map.Find(k, pin.epoch()), int(k));
  }
  EXPECT_EQ(map.Find(1234, pin.epoch()), nullptr);
}

TEST(StableVecTest, GrowthKeepsAddressesStable) {
  EpochManager& mgr = EpochManager::Global();
  StableVec<std::string, 4> vec;
  WriteBatch batch;
  vec.PushBack(mgr, "first");
  const std::string* p = &vec[0];
  for (int i = 1; i < 100; ++i) vec.PushBack(mgr, Numbered("s", i));
  EXPECT_EQ(p, &vec[0]);
  EXPECT_EQ(vec[0], "first");
  EXPECT_EQ(vec[99], "s99");
}

// Reclamation stress: a writer churns versions (every publish retires the
// predecessor) while readers traverse them. ASan verifies nothing is
// freed under a live pin; TSan verifies the pin/publish/retire ordering.
TEST(EpochStressTest, ChurnUnderConcurrentReaders) {
  EpochManager& mgr = EpochManager::Global();
  VersionedCell<std::vector<int>> cell;
  VersionedTable<std::vector<int>> table;
  {
    WriteBatch batch;
    for (int i = 0; i < 8; ++i) table.Append(mgr, std::vector<int>(16, 0));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochGuard g;
        const std::vector<int>* v = cell.Read(g.epoch());
        if (v != nullptr && !v->empty()) {
          // Every version is internally uniform; a torn or freed read
          // trips this (or the sanitizer).
          int first = (*v)[0];
          for (int x : *v) ASSERT_EQ(x, first);
        }
        for (size_t i = 0; i < table.size(); ++i) {
          const std::vector<int>* row = table.Read(i, g.epoch());
          if (row == nullptr) continue;
          int first = row->empty() ? 0 : (*row)[0];
          for (int x : *row) ASSERT_EQ(x, first);
        }
      }
    });
  }
  for (int round = 1; round <= 3000; ++round) {
    WriteBatch batch;
    cell.Store(mgr, std::vector<int>(32, round));
    table.Publish(mgr, size_t(round) % 8, [round](std::vector<int>& v) {
      v.assign(16, round);
    });
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  {
    WriteBatch drain;
  }
  EXPECT_EQ(mgr.retired_outstanding(), 0u);
}

}  // namespace
}  // namespace concurrency
}  // namespace graphbench
