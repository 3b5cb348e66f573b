#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "concurrency/epoch.h"
#include "kv/btree_kv.h"
#include "kv/key_codec.h"
#include "kv/lsm_kv.h"
#include "kv/paged_btree_kv.h"
#include "numbered.h"
#include "pager_oracle.h"
#include "storage/os_file.h"
#include "util/random.h"

namespace graphbench {
namespace {

// Every KV backend — the two in-memory stores and the durable paged
// B-tree — must satisfy the same ordered-store contract.
class KvStoreContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<KvStore> Make() const {
    if (std::string(GetParam()) == "btree") {
      return std::make_unique<BTreeKv>(/*fanout=*/8);  // small: force splits
    }
    if (std::string(GetParam()) == "paged") {
      storage::PagerOptions opts;
      opts.cache_pages = 16;  // small: force evictions mid-test
      auto kv = PagedBTreeKv::Open(&fs_, "kv.db", "kv.wal", opts);
      EXPECT_TRUE(kv.ok()) << kv.status().ToString();
      return std::move(kv).value();
    }
    LsmOptions opts;
    opts.memtable_bytes = 1024;  // small: force flushes/compactions
    opts.max_runs = 3;
    return std::make_unique<LsmKv>(opts);
  }

  mutable storage::MemFileSystem fs_;
};

TEST_P(KvStoreContractTest, PutGetDelete) {
  auto kv = Make();
  EXPECT_TRUE(kv->Put("k1", "v1").ok());
  EXPECT_TRUE(kv->Put("k2", "v2").ok());
  std::string v;
  ASSERT_TRUE(kv->Get("k1", &v).ok());
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE(kv->Get("missing", &v).IsNotFound());
  EXPECT_TRUE(kv->Delete("k1").ok());
  EXPECT_TRUE(kv->Get("k1", &v).IsNotFound());
  ASSERT_TRUE(kv->Get("k2", &v).ok());
  EXPECT_EQ(v, "v2");
}

TEST_P(KvStoreContractTest, OverwriteKeepsSingleVersion) {
  auto kv = Make();
  EXPECT_TRUE(kv->Put("k", "a").ok());
  EXPECT_TRUE(kv->Put("k", "bb").ok());
  std::string v;
  ASSERT_TRUE(kv->Get("k", &v).ok());
  EXPECT_EQ(v, "bb");
  EXPECT_EQ(kv->Count(), 1u);
}

TEST_P(KvStoreContractTest, MatchesReferenceMapUnderRandomOps) {
  auto kv = Make();
  std::map<std::string, std::string> ref;
  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    std::string key = "key" + std::to_string(rng.Uniform(400));
    int op = int(rng.Uniform(3));
    if (op == 0 || op == 1) {
      std::string value = Numbered("v", int64_t(rng.Next() % 100000));
      ASSERT_TRUE(kv->Put(key, value).ok());
      ref[key] = value;
    } else {
      Status s = kv->Delete(key);
      if (ref.count(key)) {
        // LSM deletes are blind (tombstones), btree reports NotFound.
        ref.erase(key);
      }
      (void)s;
    }
  }
  for (const auto& [k, v] : ref) {
    std::string got;
    ASSERT_TRUE(kv->Get(k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(kv->Count(), ref.size());
}

TEST_P(KvStoreContractTest, IteratorIsOrderedAndComplete) {
  auto kv = Make();
  Rng rng(5);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 500; ++i) {
    std::string key = Numbered("k", int64_t(rng.Uniform(1000)));
    ref.emplace(key, "v");
    ASSERT_TRUE(kv->Put(key, "v").ok());
  }
  auto it = kv->NewIterator();
  it->SeekToFirst();
  auto expect = ref.begin();
  while (it->Valid()) {
    ASSERT_NE(expect, ref.end());
    EXPECT_EQ(it->key(), expect->first);
    it->Next();
    ++expect;
  }
  EXPECT_EQ(expect, ref.end());
}

TEST_P(KvStoreContractTest, IteratorSeek) {
  auto kv = Make();
  for (char c = 'b'; c <= 'f'; ++c) {
    ASSERT_TRUE(kv->Put(std::string(1, c), "x").ok());
  }
  auto it = kv->NewIterator();
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "c");
  it->Seek("cc");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");
  it->Seek("z");
  EXPECT_FALSE(it->Valid());
}

TEST_P(KvStoreContractTest, SizeAccountingMovesWithData) {
  auto kv = Make();
  uint64_t empty = kv->ApproximateSizeBytes();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        kv->Put("key" + std::to_string(i), std::string(100, 'x')).ok());
  }
  EXPECT_GT(kv->ApproximateSizeBytes(), empty + 100 * 100);
}

INSTANTIATE_TEST_SUITE_P(Backends, KvStoreContractTest,
                         ::testing::Values("btree", "lsm", "paged"));

// Scans must skip tombstoned slots wherever they sit in the leaf chain —
// the lazy-delete representation is invisible through every read API.
TEST_P(KvStoreContractTest, ScanAcrossTombstones) {
  auto kv = Make();
  for (int i = 0; i < 200; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "p%05d", i);
    ASSERT_TRUE(kv->Put(buf, std::to_string(i)).ok());
  }
  for (int i = 0; i < 200; i += 2) {  // delete every even key
    char buf[16];
    std::snprintf(buf, sizeof(buf), "p%05d", i);
    ASSERT_TRUE(kv->Delete(buf).ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(kv->ScanPrefix("p", &rows).ok());
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "p%05d", int(2 * i + 1));
    EXPECT_EQ(rows[i].first, buf);
  }
  // The iterator agrees, including across a tombstone-only leaf region.
  auto it = kv->NewIterator();
  it->Seek("p00099");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "p00099");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "p00101");
  EXPECT_EQ(kv->Count(), 100u);
}

TEST(PagedBTreeKvTest, ReopenAfterCheckpointRecoversEverything) {
  storage::MemFileSystem fs;
  storage::PagerOptions opts;
  opts.cache_pages = 16;
  std::map<std::string, std::string> ref;
  {
    auto kv = PagedBTreeKv::Open(&fs, "kv.db", "kv.wal", opts);
    ASSERT_TRUE(kv.ok()) << kv.status().ToString();
    Rng rng(13);
    for (int i = 0; i < 800; ++i) {
      std::string key = "key" + std::to_string(rng.Uniform(300));
      std::string value = Numbered("v", int64_t(rng.Next() % 100000));
      ASSERT_TRUE((*kv)->Put(key, value).ok());
      ref[key] = value;
    }
    ASSERT_TRUE((*kv)->Checkpoint().ok());
    // Post-checkpoint writes live only in the WAL at reopen time.
    for (int i = 0; i < 50; ++i) {
      std::string key = "tail" + std::to_string(i);
      ASSERT_TRUE((*kv)->Put(key, "after-ckpt").ok());
      ref[key] = "after-ckpt";
    }
    ASSERT_TRUE((*kv)->pager()->wal()->Sync().ok());
  }
  auto reopened = PagedBTreeKv::Open(&fs, "kv.db", "kv.wal", opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT((*reopened)->pager()->recovered_records(), 0u);
  for (const auto& [k, v] : ref) {
    std::string got;
    ASSERT_TRUE((*reopened)->Get(k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ((*reopened)->Count(), ref.size());
}

TEST(PagedBTreeKvTest, LargeValuesRoundTripThroughOverflowChains) {
  storage::MemFileSystem fs;
  storage::PagerOptions opts;
  opts.cache_pages = 32;
  auto kv = PagedBTreeKv::Open(&fs, "kv.db", "kv.wal", opts);
  ASSERT_TRUE(kv.ok());
  std::string big(3 * 4096 + 57, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char('a' + i % 26);
  ASSERT_TRUE((*kv)->Put("big", big).ok());
  ASSERT_TRUE((*kv)->Put("small", "s").ok());
  std::string got;
  ASSERT_TRUE((*kv)->Get("big", &got).ok());
  EXPECT_EQ(got, big);
  // Overwrite shrinks it back inline; the old chain must not resurface.
  ASSERT_TRUE((*kv)->Put("big", "tiny").ok());
  ASSERT_TRUE((*kv)->Get("big", &got).ok());
  EXPECT_EQ(got, "tiny");
}

// A Put that fits its leaf logs about one record, not the shifted tail of
// a page: the log bytes per op are a deterministic count, so the bound
// holds on any machine.
TEST(PagedBTreeKvTest, WalBytesPerOpStayRecordSized) {
  storage::MemFileSystem fs;
  storage::PagerOptions opts;
  opts.cache_pages = 1024;
  auto kv = PagedBTreeKv::Open(&fs, "kv.db", "kv.wal", opts);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  storage::Wal* wal = (*kv)->pager()->wal();

  constexpr int kPuts = 20000;
  constexpr int kDeletes = 2000;
  std::vector<int> order(kPuts);
  for (int i = 0; i < kPuts; ++i) order[size_t(i)] = i;
  Rng rng(31);
  rng.Shuffle(&order);
  const std::string value(100, 'v');
  char key[16];
  uint64_t before = wal->log_bytes();
  for (int i : order) {
    std::snprintf(key, sizeof(key), "key%08d", i);
    ASSERT_TRUE((*kv)->Put(key, value).ok());
  }
  double put_bytes = double(wal->log_bytes() - before) / kPuts;

  before = wal->log_bytes();
  for (int d = 0; d < kDeletes; ++d) {
    std::snprintf(key, sizeof(key), "key%08d", order[size_t(d)]);
    ASSERT_TRUE((*kv)->Delete(key).ok());
  }
  double delete_bytes = double(wal->log_bytes() - before) / kDeletes;

  EXPECT_EQ((*kv)->Count(), uint64_t(kPuts - kDeletes));
  // Logged today: 271.5 B per Put (split pages start as zero-page
  // records), 53.6 B per Delete.
  EXPECT_LE(put_bytes, 290.0);
  EXPECT_LE(delete_bytes, 128.0);
  std::printf("log bytes per Put %.1f, per tombstone Delete %.1f\n",
              put_bytes, delete_bytes);
}

// The tree declares to the pager only the bytes each op changes: a slot
// and its record, the shifted slot tail, a header field, a tombstone's
// flag byte, the meta counters. A seeded stream with no checkpoint on an
// 8-page pool, so pages are evicted and reloaded, runs Puts and Deletes
// that insert in place, replace same-size records, repoint slots to
// resized ones, tombstone, re-put tombstoned keys, spill to overflow
// chains, compact and split (leaves and, with 200-byte keys, interior
// nodes). A second pager recovered from copies of the files must hold
// exactly the live pages, and the reopened tree the oracle's entries.
TEST(PagedBTreeKvTest, RecoveredPagesMatchLivePagerAfterEvictingStream) {
  storage::MemFileSystem fs;
  storage::PagerOptions opts;
  opts.cache_pages = 8;
  auto kv = PagedBTreeKv::Open(&fs, "kv.db", "kv.wal", opts);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  std::map<std::string, std::string> oracle;
  Rng rng(59);
  for (int i = 0; i < 6000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", int(rng.Uniform(1500)));
    std::string padded = std::string(key) + std::string(200, '.');
    uint64_t kind = rng.Uniform(20);
    if (kind < 3) {
      Status s = (*kv)->Delete(padded);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      oracle.erase(padded);
      continue;
    }
    size_t len;
    if (kind == 3) {
      len = 600 + rng.Uniform(1500);  // overflow chain
    } else if (kind < 10) {
      len = 8 * (1 + rng.Uniform(3));  // often the same size as before
    } else {
      len = 1 + rng.Uniform(90);
    }
    std::string value(len, char('a' + rng.Uniform(26)));
    ASSERT_TRUE((*kv)->Put(padded, value).ok());
    oracle[padded] = value;
  }
  ASSERT_TRUE(testing_oracle::RecoveredPagesMatch(fs, (*kv)->pager(),
                                                  "kv.db", "kv.wal"));

  kv->reset();
  auto reopened = PagedBTreeKv::Open(&fs, "kv.db", "kv.wal", opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::map<std::string, std::string> entries;
  auto it = (*reopened)->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    entries[std::string(it->key())] = std::string(it->value());
  }
  EXPECT_TRUE(entries == oracle);
  EXPECT_EQ((*reopened)->Count(), oracle.size());
}

// Mirror of the BTreeKv test on a pool small enough that evictions run
// while readers search pages in place.
TEST(PagedBTreeKvTest, ConcurrentReadersWithWriterStayConsistent) {
  storage::MemFileSystem fs;
  storage::PagerOptions opts;
  opts.cache_pages = 8;
  auto opened = PagedBTreeKv::Open(&fs, "kv.db", "kv.wal", opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  PagedBTreeKv& kv = **opened;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(kv.Put("stable" + std::to_string(i), "v").ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 1000;
    while (!stop) kv.Put("new" + std::to_string(i++), std::string(60, 'w'));
  });
  std::thread scanner([&] {
    for (int r = 0; r < 50; ++r) {
      std::vector<std::pair<std::string, std::string>> rows;
      EXPECT_TRUE(kv.ScanPrefix("stable", &rows).ok());
      EXPECT_EQ(rows.size(), 1000u);
    }
  });
  for (int r = 0; r < 2000; ++r) {
    std::string v;
    ASSERT_TRUE(kv.Get("stable" + std::to_string(r % 1000), &v).ok());
    EXPECT_EQ(v, "v");
  }
  scanner.join();
  stop = true;
  writer.join();
  EXPECT_GT(kv.pager()->page_count(), opts.cache_pages);
}

TEST(BTreeKvTest, ReportsTransactionalIsolation) {
  BTreeKv kv;
  EXPECT_TRUE(kv.SupportsTransactionalIsolation());
  EXPECT_EQ(kv.name(), "btree");
}

TEST(BTreeKvTest, ManySequentialInsertsSurviveSplitChains) {
  BTreeKv kv(/*fanout=*/4);
  for (int i = 0; i < 2000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%06d", i);
    ASSERT_TRUE(kv.Put(buf, std::to_string(i)).ok());
  }
  EXPECT_EQ(kv.Count(), 2000u);
  std::string v;
  ASSERT_TRUE(kv.Get("001234", &v).ok());
  EXPECT_EQ(v, "1234");
}

TEST(BTreeKvTest, ConcurrentReadersWithWriterStayConsistent) {
  BTreeKv kv;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(kv.Put("stable" + std::to_string(i), "v").ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 1000;
    while (!stop) kv.Put("new" + std::to_string(i++), "w");
  });
  for (int r = 0; r < 2000; ++r) {
    std::string v;
    ASSERT_TRUE(kv.Get("stable" + std::to_string(r % 1000), &v).ok());
    EXPECT_EQ(v, "v");
  }
  stop = true;
  writer.join();
}

TEST(LsmKvTest, NoTransactionalIsolationAdvertised) {
  LsmKv kv;
  EXPECT_FALSE(kv.SupportsTransactionalIsolation());
  EXPECT_EQ(kv.name(), "lsm");
}

TEST(LsmKvTest, FlushAndCompactionPreserveData) {
  LsmOptions opts;
  opts.memtable_bytes = 512;
  opts.max_runs = 2;
  LsmKv kv(opts);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(kv.Put(Numbered("k", i), std::string(30, 'a')).ok());
  }
  EXPECT_GT(kv.compactions_run(), 0u);
  std::string v;
  ASSERT_TRUE(kv.Get("k250", &v).ok());
  EXPECT_EQ(kv.Count(), 500u);
}

TEST(LsmKvTest, TombstonesSurviveFlushAndDropOnCompaction) {
  LsmOptions opts;
  opts.memtable_bytes = 1 << 20;
  opts.max_runs = 2;
  LsmKv kv(opts);
  ASSERT_TRUE(kv.Put("gone", "x").ok());
  kv.Flush();
  ASSERT_TRUE(kv.Delete("gone").ok());
  kv.Flush();
  std::string v;
  EXPECT_TRUE(kv.Get("gone", &v).IsNotFound());
  EXPECT_EQ(kv.Count(), 0u);
}

// A Titan row key: the tag byte plus the vertex id.
std::string RowKey(uint8_t tag, uint64_t row) {
  std::string key;
  keycodec::AppendRowKey(&key, tag, row);
  return key;
}

std::vector<std::pair<std::string, std::string>> OracleScan(
    const std::map<std::string, std::string>& ref, const std::string& prefix) {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = ref.lower_bound(prefix);
       it != ref.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

// The memtable is partitioned by row key and a scan whose prefix pins a
// row reads one shard: every prefix length, on both sides of the 9-byte
// row key, must still see exactly the oracle's keys through flushes and
// compactions. Keys shorter than a row key route as a whole.
TEST(LsmKvTest, RowKeyScansMatchOracleThroughFlushAndCompaction) {
  LsmOptions opts;
  opts.memtable_bytes = 768;  // small: flush every few dozen writes
  opts.max_runs = 3;
  LsmKv kv(opts);
  std::map<std::string, std::string> ref;
  Rng rng(19);
  std::vector<std::string> universe;
  for (uint8_t tag : {uint8_t('A'), uint8_t('V')}) {
    for (uint64_t row : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{255},
                         uint64_t{256}, uint64_t{1} << 56, ~uint64_t{0}}) {
      const std::string rk = RowKey(tag, row);
      universe.push_back(rk);  // a key that is exactly its row key
      for (uint64_t col = 0; col < 6; ++col) {
        std::string key = rk;
        keycodec::AppendByte(&key, uint8_t(col % 2));  // direction byte
        if (col >= 2) keycodec::AppendString(&key, col % 3 ? "knows" : "k");
        keycodec::AppendU64(&key, rng.Uniform(4));
        universe.push_back(key);
      }
    }
  }
  // Keys shorter than a row key, some of them prefixes of row keys.
  universe.insert(universe.end(), {"A", "V", "Ab", "I", "\xff"});
  universe.push_back(RowKey('A', 1).substr(0, 5));
  universe.push_back(RowKey('V', 256).substr(0, 8));

  auto check = [&] {
    for (const std::string& key : universe) {
      for (size_t len = 0; len <= key.size() + 1; ++len) {
        const std::string prefix = len <= key.size()
                                       ? key.substr(0, len)
                                       : key + std::string(1, '\0');
        std::vector<std::pair<std::string, std::string>> got;
        ASSERT_TRUE(kv.ScanPrefix(prefix, &got).ok());
        ASSERT_EQ(got, OracleScan(ref, prefix))
            << "prefix of length " << len << " of a " << key.size()
            << "-byte key";
      }
      std::string value;
      auto it = ref.find(key);
      Status s = kv.Get(key, &value);
      if (it == ref.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(value, it->second);
      }
    }
    EXPECT_EQ(kv.Count(), ref.size());
  };

  for (int i = 1; i <= 2400; ++i) {
    const std::string& key = universe[rng.Uniform(universe.size())];
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(kv.Delete(key).ok());
      ref.erase(key);
    } else {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(kv.Put(key, value).ok());
      ref[key] = value;
    }
    if (i % 400 == 0) {
      ASSERT_NO_FATAL_FAILURE(check());
    }
  }
  kv.Flush();
  ASSERT_NO_FATAL_FAILURE(check());
  EXPECT_GT(kv.compactions_run(), 2u);
}

// A pinned reader keeps its snapshot of a row across later writes to it,
// including a flush that moves the row from the memtable into a run.
TEST(LsmKvTest, PinnedRowScanKeepsSnapshotAcrossOverwriteDeleteAndFlush) {
  LsmOptions opts;
  opts.max_runs = 100;  // no compaction: it may collapse the history
  LsmKv kv(opts);
  const std::string row = RowKey('A', 42);
  auto col = [&row](uint64_t c) {
    std::string key = row;
    keycodec::AppendU64(&key, c);
    return key;
  };
  for (uint64_t c = 0; c < 3; ++c) ASSERT_TRUE(kv.Put(col(c), "old").ok());
  kv.Flush();  // columns 0-2 in a run, 3-4 in the memtable
  for (uint64_t c = 3; c < 5; ++c) ASSERT_TRUE(kv.Put(col(c), "old").ok());
  ASSERT_TRUE(kv.Put(RowKey('A', 43), "neighbour").ok());

  std::vector<std::pair<std::string, std::string>> before, during, after;
  {
    concurrency::EpochGuard pin;
    ASSERT_TRUE(kv.ScanPrefix(row, &before).ok());
    ASSERT_EQ(before.size(), 5u);
    ASSERT_TRUE(kv.Put(col(1), "new").ok());  // overwrite in a run
    ASSERT_TRUE(kv.Put(col(4), "new").ok());  // overwrite in the memtable
    ASSERT_TRUE(kv.Delete(col(0)).ok());
    ASSERT_TRUE(kv.Delete(col(3)).ok());
    ASSERT_TRUE(kv.Put(col(5), "new").ok());
    kv.Flush();
    ASSERT_TRUE(kv.ScanPrefix(row, &during).ok());
    EXPECT_EQ(during, before);
    std::string value;
    ASSERT_TRUE(kv.Get(col(0), &value).ok());
    EXPECT_EQ(value, "old");
  }
  ASSERT_TRUE(kv.ScanPrefix(row, &after).ok());
  std::vector<std::pair<std::string, std::string>> expect = {
      {col(1), "new"}, {col(2), "old"}, {col(4), "new"}, {col(5), "new"}};
  EXPECT_EQ(after, expect);
}

// Writes in one batch share an epoch, so a key rewritten around a flush
// has equal-epoch versions in two sources: the later source wins, in
// scans and in compaction alike.
TEST(LsmKvTest, EqualEpochVersionsResolveToTheLaterSource) {
  LsmOptions opts;
  opts.max_runs = 3;
  LsmKv kv(opts);
  const std::string key = RowKey('V', 9);
  const std::vector<std::pair<std::string, std::string>> newest = {
      {key, "b"}};
  std::vector<std::pair<std::string, std::string>> rows;
  {
    concurrency::WriteBatch batch;
    ASSERT_TRUE(kv.Put(key, "a").ok());
    kv.Flush();
    ASSERT_TRUE(kv.Put(key, "b").ok());
  }
  ASSERT_TRUE(kv.ScanPrefix(key, &rows).ok());
  EXPECT_EQ(rows, newest);  // memtable over run
  kv.Flush();
  ASSERT_EQ(kv.num_runs(), 2u);
  ASSERT_TRUE(kv.ScanPrefix(key, &rows).ok());
  EXPECT_EQ(rows, newest);  // later run over earlier run
  ASSERT_TRUE(kv.Put(RowKey('V', 10), "x").ok());
  kv.Flush();  // third run: compaction
  ASSERT_EQ(kv.compactions_run(), 1u);
  ASSERT_TRUE(kv.ScanPrefix(key, &rows).ok());
  EXPECT_EQ(rows, newest);
}

TEST(KeyCodecTest, U64OrderPreserving) {
  std::string a, b;
  keycodec::AppendU64(&a, 5);
  keycodec::AppendU64(&b, 300);
  EXPECT_LT(a, b);
  std::string_view view(a);
  uint64_t v;
  ASSERT_TRUE(keycodec::DecodeU64(&view, &v));
  EXPECT_EQ(v, 5u);
  EXPECT_TRUE(view.empty());
}

TEST(KeyCodecTest, StringEscapingRoundTripsAndOrders) {
  std::string a, b, c;
  keycodec::AppendString(&a, "a");
  keycodec::AppendString(&b, "aa");
  keycodec::AppendString(&c, "b");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);

  std::string with_nul;
  keycodec::AppendString(&with_nul, std::string("x\0y", 3));
  std::string_view view(with_nul);
  std::string decoded;
  ASSERT_TRUE(keycodec::DecodeString(&view, &decoded));
  EXPECT_EQ(decoded, std::string("x\0y", 3));
}

TEST(KeyCodecTest, CompositeKeysDecodeInOrder) {
  std::string key;
  keycodec::AppendByte(&key, 'E');
  keycodec::AppendU64(&key, 42);
  keycodec::AppendString(&key, "knows");
  std::string_view view(key);
  uint8_t tag;
  uint64_t vid;
  std::string label;
  ASSERT_TRUE(keycodec::DecodeByte(&view, &tag));
  ASSERT_TRUE(keycodec::DecodeU64(&view, &vid));
  ASSERT_TRUE(keycodec::DecodeString(&view, &label));
  EXPECT_EQ(tag, 'E');
  EXPECT_EQ(vid, 42u);
  EXPECT_EQ(label, "knows");
}

TEST(KeyCodecTest, DecodersRejectTruncation) {
  std::string_view empty;
  uint64_t v;
  uint8_t b;
  std::string s;
  EXPECT_FALSE(keycodec::DecodeU64(&empty, &v));
  EXPECT_FALSE(keycodec::DecodeByte(&empty, &b));
  std::string_view unterminated("abc");
  EXPECT_FALSE(keycodec::DecodeString(&unterminated, &s));
}

}  // namespace
}  // namespace graphbench
