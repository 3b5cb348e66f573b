// Google-benchmark microbenchmarks for the storage substrates: KV stores
// (B+-tree vs LSM, in memory and paged), table stores (row vs columnar, in
// memory and paged), the message queue, and the wire codecs. These
// calibrate the building blocks underneath the paper-level experiments.
//
// The paged arms (PagedBTreeKv, PagedTable) run on MemFileSystem with a
// 1,024-page pool and the group-commit WAL (no fsync per commit), the
// durable SUTs' defaults, so they price the paged structure and its log
// next to the in-memory twin, not a disk. Their writing arms run a fixed
// number of ops, since the log grows with every one. Each paged reading
// arm runs at two sizes: one whose pages all fit the pool (20k rows fill
// 645 slot pages; 20k keys fit as well), which prices a buffer-pool hit,
// and the size the in-memory arms use (50k rows fill 1,613 slot pages;
// 100k keys), out of pool, where about a third of reads miss.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/value_codec.h"
#include "kv/btree_kv.h"
#include "kv/key_codec.h"
#include "kv/lsm_kv.h"
#include "kv/paged_btree_kv.h"
#include "mq/broker.h"
#include "storage/column_table.h"
#include "storage/heap_table.h"
#include "storage/os_file.h"
#include "storage/paged_table.h"
#include "tinkerpop/bytecode.h"
#include "util/random.h"

namespace graphbench {
namespace {

std::string Key(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%012llu", (unsigned long long)i);
  return buf;
}

// Ops per run of a paged writing arm.
constexpr int64_t kPagedWrites = 100000;

storage::PagerOptions PagedOptions() {
  storage::PagerOptions options;
  options.cache_pages = 1024;
  return options;
}

// `fs` backs the paged store and must outlive it.
template <typename Kv>
std::unique_ptr<KvStore> MakeKv(storage::MemFileSystem*) {
  return std::make_unique<Kv>();
}

template <>
std::unique_ptr<KvStore> MakeKv<PagedBTreeKv>(storage::MemFileSystem* fs) {
  return PagedBTreeKv::Open(fs, "kv.db", "kv.wal", PagedOptions()).value();
}

template <typename Kv>
void BM_KvPut(benchmark::State& state) {
  storage::MemFileSystem fs;
  auto kv = MakeKv<Kv>(&fs);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv->Put(Key(i++), "value-payload-64-bytes"));
  }
  state.SetItemsProcessed(int64_t(i));
}
BENCHMARK(BM_KvPut<BTreeKv>);
BENCHMARK(BM_KvPut<LsmKv>);
BENCHMARK(BM_KvPut<PagedBTreeKv>)->Iterations(kPagedWrites);

// Arg: keys loaded (and read at random).
template <typename Kv>
void BM_KvGet(benchmark::State& state) {
  storage::MemFileSystem fs;
  auto kv = MakeKv<Kv>(&fs);
  const uint64_t n = uint64_t(state.range(0));
  for (uint64_t i = 0; i < n; ++i) kv->Put(Key(i), "v");
  Rng rng(1);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv->Get(Key(rng.Uniform(n)), &value));
  }
}
BENCHMARK(BM_KvGet<BTreeKv>)->Arg(100000);
BENCHMARK(BM_KvGet<LsmKv>)->Arg(100000);
BENCHMARK(BM_KvGet<PagedBTreeKv>)->Arg(20000)->Arg(100000);

template <typename Kv>
void BM_KvScanPrefix(benchmark::State& state) {
  storage::MemFileSystem fs;
  auto kv = MakeKv<Kv>(&fs);
  // 1000 "vertices" with 20 adjacency columns each, in Titan's layout:
  // the 'A' row key (tag + vertex id) followed by a column suffix.
  auto row = [](uint64_t v) {
    std::string key;
    keycodec::AppendRowKey(&key, 'A', v);
    return key;
  };
  for (uint64_t v = 0; v < 1000; ++v) {
    for (uint64_t e = 0; e < 20; ++e) {
      std::string key = row(v);
      keycodec::AppendU64(&key, e);
      kv->Put(key, "edge");
    }
  }
  Rng rng(2);
  std::vector<std::pair<std::string, std::string>> out;
  for (auto _ : state) {
    kv->ScanPrefix(row(rng.Uniform(1000)), &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_KvScanPrefix<BTreeKv>);
BENCHMARK(BM_KvScanPrefix<LsmKv>);

TableSchema BenchSchema() {
  return TableSchema("t", {{"id", Value::Type::kInt},
                           {"name", Value::Type::kString},
                           {"score", Value::Type::kInt}});
}

// A table and, for the paged one, the pager under it (declared first, so
// it outlives the table).
struct BenchTable {
  std::unique_ptr<storage::Pager> pager;
  std::unique_ptr<Table> table;
};

template <typename T>
BenchTable MakeTable(storage::MemFileSystem*) {
  return {nullptr, std::make_unique<T>(BenchSchema())};
}

template <>
BenchTable MakeTable<PagedTable>(storage::MemFileSystem* fs) {
  BenchTable out;
  out.pager =
      storage::Pager::Open(fs, "t.db", "t.wal", PagedOptions()).value();
  out.table = PagedTable::Create(out.pager.get(), BenchSchema()).value();
  return out;
}

template <typename T>
void BM_TableInsert(benchmark::State& state) {
  storage::MemFileSystem fs;
  BenchTable t = MakeTable<T>(&fs);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.table->Insert({Value(i++), Value("somebody"), Value(i * 3)}));
  }
  state.SetItemsProcessed(i);
}
BENCHMARK(BM_TableInsert<HeapTable>);
BENCHMARK(BM_TableInsert<ColumnTable>);
BENCHMARK(BM_TableInsert<PagedTable>)->Iterations(kPagedWrites);

// Arg: rows loaded (and read at random).
template <typename T>
void BM_TableGetColumn(benchmark::State& state) {
  storage::MemFileSystem fs;
  BenchTable t = MakeTable<T>(&fs);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    t.table->Insert({Value(i), Value("somebody"), Value(i * 3)}).ok();
  }
  Rng rng(3);
  Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.table->GetColumn(RowId(rng.Uniform(uint64_t(n))), 2, &v));
  }
}
BENCHMARK(BM_TableGetColumn<HeapTable>)->Arg(50000);
BENCHMARK(BM_TableGetColumn<ColumnTable>)->Arg(50000);
BENCHMARK(BM_TableGetColumn<PagedTable>)->Arg(20000)->Arg(50000);

void BM_MqProduceConsume(benchmark::State& state) {
  mq::Broker broker;
  broker.CreateTopic("bench", 4);
  mq::Producer producer(&broker, "bench");
  mq::Consumer consumer(&broker, "bench");
  for (auto _ : state) {
    producer.Send("k", "update-payload").ok();
    auto batch = consumer.Poll(1);
    benchmark::DoNotOptimize(batch.ok());
  }
}
BENCHMARK(BM_MqProduceConsume);

void BM_GraphsonTraversalRoundTrip(benchmark::State& state) {
  Traversal t;
  t.V()
      .HasIndexed("Person", "id", Value(12345))
      .As("p")
      .Both("knows")
      .Both("knows")
      .WhereNeq("p")
      .Dedup()
      .Values("id");
  for (auto _ : state) {
    std::string bytes = gremlinio::EncodeTraversal(t);
    auto decoded = gremlinio::DecodeTraversal(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_GraphsonTraversalRoundTrip);

void BM_PropertyMapCodecRoundTrip(benchmark::State& state) {
  PropertyMap props{{"id", Value(917)},
                    {"firstName", Value("Ada")},
                    {"lastName", Value("Lovelace")},
                    {"creationDate", Value(int64_t{123456789})}};
  for (auto _ : state) {
    std::string bytes;
    valuecodec::EncodePropertyMap(&bytes, props);
    std::string_view view(bytes);
    PropertyMap decoded;
    valuecodec::DecodePropertyMap(&view, &decoded);
    benchmark::DoNotOptimize(decoded.size());
  }
}
BENCHMARK(BM_PropertyMapCodecRoundTrip);

}  // namespace
}  // namespace graphbench

// Expanded BENCHMARK_MAIN() so the run can also emit a machine-readable
// report; the unrecognized-arguments check is skipped because this binary
// additionally accepts the shared --report_dir flag.
int main(int argc, char** argv) {
  using namespace graphbench;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The mq counters accumulated by BM_MqProduceConsume land in the
  // registry snapshot attached by WriteReport.
  obs::BenchReport report("micro_substrates");
  bench::WriteReport(report, argc, argv);
  return 0;
}
