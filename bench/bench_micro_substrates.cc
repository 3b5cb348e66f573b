// Google-benchmark microbenchmarks for the storage substrates: KV stores
// (B+-tree vs LSM), table stores (row vs columnar), the message queue, and
// the wire codecs. These calibrate the building blocks underneath the
// paper-level experiments.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/value_codec.h"
#include "kv/btree_kv.h"
#include "kv/key_codec.h"
#include "kv/lsm_kv.h"
#include "mq/broker.h"
#include "storage/column_table.h"
#include "storage/heap_table.h"
#include "tinkerpop/bytecode.h"
#include "util/random.h"

namespace graphbench {
namespace {

std::string Key(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%012llu", (unsigned long long)i);
  return buf;
}

template <typename Kv>
std::unique_ptr<KvStore> MakeKv() {
  return std::make_unique<Kv>();
}

template <typename Kv>
void BM_KvPut(benchmark::State& state) {
  auto kv = MakeKv<Kv>();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv->Put(Key(i++), "value-payload-64-bytes"));
  }
  state.SetItemsProcessed(int64_t(i));
}
BENCHMARK(BM_KvPut<BTreeKv>);
BENCHMARK(BM_KvPut<LsmKv>);

template <typename Kv>
void BM_KvGet(benchmark::State& state) {
  auto kv = MakeKv<Kv>();
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) kv->Put(Key(i), "v");
  Rng rng(1);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv->Get(Key(rng.Uniform(kN)), &value));
  }
}
BENCHMARK(BM_KvGet<BTreeKv>);
BENCHMARK(BM_KvGet<LsmKv>);

template <typename Kv>
void BM_KvScanPrefix(benchmark::State& state) {
  auto kv = MakeKv<Kv>();
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

template <typename T>
void BM_TableInsert(benchmark::State& state) {
  T table(BenchSchema());
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Insert({Value(i++), Value("somebody"), Value(i * 3)}));
  }
  state.SetItemsProcessed(i);
}
BENCHMARK(BM_TableInsert<HeapTable>);
BENCHMARK(BM_TableInsert<ColumnTable>);

template <typename T>
void BM_TableGetColumn(benchmark::State& state) {
  T table(BenchSchema());
  for (int64_t i = 0; i < 50000; ++i) {
    table.Insert({Value(i), Value("somebody"), Value(i * 3)}).ok();
  }
  Rng rng(3);
  Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.GetColumn(RowId(rng.Uniform(50000)), 2, &v));
  }
}
BENCHMARK(BM_TableGetColumn<HeapTable>);
BENCHMARK(BM_TableGetColumn<ColumnTable>);

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
