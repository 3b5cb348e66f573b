// Ablation 4 (DESIGN.md §5): row vs columnar write path. Figure 3's
// Postgres-over-Virtuoso write advantage (§4.3: ~1.6x) is attributed to
// storage format. This bench inserts identical SNB-person rows into the
// two Table implementations and reports insert throughput, then the
// read-side counterpoint: single-column projection scans.

#include <cstdio>

#include "bench_common.h"
#include "storage/column_table.h"
#include "storage/heap_table.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace graphbench {
namespace {

TableSchema PersonSchema() {
  using T = Value::Type;
  return TableSchema("person", {{"id", T::kInt},
                                {"firstName", T::kString},
                                {"lastName", T::kString},
                                {"gender", T::kString},
                                {"birthday", T::kInt},
                                {"creationDate", T::kInt},
                                {"browserUsed", T::kString},
                                {"locationIP", T::kString},
                                {"cityId", T::kInt}});
}

Row MakeRow(Rng* rng, int64_t id) {
  return Row{Value(id),
             Value("First" + std::to_string(rng->Uniform(100))),
             Value("Last" + std::to_string(rng->Uniform(100))),
             Value(rng->Bernoulli(0.5) ? "male" : "female"),
             Value(int64_t(rng->Uniform(1u << 30))),
             Value(int64_t(rng->Uniform(1u << 30))),
             Value("Firefox"),
             Value("10.0.0.1"),
             Value(int64_t(rng->Uniform(50)))};
}

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== Ablation: row store vs column store write/read paths "
              "===\n");
  const int64_t n = bench::FlagInt(argc, argv, "rows", 100000);

  TablePrinter table("Row vs columnar storage (same schema, same data)");
  table.SetHeader({"Store", "Inserts/s", "Full-row get (us)",
                   "1-col projection scan (ms)"});

  obs::BenchReport report("ablation_row_vs_column");
  report.SetParam("rows", Json::Int(n));

  for (const char* which : {"heap (row)", "columnar"}) {
    std::unique_ptr<Table> t;
    if (std::string(which) == "heap (row)") {
      t = std::make_unique<HeapTable>(PersonSchema());
    } else {
      t = std::make_unique<ColumnTable>(PersonSchema());
    }
    Rng rng(3);
    Stopwatch insert_clock;
    for (int64_t i = 0; i < n; ++i) {
      if (!t->Insert(MakeRow(&rng, i)).ok()) return 1;
    }
    double inserts_per_s = double(n) / insert_clock.ElapsedSeconds();

    Stopwatch get_clock;
    Row row;
    for (int i = 0; i < 5000; ++i) {
      t->Get(RowId(rng.Uniform(uint64_t(n))), &row).ok();
    }
    double get_us = double(get_clock.ElapsedMicros()) / 5000.0;

    Stopwatch scan_clock;
    Value v;
    uint64_t sum = 0;
    std::vector<RowId> ids;
    t->LiveRowIds(&ids).ok();
    for (RowId id : ids) {
      t->GetColumn(id, 0, &v);
      sum += uint64_t(v.as_int());
    }
    double scan_ms = scan_clock.ElapsedMillis();

    table.AddRow({which, StringPrintf("%.0f", inserts_per_s),
                  StringPrintf("%.2f", get_us),
                  StringPrintf("%.1f (checksum %llu)", scan_ms,
                               (unsigned long long)(sum & 0xffff))});
    Json metrics = Json::Object();
    metrics.Set("inserts_per_second", Json::Number(inserts_per_s));
    metrics.Set("full_row_get_us", Json::Number(get_us));
    metrics.Set("projection_scan_ms", Json::Number(scan_ms));
    report.AddSystem(which, std::move(metrics));
  }
  table.Print();
  std::printf("\nExpected shape: the row store wins inserts and full-row "
              "gets; the column store wins narrow projections.\n");
  bench::WriteReport(report, argc, argv);
  return 0;
}
