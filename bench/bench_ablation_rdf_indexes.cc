// Ablation 3 (DESIGN.md §5): the RDF write tax. Virtuoso-SPARQL's slower
// updates (§4.3) are attributed to maintaining multiple indexes over one
// big triple table. This bench sweeps the triple store's index count 1-4
// and reports insert throughput and pattern-match latency, isolating
// maintenance cost vs read benefit.

#include <cstdio>

#include "bench_common.h"
#include "engines/rdf/triple_store.h"
#include "util/random.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace graphbench;
  std::printf("=== Ablation: triple-store index count (RDF write tax) "
              "===\n");
  const int64_t n = bench::FlagInt(argc, argv, "triples", 200000);

  TablePrinter table("Index count vs insert throughput and read latency");
  table.SetHeader({"Indexes", "Inserts/s", "?p?o match (us)",
                   "??o match (us)"});

  obs::BenchReport report("ablation_rdf_indexes");
  report.SetParam("triples", Json::Int(n));

  for (int indexes = 1; indexes <= 4; ++indexes) {
    TripleStore store(indexes);
    Rng rng(7);
    Stopwatch insert_clock;
    for (int64_t i = 0; i < n; ++i) {
      store.Insert(rng.Uniform(50000), rng.Uniform(16),
                   rng.Uniform(50000));
    }
    double inserts_per_s = double(n) / insert_clock.ElapsedSeconds();

    // Reads: predicate-bound and object-bound patterns, the shapes SNB
    // BGPs produce.
    std::vector<Triple> out;
    Stopwatch po_clock;
    for (int i = 0; i < 200; ++i) {
      out.clear();
      store.Match(kWildcard, rng.Uniform(16), rng.Uniform(50000), &out);
    }
    double po_us = double(po_clock.ElapsedMicros()) / 200.0;
    Stopwatch o_clock;
    for (int i = 0; i < 200; ++i) {
      out.clear();
      store.Match(kWildcard, kWildcard, rng.Uniform(50000), &out);
    }
    double o_us = double(o_clock.ElapsedMicros()) / 200.0;

    table.AddRow({std::to_string(indexes),
                  StringPrintf("%.0f", inserts_per_s),
                  StringPrintf("%.1f", po_us),
                  StringPrintf("%.1f", o_us)});
    Json metrics = Json::Object();
    metrics.Set("indexes", Json::Int(indexes));
    metrics.Set("inserts_per_second", Json::Number(inserts_per_s));
    metrics.Set("po_match_us", Json::Number(po_us));
    metrics.Set("o_match_us", Json::Number(o_us));
    report.AddSystem("indexes=" + std::to_string(indexes),
                     std::move(metrics));
  }
  table.Print();
  std::printf("\nExpected shape: insert throughput falls as indexes are "
              "added; unbound-subject reads collapse without POS/OSP.\n");
  bench::WriteReport(report, argc, argv);
  return 0;
}
