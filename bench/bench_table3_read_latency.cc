// Reproduces Table 3: same experiment as Table 2 on the ~3x larger
// SF10-analog dataset, exposing how each architecture's latency scales
// with graph size (Neo4j/Cypher should be the least size-sensitive).

#include "bench_common.h"
#include "benchlib/read_latency.h"

int main(int argc, char** argv) {
  using namespace graphbench;
  benchlib::ReadLatencyOptions options;
  options.repetitions = int(bench::FlagInt(argc, argv, "reps", 100));
  options.profile = bench::FlagBool(argc, argv, "profile", false);
  options.plan_cache = bench::FlagBool(argc, argv, "plan_cache", false);
  obs::BenchReport report("table3_read_latency", "SF-B (SF10 analog)");
  benchlib::RunReadLatencyTable(
      snb::ScaleB(), options,
      "Table 3 analog — query latencies in ms, SF-B (SF10 analog)", &report);
  bench::WriteReport(report, argc, argv);
  return 0;
}
