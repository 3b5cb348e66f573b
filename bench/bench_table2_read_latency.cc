// Reproduces Table 2: mean read-only query latencies (ms) on the SF3-analog
// dataset — point lookup, 1-hop, 2-hop, single-pair shortest path across
// all eight system configurations, 100 repetitions each, no concurrency.

#include "bench_common.h"
#include "benchlib/read_latency.h"

int main(int argc, char** argv) {
  using namespace graphbench;
  benchlib::ReadLatencyOptions options;
  options.repetitions = int(bench::FlagInt(argc, argv, "reps", 100));
  options.profile = bench::FlagBool(argc, argv, "profile", false);
  options.plan_cache = bench::FlagBool(argc, argv, "plan_cache", false);
  obs::BenchReport report("table2_read_latency", "SF-A (SF3 analog)");
  benchlib::RunReadLatencyTable(
      snb::ScaleA(), options,
      "Table 2 analog — query latencies in ms, SF-A (SF3 analog)", &report);
  bench::WriteReport(report, argc, argv);
  return 0;
}
