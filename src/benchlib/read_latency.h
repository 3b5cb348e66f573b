#ifndef GRAPHBENCH_BENCHLIB_READ_LATENCY_H_
#define GRAPHBENCH_BENCHLIB_READ_LATENCY_H_

#include <string>

#include "obs/report.h"
#include "snb/datagen.h"

namespace graphbench {
namespace benchlib {

struct ReadLatencyOptions {
  /// Executions per query type (the paper uses 100).
  int repetitions = 100;
  uint64_t seed = 77;
  /// When true (the --profile flag), captures a per-operator QueryProfile
  /// per (SUT, query type), prints the breakdowns — with the fraction of
  /// the measured latency the instrumented operators account for — and
  /// embeds them under "profiles" in each system's report entry.
  bool profile = false;
  /// When true (the --plan_cache flag), every SUT runs with its engine
  /// plan cache enabled (DESIGN.md §8); each system's report entry then
  /// embeds a "plan_cache" section with the cache traffic. Off by default — parse-per-call is the paper's
  /// methodology.
  bool plan_cache = false;
};

/// Runs the §4.2 read-only experiment — point lookup, 1-hop, 2-hop,
/// single-pair shortest path, each `repetitions` times with no concurrent
/// load — against all eight SUTs, and prints the Table 2/3-shaped result
/// (mean latency in ms) plus a ratio row (each system vs the row's best).
/// Returns the printed table as a string (for tests). When `report` is
/// non-null, adds one system entry per SUT with per-query mean latencies.
std::string RunReadLatencyTable(const snb::DatagenOptions& scale,
                                const ReadLatencyOptions& options,
                                const std::string& title,
                                obs::BenchReport* report = nullptr);

}  // namespace benchlib
}  // namespace graphbench

#endif  // GRAPHBENCH_BENCHLIB_READ_LATENCY_H_
