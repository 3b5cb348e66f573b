#ifndef GRAPHBENCH_OBS_REPORT_H_
#define GRAPHBENCH_OBS_REPORT_H_

#include <string>
#include <string_view>

#include "driver/driver.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slowlog.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/result.h"

namespace graphbench {
namespace obs {

/// Machine-readable benchmark report, serialized as BENCH_<name>.json so
/// runs can be diffed across commits (the per-operation latency reporting
/// the LDBC SNB Interactive spec mandates). Schema (all keys always
/// present, see DESIGN.md "Observability & bench reports"):
///
///   {
///     "schema_version": 2,
///     "bench":   "<name>",
///     "scale":   "<dataset description>",
///     "params":  { flag: value, ... },
///     "systems": [ { "system": "...", <metric>: ... }, ... ],
///     "metrics": { "counters": {...}, "gauges": {...} }
///   }
///
/// Latency lives only in "systems" entries, timed by the driver or bench
/// that drove each call; "metrics" holds the registry's counters and
/// gauges. Older v2 reports also carry a "metrics.histograms" map that no
/// reader uses.
///
/// Schema v2 additions (all inside "systems" entries): "profiles"
/// (per-query-type per-operator breakdowns, see ProfileJson),
/// "slow_queries" (the slow-query log, see SlowLogJson),
/// "write_schedule_latency" and "timeline_bucket_millis" (schedule-aware
/// driver metrics, see DriverMetricsJson).
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name, std::string scale = "");

  const std::string& bench_name() const { return bench_name_; }
  void set_scale(std::string scale) { scale_ = std::move(scale); }

  /// Run parameter recorded under "params" (reader count, reps, ...).
  void SetParam(std::string_view key, Json value);

  /// Appends one measured configuration under "systems". The object
  /// should carry a "system" key; AddSystem inserts it if missing.
  void AddSystem(std::string_view system, Json metrics);

  /// Snapshot of a registry, stored under "metrics".
  void AttachRegistry(const MetricsRegistry& registry);

  Json ToJson() const;

  /// Serializes to `<dir>/BENCH_<bench_name>.json` ("." by default).
  /// Returns the path written.
  Result<std::string> WriteFile(std::string_view dir = ".") const;

  static constexpr int kSchemaVersion = 2;

 private:
  std::string bench_name_;
  std::string scale_;
  Json params_ = Json::Object();
  Json systems_ = Json::Array();
  Json metrics_ = Json::Object();
};

/// Histogram -> {"count","mean_us","min_us","max_us","p50_us","p95_us",
/// "p99_us"}.
Json HistogramJson(const Histogram& h);

/// DriverMetrics -> one "systems" entry body: op counts, rates, latency
/// summaries (service latency of ok ops, "read_error_latency"/
/// "write_error_latency" of failed ops and, in paced mode, schedule-aware
/// write latency), the Figure 3 read/write timelines with their bucket
/// width, and any captured slow queries.
Json DriverMetricsJson(const DriverMetrics& metrics);

/// QueryProfile -> {"total_self_micros", "ops": [{"op", "invocations",
/// "rows", "self_micros", "cumulative_micros"}, ...]} in first-execution
/// order.
Json ProfileJson(const QueryProfile& profile);

/// Slow-query entries -> [{"kind", "params", "latency_micros",
/// "profile"}, ...], worst first.
Json SlowLogJson(const std::vector<SlowQueryEntry>& entries);

}  // namespace obs
}  // namespace graphbench

#endif  // GRAPHBENCH_OBS_REPORT_H_
