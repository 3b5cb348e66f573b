#include "obs/report.h"

#include <cstdio>

namespace graphbench {
namespace obs {

BenchReport::BenchReport(std::string bench_name, std::string scale)
    : bench_name_(std::move(bench_name)), scale_(std::move(scale)) {}

void BenchReport::SetParam(std::string_view key, Json value) {
  params_.Set(std::string(key), std::move(value));
}

void BenchReport::AddSystem(std::string_view system, Json metrics) {
  if (!metrics.Has("system")) {
    // Rebuild with "system" leading so reports read naturally.
    Json entry = Json::Object();
    entry.Set("system", Json::Str(std::string(system)));
    for (const auto& [key, value] : metrics.object_pairs()) {
      entry.Set(key, value);
    }
    metrics = std::move(entry);
  }
  systems_.Append(std::move(metrics));
}

void BenchReport::AttachRegistry(const MetricsRegistry& registry) {
  MetricsSnapshot snap = registry.Snapshot();
  Json counters = Json::Object();
  for (const auto& [name, value] : snap.counters) {
    counters.Set(name, Json::Int(int64_t(value)));
  }
  Json gauges = Json::Object();
  for (const auto& [name, value] : snap.gauges) {
    gauges.Set(name, Json::Int(value));
  }
  metrics_ = Json::Object();
  metrics_.Set("counters", std::move(counters));
  metrics_.Set("gauges", std::move(gauges));
}

Json BenchReport::ToJson() const {
  Json root = Json::Object();
  root.Set("schema_version", Json::Int(kSchemaVersion));
  root.Set("bench", Json::Str(bench_name_));
  root.Set("scale", Json::Str(scale_));
  root.Set("params", params_);
  root.Set("systems", systems_);
  root.Set("metrics", metrics_);
  return root;
}

Result<std::string> BenchReport::WriteFile(std::string_view dir) const {
  std::string path = std::string(dir);
  if (!path.empty() && path.back() != '/') path += '/';
  path += "BENCH_" + bench_name_ + ".json";
  std::string body = ToJson().Serialize();
  body += '\n';
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  int close_err = std::fclose(f);
  if (written != body.size() || close_err != 0) {
    return Status::Internal("short write to " + path);
  }
  return path;
}

Json HistogramJson(const Histogram& h) {
  Json out = Json::Object();
  out.Set("count", Json::Int(int64_t(h.count())));
  out.Set("mean_us", Json::Number(h.mean()));
  out.Set("min_us", Json::Int(int64_t(h.min())));
  out.Set("max_us", Json::Int(int64_t(h.max())));
  out.Set("p50_us", Json::Number(h.Percentile(50)));
  out.Set("p95_us", Json::Number(h.Percentile(95)));
  out.Set("p99_us", Json::Number(h.Percentile(99)));
  return out;
}

Json DriverMetricsJson(const DriverMetrics& metrics) {
  Json out = Json::Object();
  out.Set("reads_completed", Json::Int(int64_t(metrics.reads_completed)));
  out.Set("read_errors", Json::Int(int64_t(metrics.read_errors)));
  out.Set("writes_completed",
          Json::Int(int64_t(metrics.writes_completed)));
  out.Set("write_errors", Json::Int(int64_t(metrics.write_errors)));
  out.Set("dependency_violations",
          Json::Int(int64_t(metrics.dependency_violations)));
  out.Set("late_writes", Json::Int(int64_t(metrics.late_writes)));
  out.Set("elapsed_seconds", Json::Number(metrics.elapsed_seconds));
  out.Set("write_seconds", Json::Number(metrics.write_seconds));
  out.Set("reads_per_second", Json::Number(metrics.reads_per_second));
  out.Set("writes_per_second", Json::Number(metrics.writes_per_second));
  out.Set("read_latency", HistogramJson(metrics.read_latency_micros));
  out.Set("write_latency", HistogramJson(metrics.write_latency_micros));
  out.Set("read_error_latency",
          HistogramJson(metrics.read_error_latency_micros));
  out.Set("write_error_latency",
          HistogramJson(metrics.write_error_latency_micros));
  out.Set("write_schedule_latency",
          HistogramJson(metrics.write_schedule_latency_micros));
  out.Set("timeline_bucket_millis",
          Json::Int(metrics.timeline_bucket_millis));
  Json reads = Json::Array();
  for (uint64_t n : metrics.read_timeline) reads.Append(Json::Int(int64_t(n)));
  Json writes = Json::Array();
  for (uint64_t n : metrics.write_timeline) {
    writes.Append(Json::Int(int64_t(n)));
  }
  out.Set("read_timeline", std::move(reads));
  out.Set("write_timeline", std::move(writes));
  out.Set("slow_queries", SlowLogJson(metrics.slow_queries));
  return out;
}

Json ProfileJson(const QueryProfile& profile) {
  Json out = Json::Object();
  out.Set("total_self_micros",
          Json::Int(int64_t(profile.TotalSelfMicros())));
  Json ops = Json::Array();
  for (const OpStats& s : profile.ops()) {
    Json row = Json::Object();
    row.Set("op", Json::Str(s.name));
    row.Set("invocations", Json::Int(int64_t(s.invocations)));
    row.Set("rows", Json::Int(int64_t(s.rows)));
    row.Set("self_micros", Json::Int(int64_t(s.self_micros)));
    row.Set("cumulative_micros", Json::Int(int64_t(s.cumulative_micros)));
    ops.Append(std::move(row));
  }
  out.Set("ops", std::move(ops));
  return out;
}

Json SlowLogJson(const std::vector<SlowQueryEntry>& entries) {
  Json out = Json::Array();
  for (const SlowQueryEntry& e : entries) {
    Json entry = Json::Object();
    entry.Set("kind", Json::Str(e.kind));
    if (!e.statement.empty()) {
      entry.Set("statement", Json::Str(e.statement));
    }
    entry.Set("params", Json::Str(e.param_digest));
    entry.Set("latency_micros", Json::Int(int64_t(e.latency_micros)));
    entry.Set("profile", ProfileJson(e.profile));
    out.Append(std::move(entry));
  }
  return out;
}

}  // namespace obs
}  // namespace graphbench
