#include "obs/metrics.h"

#include <string>

namespace graphbench {
namespace obs {

namespace {

template <typename T>
T* GetOrCreate(std::mutex* mu,
               std::map<std::string, std::unique_ptr<T>, std::less<>>* map,
               std::string_view name) {
  std::lock_guard<std::mutex> lock(*mu);
  auto it = map->find(name);
  if (it == map->end()) {
    it = map->emplace(std::string(name), std::make_unique<T>()).first;
  }
  return it->second.get();
}

}  // namespace

MetricsSnapshot::HistogramStats SummarizeHistogram(const Histogram& h) {
  MetricsSnapshot::HistogramStats stats;
  stats.count = h.count();
  stats.mean = h.mean();
  stats.min = h.min();
  stats.max = h.max();
  stats.p50 = h.Percentile(50);
  stats.p95 = h.Percentile(95);
  stats.p99 = h.Percentile(99);
  return stats;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  return GetOrCreate(&mu_, &counters_, name);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  return GetOrCreate(&mu_, &gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  return GetOrCreate(&mu_, &histograms_, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, SummarizeHistogram(*h));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Clear();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

SutProbe::SutProbe(std::string_view sut_id) {
  std::string base = "sut." + std::string(sut_id);
  MetricsRegistry& reg = MetricsRegistry::Default();
  reads_ = reg.GetCounter(base + ".reads");
  writes_ = reg.GetCounter(base + ".writes");
  read_errors_ = reg.GetCounter(base + ".read_errors");
  write_errors_ = reg.GetCounter(base + ".write_errors");
  read_micros_ = reg.GetHistogram(base + ".read_micros");
  write_micros_ = reg.GetHistogram(base + ".write_micros");
}

}  // namespace obs
}  // namespace graphbench
