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

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  return GetOrCreate(&mu_, &counters_, name);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  return GetOrCreate(&mu_, &gauges_, name);
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
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
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
}

}  // namespace obs
}  // namespace graphbench
