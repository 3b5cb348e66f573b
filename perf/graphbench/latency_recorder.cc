#include "graphbench/latency_recorder.h"

#include <algorithm>
#include <cmath>

namespace graphbench {
namespace perf {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  ok_.insert(ok_.end(), other.ok_.begin(), other.ok_.end());
  failed_.insert(failed_.end(), other.failed_.begin(), other.failed_.end());
}

double LatencyRecorder::NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const double n = double(samples.size());
  // The epsilon keeps p = 99.9 of n = 1000 at rank 999: 99.9 has no exact
  // double, and its product with n lands a hair above the integer.
  size_t rank =
      size_t(std::ceil(std::clamp(p, 0.0, 100.0) * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + std::ptrdiff_t(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace perf
}  // namespace graphbench
