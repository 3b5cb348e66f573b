#ifndef GRAPHBENCH_PERF_GRAPHBENCH_LATENCY_RECORDER_H_
#define GRAPHBENCH_PERF_GRAPHBENCH_LATENCY_RECORDER_H_

#include <vector>

namespace graphbench {
namespace perf {

/// Exact latency samples for one generator thread. Every sample is kept
/// (no buckets, so no upper clip), successful and failed operations are
/// kept apart (a fast rejection never reads as a fast answer), and each
/// thread owns its recorder so the hot path takes no lock; recorders are
/// merged after the threads join.
class LatencyRecorder {
 public:
  void Record(double micros, bool ok) {
    (ok ? ok_ : failed_).push_back(micros);
  }

  /// Appends every sample of `other`.
  void Merge(const LatencyRecorder& other);

  const std::vector<double>& ok() const { return ok_; }
  const std::vector<double>& failed() const { return failed_; }

  /// Nearest-rank percentile of the successful samples (0 when none).
  double OkPercentile(double p) const { return NearestRank(ok_, p); }

  /// The smallest sample with at least `p` percent of `samples` at or
  /// below it: the ceil(p/100 * n)-th smallest, for p in (0, 100]. Returns
  /// 0 for an empty vector.
  static double NearestRank(std::vector<double> samples, double p);

 private:
  std::vector<double> ok_;
  std::vector<double> failed_;
};

}  // namespace perf
}  // namespace graphbench

#endif  // GRAPHBENCH_PERF_GRAPHBENCH_LATENCY_RECORDER_H_
