#ifndef GRAPHBENCH_UTIL_HISTOGRAM_H_
#define GRAPHBENCH_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace graphbench {

/// Log-bucketed latency histogram (HdrHistogram-style). Records values in
/// microseconds; reports count/mean/percentiles. Values below 64 us are
/// exact; above, each doubling splits into 16 buckets out to 2^36 us
/// (~19 hours), so a percentile is within 1/16 of the true sample.
/// Not thread-safe: single owner; `Merge` after join.
class Histogram {
 public:
  Histogram();

  void Add(uint64_t micros);
  void Merge(const Histogram& other);
  void Clear();

  uint64_t count() const { return count_; }
  double mean() const;
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }

  /// p in (0, 100]: the nearest-rank sample's bucket, reported as the
  /// largest value that bucket holds, clamped to max().
  double Percentile(double p) const;

  /// One-line summary: "cnt=... mean=...us p50=... p95=... p99=... max=...".
  std::string ToString() const;

 private:
  static constexpr int kLinearBits = 6;  // values < 64 get one bucket each
  static constexpr int kSubBits = 4;     // 16 buckets per doubling
  static constexpr int kMaxBits = 36;    // log buckets cover [64, 2^36)
  // Linear range, the log range, and one overflow bucket.
  static constexpr size_t kNumBuckets =
      (size_t(1) << kLinearBits) +
      (size_t(kMaxBits - kLinearBits) << kSubBits) + 1;
  static size_t BucketFor(uint64_t v);
  // Exclusive upper bound of bucket `b`.
  static uint64_t BucketUpper(size_t b);

  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
  std::vector<uint64_t> buckets_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_UTIL_HISTOGRAM_H_
