#include "util/histogram.h"

#include <algorithm>
#include <cstdio>

namespace graphbench {

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

// Bucket layout: values below 2^kLinearBits map to themselves. Above,
// the doubling [2^e, 2^(e+1)) splits into 2^kSubBits buckets of width
// 2^(e-kSubBits), so a bucket's width is at most 1/16 of its lower bound.
size_t Histogram::BucketFor(uint64_t v) {
  constexpr uint64_t kLinear = uint64_t(1) << kLinearBits;
  if (v < kLinear) return size_t(v);
  const int e = 63 - __builtin_clzll(v);
  if (e >= kMaxBits) return kNumBuckets - 1;
  const uint64_t sub = (v >> (e - kSubBits)) - (uint64_t(1) << kSubBits);
  return size_t(kLinear + (uint64_t(e - kLinearBits) << kSubBits) + sub);
}

uint64_t Histogram::BucketUpper(size_t b) {
  constexpr size_t kLinear = size_t(1) << kLinearBits;
  if (b < kLinear) return b + 1;
  if (b >= kNumBuckets - 1) return ~uint64_t(0);
  const int e = kLinearBits + int((b - kLinear) >> kSubBits);
  const uint64_t sub = (b - kLinear) & ((size_t(1) << kSubBits) - 1);
  return (uint64_t(1) << e) + ((sub + 1) << (e - kSubBits));
}

void Histogram::Add(uint64_t micros) {
  ++count_;
  sum_ += micros;
  min_ = std::min(min_, micros);
  max_ = std::max(max_, micros);
  ++buckets_[BucketFor(micros)];
}

void Histogram::Merge(const Histogram& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::Clear() {
  count_ = 0;
  sum_ = 0;
  min_ = ~0ull;
  max_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : double(sum_) / double(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  uint64_t threshold = uint64_t(double(count_) * p / 100.0 + 0.5);
  if (threshold == 0) threshold = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= threshold) {
      return double(std::min(BucketUpper(b) - 1, max_));
    }
  }
  return double(max_);
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "cnt=%llu mean=%.1fus p50=%.0f p95=%.0f p99=%.0f max=%lluus",
                (unsigned long long)count(), mean(), Percentile(50),
                Percentile(95), Percentile(99), (unsigned long long)max());
  return buf;
}

}  // namespace graphbench
