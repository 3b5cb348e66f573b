#ifndef GRAPHBENCH_OBS_METRICS_H_
#define GRAPHBENCH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.h"
#include "util/stopwatch.h"

namespace graphbench {
namespace obs {

/// Compile-time kill switch: configure with -DGRAPHBENCH_OBS=OFF to define
/// GRAPHBENCH_OBS_DISABLED, turning every instrumentation point into dead
/// code the optimizer removes. Used to measure the instrumentation tax
/// itself (the acceptance bar is < 3% on the Figure 3 read path).
#ifdef GRAPHBENCH_OBS_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Monotonically increasing event count. Increment is one relaxed atomic
/// add; safe from any thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if constexpr (kEnabled) value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (queue depth, consumer lag). Set/Add are relaxed
/// atomics; safe from any thread.
class Gauge {
 public:
  void Set(int64_t v) {
    if constexpr (kEnabled) value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if constexpr (kEnabled) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of one registry, for report serialization.
struct MetricsSnapshot {
  struct HistogramStats {
    uint64_t count = 0;
    double mean = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;
};

MetricsSnapshot::HistogramStats SummarizeHistogram(const Histogram& h);

/// Thread-safe registry of named counters, gauges, and latency histograms.
/// Get* creates on first use and returns a pointer that stays valid for
/// the registry's lifetime, so hot paths look a metric up once (e.g. in a
/// constructor or function-local static) and then touch only the atomic.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Sorted by name; histograms are summarized to percentile stats.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every counter/gauge and clears every histogram (names and
  /// pointers survive). Benches call this between per-system runs.
  void Reset();

  /// The process-wide registry every built-in instrumentation point
  /// records into.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Per-SUT read/write probe, named "sut.<id>.{reads,read_micros,
/// read_errors}" and "sut.<id>.{writes,write_micros,write_errors}" in the
/// default registry. The Sut facade holds one and brackets every read and
/// write with Start() and EndRead()/EndWrite(). Only ok results count as
/// reads/writes and add latency; a failure counts only as an error, so a
/// fast rejection never passes for a fast success.
class SutProbe {
 public:
  explicit SutProbe(std::string_view sut_id);

  /// Start stamp for one operation; no clock read when obs is compiled out.
  static uint64_t Start() {
    if constexpr (kEnabled) return NowMicros();
    return 0;
  }
  void EndRead(uint64_t start, bool ok) const {
    End(start, ok, read_micros_, reads_, read_errors_);
  }
  void EndWrite(uint64_t start, bool ok) const {
    End(start, ok, write_micros_, writes_, write_errors_);
  }

 private:
  static void End(uint64_t start, bool ok, Histogram* micros, Counter* done,
                  Counter* errors) {
    if constexpr (kEnabled) {
      if (!ok) {
        errors->Increment();
        return;
      }
      micros->Add(NowMicros() - start);
      done->Increment();
    }
  }

  Counter* reads_;
  Counter* writes_;
  Counter* read_errors_;
  Counter* write_errors_;
  Histogram* read_micros_;
  Histogram* write_micros_;
};

}  // namespace obs
}  // namespace graphbench

#endif  // GRAPHBENCH_OBS_METRICS_H_
