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
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
};

/// Thread-safe registry of named counters and gauges. Latency is timed by
/// whoever drives a call (the driver's per-thread histograms, a bench's
/// recorder), never here. Get* creates on first use and returns a pointer
/// that stays valid for the registry's lifetime, so hot paths look a
/// metric up once (e.g. in a constructor or function-local static) and
/// then touch only the atomic.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  /// Sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every counter and gauge (names and pointers survive). Benches
  /// call this between per-system runs.
  void Reset();

  /// The process-wide registry every built-in instrumentation point
  /// records into.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// Per-SUT read/write counters, named "sut.<id>.{reads,read_errors}" and
/// "sut.<id>.{writes,write_errors}" in the default registry. The Sut facade
/// holds one and counts every read and write with EndRead()/EndWrite().
/// Only ok results count as reads/writes; a failure counts only as an
/// error. The probe reads no clock: the caller that drives an operation
/// times it.
class SutProbe {
 public:
  explicit SutProbe(std::string_view sut_id);

  void EndRead(bool ok) const { End(ok, reads_, read_errors_); }
  void EndWrite(bool ok) const { End(ok, writes_, write_errors_); }

 private:
  static void End(bool ok, Counter* done, Counter* errors) {
    (ok ? done : errors)->Increment();
  }

  Counter* reads_;
  Counter* writes_;
  Counter* read_errors_;
  Counter* write_errors_;
};

}  // namespace obs
}  // namespace graphbench

#endif  // GRAPHBENCH_OBS_METRICS_H_
