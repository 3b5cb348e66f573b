#ifndef GRAPHBENCH_PERF_GRAPHBENCH_TRACE_H_
#define GRAPHBENCH_PERF_GRAPHBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace graphbench {
namespace perf {

/// Microseconds on the steady clock since the first call in the process.
double NowUs();

/// One timed interval around a call the benchmark makes. Spans of one
/// request share `trace_id`; the request's root span has parent_id 0.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  const char* name = "";  // string literals only
  const char* sut = "";
  double start_us = 0;
  double end_us = 0;
};

/// The spans of one thread, kept in memory until the run ends. Ids are
/// unique across logs because each log stamps its own tag in the high
/// bits. Past `capacity` spans are dropped, which bounds the trace file:
/// the per-layer numbers come from counters and profiles over every
/// request, the spans only show the shape of individual requests.
class SpanLog {
 public:
  SpanLog(uint32_t tag, size_t capacity) : tag_(tag), capacity_(capacity) {}

  uint64_t NextId() { return (uint64_t(tag_) << 40) | ++next_; }
  bool full() const { return spans_.size() >= capacity_; }
  void Add(const Span& span) {
    if (!full()) spans_.push_back(span);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tag_;
  size_t capacity_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Writes `{"workload":..., "seed":..., "spans":[...]}` to `path`.
Status WriteTraceFile(const std::string& path, const std::string& workload,
                      uint64_t seed, const std::vector<Span>& spans);

}  // namespace perf
}  // namespace graphbench

#endif  // GRAPHBENCH_PERF_GRAPHBENCH_TRACE_H_
