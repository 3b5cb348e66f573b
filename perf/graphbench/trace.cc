#include "graphbench/trace.h"

#include <chrono>
#include <cstdio>

namespace graphbench {
namespace perf {

double NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

Status WriteTraceFile(const std::string& path, const std::string& workload,
                      uint64_t seed, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[",
               workload.c_str(), (unsigned long long)seed);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"trace_id\":%llu,\"span_id\":%llu,\"parent_id\":%llu,"
                 "\"name\":\"%s\",\"sut\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f}",
                 i == 0 ? "" : ",", (unsigned long long)s.trace_id,
                 (unsigned long long)s.span_id,
                 (unsigned long long)s.parent_id, s.name, s.sut, s.start_us,
                 s.end_us);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);
  return Status::OK();
}

}  // namespace perf
}  // namespace graphbench
