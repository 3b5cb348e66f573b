#include "obs/profiler.h"

#include "util/string_util.h"
#include "util/table_printer.h"

namespace graphbench {
namespace obs {

void QueryProfile::Record(std::string_view op, uint64_t invocations,
                          uint64_t rows, uint64_t self_micros,
                          uint64_t cumulative_micros) {
  for (OpStats& s : ops_) {
    if (s.name == op) {
      s.invocations += invocations;
      s.rows += rows;
      s.self_micros += self_micros;
      s.cumulative_micros += cumulative_micros;
      return;
    }
  }
  ops_.push_back(OpStats{std::string(op), invocations, rows, self_micros,
                         cumulative_micros});
}

void QueryProfile::Merge(const QueryProfile& other) {
  for (const OpStats& s : other.ops_) {
    Record(s.name, s.invocations, s.rows, s.self_micros,
           s.cumulative_micros);
  }
}

const OpStats* QueryProfile::Find(std::string_view op) const {
  for (const OpStats& s : ops_) {
    if (s.name == op) return &s;
  }
  return nullptr;
}

uint64_t QueryProfile::TotalSelfMicros() const {
  uint64_t total = 0;
  for (const OpStats& s : ops_) total += s.self_micros;
  return total;
}

std::string QueryProfile::ToString(const std::string& title) const {
  TablePrinter table(title.empty() ? "Query profile" : title);
  table.SetHeader({"Operator", "Invocations", "Rows", "Self ms", "Cum ms"});
  for (const OpStats& s : ops_) {
    table.AddRow({s.name, std::to_string(s.invocations),
                  std::to_string(s.rows),
                  StringPrintf("%.3f", double(s.self_micros) / 1000.0),
                  StringPrintf("%.3f",
                               double(s.cumulative_micros) / 1000.0)});
  }
  return table.ToString();
}

#ifndef GRAPHBENCH_OBS_DISABLED

namespace {

// Per-thread profiling context: the active profile plus the innermost live
// OpTimer's child-time accumulator (how nested timers report their elapsed
// time up so the parent can compute self = elapsed - children).
struct ProfilerTls {
  QueryProfile* active = nullptr;
  uint64_t* child_micros = nullptr;
};

ProfilerTls& Tls() {
  thread_local ProfilerTls tls;
  return tls;
}

}  // namespace

QueryProfile* ActiveProfile() { return Tls().active; }

ProfileScope::ProfileScope(QueryProfile* profile) {
  ProfilerTls& tls = Tls();
  prev_profile_ = tls.active;
  prev_child_micros_ = tls.child_micros;
  tls.active = profile;
  // Timers opened inside this scope must not leak elapsed time into a
  // timer of the enclosing scope.
  tls.child_micros = nullptr;
}

ProfileScope::~ProfileScope() {
  ProfilerTls& tls = Tls();
  tls.active = prev_profile_;
  tls.child_micros = prev_child_micros_;
}

OpTimer::OpTimer(std::string_view name, uint64_t start_micros) {
  ProfilerTls& tls = Tls();
  if (tls.active == nullptr) return;
  profile_ = tls.active;
  name_ = name;
  parent_child_micros_ = tls.child_micros;
  tls.child_micros = &child_micros_;
  start_ = start_micros != 0 ? start_micros : NowMicros();
}

uint64_t OpTimer::Stop() {
  if (profile_ == nullptr) return 0;
  const uint64_t now = NowMicros();
  uint64_t elapsed = now - start_;
  ProfilerTls& tls = Tls();
  tls.child_micros = parent_child_micros_;
  if (parent_child_micros_ != nullptr) *parent_child_micros_ += elapsed;
  // Children ran within this scope, so their sum cannot exceed elapsed
  // beyond clock granularity; saturate for safety.
  uint64_t self =
      elapsed >= child_micros_ ? elapsed - child_micros_ : 0;
  profile_->Record(name_, 1, rows_, self, elapsed);
  profile_ = nullptr;
  return now;
}

#else  // GRAPHBENCH_OBS_DISABLED

QueryProfile* ActiveProfile() { return nullptr; }
ProfileScope::ProfileScope(QueryProfile*) {}
ProfileScope::~ProfileScope() = default;
OpTimer::OpTimer(std::string_view, uint64_t) {}
uint64_t OpTimer::Stop() { return 0; }

#endif  // GRAPHBENCH_OBS_DISABLED

}  // namespace obs
}  // namespace graphbench
