#ifndef GRAPHBENCH_OBS_PROFILER_H_
#define GRAPHBENCH_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace graphbench {
namespace obs {

/// One per-operator row of a query profile: how often the operator ran,
/// how many elements/rows it produced, and where the time went. Self time
/// excludes nested instrumented operators; cumulative includes them (the
/// TinkerPop profile() / Neo4j PROFILE split).
struct OpStats {
  std::string name;
  uint64_t invocations = 0;
  uint64_t rows = 0;
  uint64_t self_micros = 0;
  uint64_t cumulative_micros = 0;
};

/// Per-operator breakdown of one or more queries, accumulated by OpTimer
/// against the thread-local active profile (see ProfileScope), so engines
/// need no profiling context plumbed through their call graphs. Rows merge
/// by operator name in first-execution order. NOT thread-safe: one thread
/// records at a time (the Gremlin Server hands the profile to its worker
/// while the submitting client awaits the reply).
class QueryProfile {
 public:
  /// Merges one operator execution into the profile.
  void Record(std::string_view op, uint64_t invocations, uint64_t rows,
              uint64_t self_micros, uint64_t cumulative_micros);

  /// Adds every row of `other` into this profile (merging by name).
  void Merge(const QueryProfile& other);

  void Clear() { ops_.clear(); }
  bool empty() const { return ops_.empty(); }
  const std::vector<OpStats>& ops() const { return ops_; }

  /// The row for `op`, or nullptr if it never ran.
  const OpStats* Find(std::string_view op) const;

  /// Sum of self times — the profile's account of where the wall clock
  /// went. Coverage = TotalSelfMicros() / measured latency.
  uint64_t TotalSelfMicros() const;

  /// Human-readable operator table ("operator | invocations | rows |
  /// self ms | cum ms"), for --profile output.
  std::string ToString(const std::string& title = "") const;

 private:
  std::vector<OpStats> ops_;
};

/// The calling thread's active profile (nullptr when none is installed or
/// the obs kill switch is off). Engines never call this directly — OpTimer
/// does — but pipeline hand-off points (the Gremlin Server worker pool) use
/// it to carry the submitting client's profile across threads.
QueryProfile* ActiveProfile();

/// Installs `profile` as the calling thread's active profile for the
/// scope's lifetime and restores the previous one (and any in-flight
/// OpTimer nesting state) on exit. A null profile disables capture within
/// the scope. Scopes nest.
class ProfileScope {
 public:
  explicit ProfileScope(QueryProfile* profile);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
#ifndef GRAPHBENCH_OBS_DISABLED
  QueryProfile* prev_profile_ = nullptr;
  uint64_t* prev_child_micros_ = nullptr;
#endif
};

/// RAII operator probe: records one OpStats row (merged by name) into the
/// thread-local active profile when the scope ends. Nested OpTimers
/// subtract their elapsed time from the enclosing timer's self time, so
/// self times partition the instrumented wall clock. No-op (including the
/// clock reads) when no profile is active or obs is compiled out.
///
///   obs::OpTimer op("Expand");
///   ... produce rows ...
///   op.AddRows(rows.size());
///
/// `name` must outlive the timer (string literals in practice).
///
/// A stage that directly follows another on the same thread can start at
/// the stamp the other stopped at (Stop()'s result) instead of reading the
/// clock: the two rows then tile the interval, so the profile's own
/// bookkeeping between them lands in a row instead of in none.
class OpTimer {
 public:
  /// Starts at `start_micros`, or reads the clock when it is 0.
  explicit OpTimer(std::string_view name, uint64_t start_micros = 0);
  ~OpTimer() { Stop(); }

  /// Adds produced elements/rows to the row this timer will record.
  void AddRows(uint64_t n) {
#ifndef GRAPHBENCH_OBS_DISABLED
    rows_ += n;
#else
    (void)n;
#endif
  }

  /// Records now instead of at scope exit (for straight-line phase code:
  /// parse, plan, ... in one function body). Idempotent; the destructor
  /// becomes a no-op afterwards. Must respect stack order: do not Stop()
  /// while a nested OpTimer is still alive. Returns the stamp it stopped
  /// at, or 0 when it records nothing.
  uint64_t Stop();

  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
#ifndef GRAPHBENCH_OBS_DISABLED
  QueryProfile* profile_ = nullptr;
  std::string_view name_;
  uint64_t start_ = 0;
  uint64_t rows_ = 0;
  uint64_t child_micros_ = 0;
  uint64_t* parent_child_micros_ = nullptr;
#endif
};

}  // namespace obs
}  // namespace graphbench

#endif  // GRAPHBENCH_OBS_PROFILER_H_
