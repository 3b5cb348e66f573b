#ifndef GRAPHBENCH_ENGINES_FRAME_H_
#define GRAPHBENCH_ENGINES_FRAME_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace graphbench {

/// The solutions of one execution of a declarative query, written once for
/// the Cypher, SQL and SPARQL executors. A solution binds every slot to one
/// id: a VertexId (Cypher), a RowId (SQL) or a term id (SPARQL). All three
/// are uint64_t and all three read ~0 as "unbound".
///
/// The slot table maps names to slots: variables in Cypher and SPARQL, FROM
/// aliases in SQL. A slot added without a name is hidden (an anonymous
/// Cypher node): no name finds it. The executor adds every slot while it
/// binds the query, then Start()s the solutions from one empty solution.
///
/// Solutions are flat: width() ids each, in one buffer. A join or
/// expansion step Extend()s each solution it keeps into the next
/// generation once per match and then Advance()s; a filter Retain()s in
/// place. Both buffers grow by doubling and are reused from step to step,
/// so no step allocates per solution.
class Frame {
 public:
  static constexpr uint64_t kUnbound = ~uint64_t{0};

  /// The slot named `name`; -1 when there is none or `name` is empty.
  int Slot(std::string_view name) const {
    if (name.empty()) return -1;
    auto it = std::find(names_.begin(), names_.end(), name);
    return it == names_.end() ? -1 : int(it - names_.begin());
  }
  /// Adds a slot named `name` (empty: a hidden slot) and returns it.
  size_t AddSlot(std::string_view name = {}) {
    if (names_.empty()) names_.reserve(kTypicalSlots);
    names_.push_back(name);
    return names_.size() - 1;
  }
  /// The slot named `name`, else InvalidArgument "unknown <what><name>".
  Result<size_t> Known(const std::string& name, const char* what) const {
    int slot = Slot(name);
    if (slot < 0) return Status::InvalidArgument("unknown " + (what + name));
    return size_t(slot);
  }
  size_t width() const { return names_.size(); }

  /// Makes the solutions one empty solution: every slot unbound.
  void Start() {
    rows_.assign(width(), kUnbound);
    count_ = 1;
  }
  size_t size() const { return count_; }
  const uint64_t* row(size_t i) const { return rows_.data() + i * width(); }

  /// Appends a copy of solution `i` to the next generation and returns it,
  /// for the caller to bind the slots the step binds.
  uint64_t* Extend(size_t i) {
    const size_t w = width();
    next_.insert(next_.end(), row(i), row(i) + w);
    ++next_count_;
    return next_.data() + next_.size() - w;
  }
  /// Extends solution `i` once per id in `ids`, binding `slot` to it: an
  /// index lookup's or a scan's matches, counted up front.
  void Extend(size_t i, size_t slot, std::span<const uint64_t> ids) {
    const size_t need = next_.size() + ids.size() * width();
    if (need > next_.capacity()) {
      next_.reserve(std::max(need, 2 * next_.capacity()));
    }
    for (uint64_t id : ids) Extend(i)[slot] = id;
  }
  /// Makes the next generation the solutions: none if nothing extended.
  void Advance() {
    rows_.swap(next_);
    count_ = next_count_;
    next_.clear();
    next_count_ = 0;
  }

  /// Keeps, in order, the solutions `keep(i)` accepts. `keep` returns bool,
  /// or Result<bool> when a read can fail; the first error stops the scan.
  /// Solution `i` is still at row(i) when `keep(i)` runs.
  template <typename Keep>
  Status Retain(Keep&& keep) {
    const size_t w = width();
    size_t kept = 0;
    for (size_t i = 0; i < count_; ++i) {
      GB_ASSIGN_OR_RETURN(bool pass, Result<bool>(keep(i)));
      if (!pass) continue;
      if (kept != i) std::copy_n(row(i), w, rows_.begin() + kept * w);
      ++kept;
    }
    count_ = kept;
    rows_.resize(kept * w);
    return Status::OK();
  }

 private:
  // Room the slot table takes at its first slot: more than any workload
  // query binds, so the table is one allocation.
  static constexpr size_t kTypicalSlots = 8;

  std::vector<std::string_view> names_;
  std::vector<uint64_t> rows_;
  size_t count_ = 0;
  std::vector<uint64_t> next_;
  size_t next_count_ = 0;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_FRAME_H_
