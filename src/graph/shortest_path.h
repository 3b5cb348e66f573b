#ifndef GRAPHBENCH_GRAPH_SHORTEST_PATH_H_
#define GRAPHBENCH_GRAPH_SHORTEST_PATH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/result.h"

namespace graphbench {

// Breadth-first search kernels, written once for every engine that runs
// SNB's shortest-path query (or a Cypher variable-length expand) as a BFS.
// A vertex is a 64-bit id: a VertexId, a TermId, an integer edge column (a
// signed id passes through as its two's-complement bits) or a Gremlin
// element id. Each kernel takes an `expand(v, emit) -> Status` callback:
// `expand` calls `emit(next)` for each neighbour of `v` and stops as soon
// as `emit` returns false. Reaching a neighbour is the engine's own storage
// access (index probes, triple matches, adjacency vectors, pinned records),
// so each SUT keeps its cost; only the search order is shared. Which kernel
// an engine runs is the modelled system's traversal strategy. The distance
// kernels return the hop count: 0 when `from == to`, -1 when unreachable.
//
// The visited set and the frontiers are flat and belong to the calling
// thread, reused from call to call, so a warm search allocates nothing. A
// search started from inside another one's `expand` gets its own.

namespace bfs_internal {

/// Open-addressing map from a vertex id to an int, cleared in O(1): a slot
/// is live only while its stamp equals the table's generation. Linear
/// probing from a multiplicative hash that keeps the high bits, so ids that
/// differ only in their high bits (LDBC SNB's own person ids are sparse)
/// still spread.
class VisitedTable {
 public:
  /// Forgets every entry.
  void Clear();

  /// Maps `key` to `value` unless `key` is present. Returns the value now
  /// stored for `key` and whether this call inserted it.
  std::pair<int32_t, bool> Insert(uint64_t key, int32_t value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.stamp != generation_) {
        s = Slot{key, generation_, value};
        ++size_;
        return {value, true};
      }
      if (s.key == key) return {s.value, false};
    }
  }

  /// Frees the slots when there are more than `max_slots`.
  void Trim(size_t max_slots);

  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t stamp = 0;  // never equal to a live generation when fresh
    int32_t value = 0;
  };

  size_t Home(uint64_t key) const {
    return size_t((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // Doubles the slots (at least to a minimum) and re-inserts live entries.
  void Grow();

  std::vector<Slot> slots_;
  uint32_t generation_ = 1;
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity); unused while empty
};

/// A search's working memory: the visited table and three level vectors
/// (the bidirectional kernel keeps one frontier per side).
struct Scratch {
  VisitedTable visited;
  std::vector<uint64_t> frontier, other, next;
  bool in_use = false;  // a search on this thread holds it
};

/// The calling thread's scratch, cleared, for one search; a local one when
/// the thread's is already in use. Trims what the thread keeps on release.
class ScratchLease {
 public:
  ScratchLease();
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Scratch* operator->() const { return scratch_; }

 private:
  std::unique_ptr<Scratch> local_;
  Scratch* scratch_;
};

}  // namespace bfs_internal

/// Single-sided level-by-level BFS from `from`, at most `max_hops` deep
/// (negative: unbounded). Calls `visit(v, depth)` once per vertex, when
/// the search first reaches it; a false return stops the search. Returns
/// the depth at which `visit` stopped it, or -1 when it ran out.
template <typename Expand, typename Visit>
Result<int> Bfs(uint64_t from, int max_hops, Expand&& expand, Visit&& visit) {
  bfs_internal::ScratchLease scratch;
  bfs_internal::VisitedTable& visited = scratch->visited;
  std::vector<uint64_t>& frontier = scratch->frontier;
  std::vector<uint64_t>& next = scratch->next;
  visited.Insert(from, 0);
  frontier.push_back(from);
  int depth = 1;
  bool stopped = false;
  auto emit = [&](uint64_t v) {
    if (!visited.Insert(v, depth).second) return true;
    if (!visit(v, depth)) {
      stopped = true;
      return false;
    }
    next.push_back(v);
    return true;
  };
  for (; !frontier.empty() && (max_hops < 0 || depth <= max_hops); ++depth) {
    for (uint64_t v : frontier) {
      GB_RETURN_IF_ERROR(expand(v, emit));
      if (stopped) return depth;
    }
    frontier.swap(next);
    next.clear();
  }
  return -1;
}

/// Single-sided shortest-path length: the iterated self-join of a store
/// without transitivity support.
template <typename Expand>
Result<int> BfsDistance(uint64_t from, uint64_t to, Expand&& expand) {
  if (from == to) return 0;
  return Bfs(from, -1, expand, [to](uint64_t v, int) { return v != to; });
}

/// Bidirectional BFS: expands one whole level of the smaller frontier at
/// a time. The first vertex reached from both sides closes a shortest
/// path, since every meeting found within one level has the same length.
template <typename Expand>
Result<int> BidirectionalBfsDistance(uint64_t from, uint64_t to,
                                     Expand&& expand) {
  if (from == to) return 0;
  bfs_internal::ScratchLease scratch;
  // One table for both sides: a vertex's entry is its depth from `from`,
  // or the complement (~depth, negative) of its depth from `to`.
  bfs_internal::VisitedTable& dist = scratch->visited;
  std::vector<uint64_t>& frontier_a = scratch->frontier;
  std::vector<uint64_t>& frontier_b = scratch->other;
  std::vector<uint64_t>& next = scratch->next;
  dist.Insert(from, 0);
  dist.Insert(to, ~0);
  frontier_a.push_back(from);
  frontier_b.push_back(to);
  int depth_a = 0, depth_b = 0, meet = -1;
  bool a_side = true;
  int reached = 0;  // the entry a vertex first reached this level gets
  auto emit = [&](uint64_t v) {
    auto [seen, inserted] = dist.Insert(v, reached);
    if (inserted) {
      next.push_back(v);
      return true;
    }
    if ((seen >= 0) == a_side) return true;  // this side's already
    meet = (a_side ? depth_a : depth_b) + 1 + (seen >= 0 ? seen : ~seen);
    return false;
  };
  while (!frontier_a.empty() && !frontier_b.empty()) {
    a_side = frontier_a.size() <= frontier_b.size();
    std::vector<uint64_t>& frontier = a_side ? frontier_a : frontier_b;
    int& depth = a_side ? depth_a : depth_b;
    reached = a_side ? depth + 1 : ~(depth + 1);
    for (uint64_t v : frontier) {
      GB_RETURN_IF_ERROR(expand(v, emit));
      if (meet >= 0) return meet;
    }
    frontier.swap(next);
    next.clear();
    ++depth;
  }
  return -1;
}

}  // namespace graphbench

#endif  // GRAPHBENCH_GRAPH_SHORTEST_PATH_H_
