#ifndef GRAPHBENCH_GRAPH_SHORTEST_PATH_H_
#define GRAPHBENCH_GRAPH_SHORTEST_PATH_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "util/result.h"

namespace graphbench {

// Breadth-first search kernels, written once for every engine that runs
// SNB's shortest-path query (or a Cypher variable-length expand) as a BFS.
// Each is a template over the vertex type `V` and an
// `expand(v, emit) -> Status` callback: `expand` calls `emit(next)` for
// each neighbour of `v` and stops as soon as `emit` returns false.
// Reaching a neighbour is the engine's own storage access (index probes,
// triple matches, adjacency vectors, pinned records), so each SUT keeps
// its cost; only the search order is shared. Which kernel an engine runs
// is the modelled system's traversal strategy. The distance kernels
// return the hop count: 0 when `from == to`, -1 when unreachable.

/// Single-sided level-by-level BFS from `from`, at most `max_hops` deep
/// (negative: unbounded). Calls `visit(v, depth)` once per vertex, when
/// the search first reaches it; a false return stops the search. Returns
/// the depth at which `visit` stopped it, or -1 when it ran out.
template <typename V, typename Hash = std::hash<V>, typename Expand,
          typename Visit>
Result<int> Bfs(const V& from, int max_hops, Expand&& expand, Visit&& visit) {
  std::unordered_set<V, Hash> visited{from};
  std::deque<V> frontier{from};
  int depth = 1;
  bool stopped = false;
  auto emit = [&](const V& next) {
    if (!visited.insert(next).second) return true;
    if (!visit(next, depth)) {
      stopped = true;
      return false;
    }
    frontier.push_back(next);
    return true;
  };
  for (; !frontier.empty() && (max_hops < 0 || depth <= max_hops); ++depth) {
    for (size_t level = frontier.size(); level > 0; --level) {
      V v = std::move(frontier.front());
      frontier.pop_front();
      GB_RETURN_IF_ERROR(expand(v, emit));
      if (stopped) return depth;
    }
  }
  return -1;
}

/// Single-sided shortest-path length: the iterated self-join of a store
/// without transitivity support.
template <typename V, typename Hash = std::hash<V>, typename Expand>
Result<int> BfsDistance(const V& from, const V& to, Expand&& expand) {
  if (from == to) return 0;
  return Bfs<V, Hash>(from, -1, expand,
                      [&to](const V& v, int) { return v != to; });
}

/// Bidirectional BFS: expands one whole level of the smaller frontier at
/// a time. The first vertex reached from both sides closes a shortest
/// path, since every meeting found within one level has the same length.
template <typename V, typename Hash = std::hash<V>, typename Expand>
Result<int> BidirectionalBfsDistance(const V& from, const V& to,
                                     Expand&& expand) {
  if (from == to) return 0;
  std::unordered_map<V, int, Hash> dist_a{{from, 0}}, dist_b{{to, 0}};
  std::deque<V> frontier_a{from}, frontier_b{to};
  std::unordered_map<V, int, Hash>* dist = nullptr;
  const std::unordered_map<V, int, Hash>* other = nullptr;
  std::deque<V>* frontier = nullptr;
  int depth = 0, meet = -1;
  auto emit = [&](const V& next) {
    if (!dist->emplace(next, depth + 1).second) return true;
    auto hit = other->find(next);
    if (hit != other->end()) {
      meet = depth + 1 + hit->second;
      return false;
    }
    frontier->push_back(next);
    return true;
  };
  while (!frontier_a.empty() && !frontier_b.empty()) {
    const bool a_side = frontier_a.size() <= frontier_b.size();
    dist = a_side ? &dist_a : &dist_b;
    other = a_side ? &dist_b : &dist_a;
    frontier = a_side ? &frontier_a : &frontier_b;
    for (size_t level = frontier->size(); level > 0; --level) {
      V v = std::move(frontier->front());
      frontier->pop_front();
      depth = dist->at(v);
      GB_RETURN_IF_ERROR(expand(v, emit));
      if (meet >= 0) return meet;
    }
  }
  return -1;
}

}  // namespace graphbench

#endif  // GRAPHBENCH_GRAPH_SHORTEST_PATH_H_
