#include "tinkerpop/traversal.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/shortest_path.h"
#include "obs/profiler.h"

namespace graphbench {

namespace {

// Operator labels for the profile() analogue: one row per step kind.
const char* StepName(GremlinStep::Kind kind) {
  switch (kind) {
    case GremlinStep::Kind::kV: return "V()";
    case GremlinStep::Kind::kHasIndexed: return "has(indexed)";
    case GremlinStep::Kind::kHas: return "has()";
    case GremlinStep::Kind::kOut: return "out()";
    case GremlinStep::Kind::kIn: return "in()";
    case GremlinStep::Kind::kBoth: return "both()";
    case GremlinStep::Kind::kValues: return "values()";
    case GremlinStep::Kind::kDedup: return "dedup()";
    case GremlinStep::Kind::kLimit: return "limit()";
    case GremlinStep::Kind::kCount: return "count()";
    case GremlinStep::Kind::kAs: return "as()";
    case GremlinStep::Kind::kWhereNeq: return "where(neq)";
    case GremlinStep::Kind::kShortestPath: return "repeat(both()).until()";
    case GremlinStep::Kind::kOrderBy: return "order().by()";
    case GremlinStep::Kind::kGroupCount: return "groupCount()";
    case GremlinStep::Kind::kValueMap: return "valueMap()";
    case GremlinStep::Kind::kAddEdgeTo: return "addE(to)";
    case GremlinStep::Kind::kDropEdgeTo: return "dropE(to)";
    case GremlinStep::Kind::kAddV: return "addV()";
    case GremlinStep::Kind::kAddE: return "addE()";
  }
  return "step";
}

/// A traverser: the current element (vertex or value) plus path marks from
/// As() steps, as in TinkerPop's traverser model.
struct Traverser {
  bool is_vertex = true;
  GVertex vertex;
  Value value;
  std::vector<std::pair<std::string, uint64_t>> marks;

  uint64_t MarkOf(const std::string& name) const {
    for (const auto& [k, v] : marks) {
      if (k == name) return v;
    }
    return ~uint64_t{0};
  }
};

// repeat(both(label).dedup()).until(has(key, value)) on the shared BFS
// kernel: the step machine's neighbour expansion is one Adjacent() call per
// vertex, and each vertex it discovers gets a has() probe.
Result<int> ShortestPathDepth(GremlinGraph* graph, GVertex start,
                              const GremlinStep& step) {
  GB_ASSIGN_OR_RETURN(Value start_val, graph->Property(start, step.key));
  if (start_val == step.value) return 0;
  auto expand = [&](uint64_t v, auto&& emit) -> Status {
    GB_ASSIGN_OR_RETURN(
        std::vector<GVertex> neighbors,
        graph->Adjacent(GVertex{v}, step.label, Direction::kBoth));
    for (GVertex n : neighbors) {
      if (!emit(n.id)) break;
    }
    return Status::OK();
  };
  Status probe;  // a failed has() stops the search and is returned
  auto visit = [&](uint64_t v, int) {
    Result<Value> val = graph->Property(GVertex{v}, step.key);
    if (!val.ok()) {
      probe = val.status();
      return false;
    }
    return *val != step.value;
  };
  // n <= 0 allows no hops (the kernel would read a negative bound as
  // unbounded).
  const int max_hops = int(
      std::clamp<int64_t>(step.n, 0, std::numeric_limits<int>::max()));
  Result<int> depth = Bfs(start.id, max_hops, expand, visit);
  GB_RETURN_IF_ERROR(depth.status());
  GB_RETURN_IF_ERROR(probe);
  return *depth;
}

}  // namespace

Result<std::vector<Value>> ExecuteTraversal(GremlinGraph* graph,
                                            const Traversal& traversal) {
  // Root operator (TinkerPop's terminal iterate()): the per-step timers
  // below nest under it, so its self time is the step-machine glue —
  // traverser-set management and the dispatch loop itself.
  obs::OpTimer root_op("iterate()");
  std::vector<Traverser> set;
  bool started = false;

  const auto& steps = traversal.steps();
  for (size_t si = 0; si < steps.size(); ++si) {
    const GremlinStep& step = steps[si];
    obs::OpTimer op(StepName(step.kind));
    switch (step.kind) {
      case GremlinStep::Kind::kV: {
        // g.V().has(l,k,v) immediately after V() uses the provider index.
        if (si + 1 < steps.size() &&
            steps[si + 1].kind == GremlinStep::Kind::kHasIndexed) {
          break;  // the next step starts the traversal itself
        }
        GB_ASSIGN_OR_RETURN(std::vector<GVertex> all,
                            graph->AllVertices(step.label));
        for (GVertex v : all) set.push_back(Traverser{true, v, Value(), {}});
        started = true;
        break;
      }
      case GremlinStep::Kind::kHasIndexed: {
        GB_ASSIGN_OR_RETURN(
            std::vector<GVertex> found,
            graph->VerticesByProperty(step.label, step.key, step.value));
        if (!started) {
          for (GVertex v : found) {
            set.push_back(Traverser{true, v, Value(), {}});
          }
          started = true;
        } else {
          // Used mid-traversal: behaves as a filter.
          std::unordered_set<uint64_t> ids;
          for (GVertex v : found) ids.insert(v.id);
          std::vector<Traverser> kept;
          for (Traverser& t : set) {
            if (t.is_vertex && ids.count(t.vertex.id)) {
              kept.push_back(std::move(t));
            }
          }
          set = std::move(kept);
        }
        break;
      }
      case GremlinStep::Kind::kHas: {
        std::vector<Traverser> kept;
        for (Traverser& t : set) {
          if (!t.is_vertex) continue;
          GB_ASSIGN_OR_RETURN(Value v,
                              graph->Property(t.vertex, step.key));
          if (v == step.value) kept.push_back(std::move(t));
        }
        set = std::move(kept);
        break;
      }
      case GremlinStep::Kind::kOut:
      case GremlinStep::Kind::kIn:
      case GremlinStep::Kind::kBoth: {
        Direction dir = step.kind == GremlinStep::Kind::kOut
                            ? Direction::kOut
                            : step.kind == GremlinStep::Kind::kIn
                                  ? Direction::kIn
                                  : Direction::kBoth;
        std::vector<Traverser> next;
        for (const Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("adjacency step on a value");
          }
          GB_ASSIGN_OR_RETURN(std::vector<GVertex> neighbors,
                              graph->Adjacent(t.vertex, step.label, dir));
          for (GVertex n : neighbors) {
            Traverser nt = t;
            nt.vertex = n;
            next.push_back(std::move(nt));
          }
        }
        set = std::move(next);
        break;
      }
      case GremlinStep::Kind::kValues: {
        for (Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("values() on a value");
          }
          GB_ASSIGN_OR_RETURN(Value v,
                              graph->Property(t.vertex, step.key));
          t.is_vertex = false;
          t.value = std::move(v);
        }
        break;
      }
      case GremlinStep::Kind::kDedup: {
        std::vector<Traverser> kept;
        std::unordered_set<uint64_t> seen_ids;
        std::unordered_set<Value, ValueHash> seen_values;
        for (Traverser& t : set) {
          bool fresh = t.is_vertex ? seen_ids.insert(t.vertex.id).second
                                   : seen_values.insert(t.value).second;
          if (fresh) kept.push_back(std::move(t));
        }
        set = std::move(kept);
        break;
      }
      case GremlinStep::Kind::kLimit: {
        if (set.size() > size_t(step.n)) set.resize(size_t(step.n));
        break;
      }
      case GremlinStep::Kind::kCount: {
        std::vector<Value> out{Value(int64_t(set.size()))};
        op.AddRows(out.size());
        return out;
      }
      case GremlinStep::Kind::kAs: {
        for (Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("as() on a value");
          }
          t.marks.emplace_back(step.name, t.vertex.id);
        }
        break;
      }
      case GremlinStep::Kind::kWhereNeq: {
        std::vector<Traverser> kept;
        for (Traverser& t : set) {
          if (!t.is_vertex) continue;
          if (t.vertex.id != t.MarkOf(step.name)) {
            kept.push_back(std::move(t));
          }
        }
        set = std::move(kept);
        break;
      }
      case GremlinStep::Kind::kShortestPath: {
        for (Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("shortest path on a value");
          }
          GB_ASSIGN_OR_RETURN(int depth,
                              ShortestPathDepth(graph, t.vertex, step));
          t.is_vertex = false;
          t.value = Value(int64_t{depth});
        }
        break;
      }
      case GremlinStep::Kind::kOrderBy: {
        // One property request per traverser, then sort.
        std::vector<std::pair<Value, size_t>> keys;
        keys.reserve(set.size());
        for (size_t i = 0; i < set.size(); ++i) {
          if (!set[i].is_vertex) {
            return Status::InvalidArgument("order().by(key) on a value");
          }
          GB_ASSIGN_OR_RETURN(Value v,
                              graph->Property(set[i].vertex, step.key));
          keys.emplace_back(std::move(v), i);
        }
        bool desc = step.n != 0;
        std::stable_sort(keys.begin(), keys.end(),
                         [desc](const auto& a, const auto& b) {
                           int c = a.first.Compare(b.first);
                           return desc ? c > 0 : c < 0;
                         });
        std::vector<Traverser> ordered;
        ordered.reserve(set.size());
        for (const auto& [v, i] : keys) ordered.push_back(std::move(set[i]));
        set = std::move(ordered);
        break;
      }
      case GremlinStep::Kind::kGroupCount: {
        // Terminal-shaped step: count traversers per vertex, one key
        // property request per distinct vertex.
        std::unordered_map<uint64_t, int64_t> by_vertex;
        std::unordered_map<uint64_t, GVertex> handles;
        for (const Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("groupCount() on a value");
          }
          ++by_vertex[t.vertex.id];
          handles.emplace(t.vertex.id, t.vertex);
        }
        struct Entry {
          Value key;
          int64_t count;
        };
        std::vector<Entry> entries;
        entries.reserve(by_vertex.size());
        for (const auto& [id, count] : by_vertex) {
          GB_ASSIGN_OR_RETURN(Value key,
                              graph->Property(handles.at(id), step.key));
          entries.push_back(Entry{std::move(key), count});
        }
        std::sort(entries.begin(), entries.end(),
                  [](const Entry& a, const Entry& b) {
                    if (a.count != b.count) return a.count > b.count;
                    return a.key.Compare(b.key) < 0;
                  });
        if (step.n > 0 && entries.size() > size_t(step.n)) {
          entries.resize(size_t(step.n));
        }
        std::vector<Value> out;
        out.reserve(entries.size() * 2);
        for (Entry& e : entries) {
          out.push_back(std::move(e.key));
          out.push_back(Value(e.count));
        }
        op.AddRows(out.size());
        return out;
      }
      case GremlinStep::Kind::kValueMap: {
        // Terminal-shaped step: emits one value per (traverser, key).
        std::vector<Value> out;
        out.reserve(set.size() * step.props.size());
        for (const Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("valueMap() on a value");
          }
          for (const auto& [key, unused] : step.props.entries()) {
            GB_ASSIGN_OR_RETURN(Value v, graph->Property(t.vertex, key));
            out.push_back(std::move(v));
          }
        }
        op.AddRows(out.size());
        return out;
      }
      case GremlinStep::Kind::kAddEdgeTo: {
        GB_ASSIGN_OR_RETURN(
            std::vector<GVertex> targets,
            graph->VerticesByProperty(step.name, step.key, step.value));
        if (targets.empty()) {
          return Status::NotFound("addE target vertex not found");
        }
        for (const Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("addE from a value");
          }
          GB_RETURN_IF_ERROR(graph->AddEdge(step.label, t.vertex,
                                            targets.front(), step.props));
        }
        break;
      }
      case GremlinStep::Kind::kDropEdgeTo: {
        GB_ASSIGN_OR_RETURN(
            std::vector<GVertex> targets,
            graph->VerticesByProperty(step.name, step.key, step.value));
        if (targets.empty()) {
          return Status::NotFound("drop target vertex not found");
        }
        for (const Traverser& t : set) {
          if (!t.is_vertex) {
            return Status::InvalidArgument("drop from a value");
          }
          GB_RETURN_IF_ERROR(
              graph->RemoveEdge(step.label, t.vertex, targets.front()));
        }
        break;
      }
      case GremlinStep::Kind::kAddV: {
        GB_ASSIGN_OR_RETURN(GVertex v,
                            graph->AddVertex(step.label, step.props));
        set.clear();
        set.push_back(Traverser{true, v, Value(), {}});
        started = true;
        break;
      }
      case GremlinStep::Kind::kAddE: {
        for (const Traverser& t : set) {
          uint64_t from = t.MarkOf(step.name);
          uint64_t to = t.MarkOf(step.name2);
          if (from == ~uint64_t{0} || to == ~uint64_t{0}) {
            return Status::InvalidArgument("addE endpoints not marked");
          }
          GB_RETURN_IF_ERROR(graph->AddEdge(step.label, GVertex{from},
                                            GVertex{to}, step.props));
        }
        break;
      }
    }
    op.AddRows(set.size());
  }

  // Terminal collection: values pass through; vertices render as their
  // application-level "id" property.
  obs::OpTimer op("collect()");
  std::vector<Value> out;
  out.reserve(set.size());
  for (const Traverser& t : set) {
    if (t.is_vertex) {
      GB_ASSIGN_OR_RETURN(Value id, graph->Property(t.vertex, "id"));
      out.push_back(std::move(id));
    } else {
      out.push_back(t.value);
    }
  }
  op.AddRows(out.size());
  return out;
}

}  // namespace graphbench
