#ifndef GRAPHBENCH_TINKERPOP_TRAVERSAL_H_
#define GRAPHBENCH_TINKERPOP_TRAVERSAL_H_

#include <string>
#include <vector>

#include "tinkerpop/structure.h"
#include "util/result.h"
#include "util/value.h"

namespace graphbench {

/// One Gremlin step. Traversals are pure descriptions (built client-side,
/// serializable to bytecode) executed later against a provider graph.
struct GremlinStep {
  enum class Kind : uint8_t {
    kV = 0,            // label ("" = all) — start step
    kHasIndexed = 1,   // label/key/value — index-backed start step
    kHas = 2,          // key/value — mid-traversal filter
    kOut = 3,          // label
    kIn = 4,           // label
    kBoth = 5,         // label
    kValues = 6,       // key: vertex -> property value
    kDedup = 7,
    kLimit = 8,        // n
    kCount = 9,
    kAs = 10,          // name: mark current vertex
    kWhereNeq = 11,    // name: current vertex != mark
    kShortestPath = 12,  // repeat(both(label).dedup()).until(has(key,value))
    kAddV = 13,        // label + props (update traversals)
    kAddE = 14,        // label + props; endpoints via marks from/to
    kOrderBy = 15,     // key + n (0 asc, 1 desc): order vertices by prop
    kValueMap = 16,    // props holds the keys: emit each key's value
    kAddEdgeTo = 17,   // addE(label).to(V().has(name, key, value))
    kGroupCount = 18,  // key + n: per-vertex counts ordered desc, limit n
    kDropEdgeTo = 19,  // outE(label).where(inV().has(name,key,value)).drop()
  };

  Kind kind;
  std::string label{};
  std::string key{};
  Value value{};
  int64_t n = 0;
  std::string name{};      // kAs / kWhereNeq; kAddE: from-mark
  std::string name2{};     // kAddE: to-mark
  PropertyMap props{};     // kAddV / kAddE
};

/// Fluent builder for the Gremlin step list, mirroring the query shapes in
/// the paper's reference implementation.
class Traversal {
 public:
  Traversal& V(std::string_view label = "") {
    return Push({GremlinStep::Kind::kV, std::string(label)});
  }
  /// g.V().has(label, key, value) — hits the provider's index.
  Traversal& HasIndexed(std::string_view label, std::string_view key,
                        Value value) {
    GremlinStep s{GremlinStep::Kind::kHasIndexed, std::string(label)};
    s.key = std::string(key);
    s.value = std::move(value);
    return Push(std::move(s));
  }
  Traversal& Has(std::string_view key, Value value) {
    GremlinStep s{GremlinStep::Kind::kHas};
    s.key = std::string(key);
    s.value = std::move(value);
    return Push(std::move(s));
  }
  Traversal& Out(std::string_view label) {
    return Push({GremlinStep::Kind::kOut, std::string(label)});
  }
  Traversal& In(std::string_view label) {
    return Push({GremlinStep::Kind::kIn, std::string(label)});
  }
  Traversal& Both(std::string_view label) {
    return Push({GremlinStep::Kind::kBoth, std::string(label)});
  }
  Traversal& Values(std::string_view key) {
    GremlinStep s{GremlinStep::Kind::kValues};
    s.key = std::string(key);
    return Push(std::move(s));
  }
  Traversal& Dedup() { return Push({GremlinStep::Kind::kDedup}); }
  Traversal& Limit(int64_t n) {
    GremlinStep s{GremlinStep::Kind::kLimit};
    s.n = n;
    return Push(std::move(s));
  }
  Traversal& Count() { return Push({GremlinStep::Kind::kCount}); }
  Traversal& As(std::string_view name) {
    GremlinStep s{GremlinStep::Kind::kAs};
    s.name = std::string(name);
    return Push(std::move(s));
  }
  Traversal& WhereNeq(std::string_view name) {
    GremlinStep s{GremlinStep::Kind::kWhereNeq};
    s.name = std::string(name);
    return Push(std::move(s));
  }
  /// repeat(both(edge_label).dedup()).until(has(key, value)) — emits the
  /// BFS depth at which the target was reached, or -1. `max_depth` bounds
  /// runaway traversals.
  Traversal& ShortestPath(std::string_view edge_label, std::string_view key,
                          Value value, int64_t max_depth = 64) {
    GremlinStep s{GremlinStep::Kind::kShortestPath,
                  std::string(edge_label)};
    s.key = std::string(key);
    s.value = std::move(value);
    s.n = max_depth;
    return Push(std::move(s));
  }
  /// groupCount().order(local).by(values, decr): groups vertex traversers
  /// by identity, emits (key-property, count) pairs flattened, ordered by
  /// count descending then key ascending, truncated to `limit` groups
  /// (0 = all).
  Traversal& GroupCount(std::string_view key, int64_t limit = 0) {
    GremlinStep s{GremlinStep::Kind::kGroupCount};
    s.key = std::string(key);
    s.n = limit;
    return Push(std::move(s));
  }
  /// order().by(key, asc|desc) over vertex traversers.
  Traversal& OrderBy(std::string_view key, bool desc) {
    GremlinStep s{GremlinStep::Kind::kOrderBy};
    s.key = std::string(key);
    s.n = desc ? 1 : 0;
    return Push(std::move(s));
  }
  /// valueMap(k1, k2, ...): emits the listed property values of each
  /// vertex traverser, flattened in key order (one Property request per
  /// key per traverser). Callers reshape the flat stream into rows.
  Traversal& ValueMap(const std::vector<std::string>& keys) {
    GremlinStep s{GremlinStep::Kind::kValueMap};
    for (const std::string& k : keys) s.props.Set(k, Value());
    return Push(std::move(s));
  }
  /// addE(label).to(V().has(target_label, key, value)) — creates an edge
  /// from each vertex traverser to the indexed target vertex.
  Traversal& AddEdgeTo(std::string_view edge_label,
                       std::string_view target_label, std::string_view key,
                       Value value, PropertyMap props) {
    GremlinStep s{GremlinStep::Kind::kAddEdgeTo,
                  std::string(edge_label)};
    s.name = std::string(target_label);
    s.key = std::string(key);
    s.value = std::move(value);
    s.props = std::move(props);
    return Push(std::move(s));
  }
  /// bothE(label).where(otherV().has(target_label, key, value)).drop() —
  /// removes one edge between each vertex traverser and the indexed
  /// target vertex, either orientation.
  Traversal& DropEdgeTo(std::string_view edge_label,
                        std::string_view target_label, std::string_view key,
                        Value value) {
    GremlinStep s{GremlinStep::Kind::kDropEdgeTo,
                  std::string(edge_label)};
    s.name = std::string(target_label);
    s.key = std::string(key);
    s.value = std::move(value);
    return Push(std::move(s));
  }
  Traversal& AddV(std::string_view label, PropertyMap props) {
    GremlinStep s{GremlinStep::Kind::kAddV, std::string(label)};
    s.props = std::move(props);
    return Push(std::move(s));
  }
  /// addE between two marked vertices (g.V()...as("a") ... addE).
  Traversal& AddE(std::string_view label, std::string_view from_mark,
                  std::string_view to_mark, PropertyMap props) {
    GremlinStep s{GremlinStep::Kind::kAddE, std::string(label)};
    s.name = std::string(from_mark);
    s.name2 = std::string(to_mark);
    s.props = std::move(props);
    return Push(std::move(s));
  }

  const std::vector<GremlinStep>& steps() const { return steps_; }
  /// Raw step access for the bytecode decoder.
  std::vector<GremlinStep>* mutable_steps() { return &steps_; }

 private:
  Traversal& Push(GremlinStep step) {
    steps_.push_back(std::move(step));
    return *this;
  }
  std::vector<GremlinStep> steps_;
};

/// Executes a traversal against a provider graph, step by step: every
/// Out/In/Both/Has/Values issues per-traverser Structure API calls. The
/// terminal result is the list of produced Values (vertices render as
/// their "id" property when the traversal ends on vertices).
Result<std::vector<Value>> ExecuteTraversal(GremlinGraph* graph,
                                            const Traversal& traversal);

}  // namespace graphbench

#endif  // GRAPHBENCH_TINKERPOP_TRAVERSAL_H_
