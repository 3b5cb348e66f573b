#ifndef GRAPHBENCH_PROVIDERS_NATIVE_PROVIDER_H_
#define GRAPHBENCH_PROVIDERS_NATIVE_PROVIDER_H_

#include <string>

#include "engines/native/native_graph.h"
#include "tinkerpop/structure.h"

namespace graphbench {

/// TinkerPop provider over the native graph store: the Neo4j-Gremlin
/// configuration. Same storage as Neo4j-Cypher, but accessed one small
/// structure-API call at a time — the comparison that isolates the
/// TinkerPop overhead in §4.2.
class NativeProvider : public GremlinGraph {
 public:
  explicit NativeProvider(NativeGraph* graph) : graph_(graph) {}

  Result<GVertex> AddVertex(std::string_view label,
                            const PropertyMap& props) override {
    GB_ASSIGN_OR_RETURN(VertexId v, graph_->AddVertex(label, props));
    return GVertex{v};
  }

  Status AddEdge(std::string_view label, GVertex from, GVertex to,
                 const PropertyMap& props) override {
    return graph_->AddEdge(label, from.id, to.id, props).status();
  }

  Status RemoveEdge(std::string_view label, GVertex from,
                    GVertex to) override {
    return graph_->RemoveEdge(label, from.id, to.id);
  }

  Result<std::vector<GVertex>> VerticesByProperty(
      std::string_view label, std::string_view key,
      const Value& value) override {
    auto found = graph_->FindVertex(label, key, value);
    if (found.status().IsNotFound()) return std::vector<GVertex>{};
    GB_RETURN_IF_ERROR(found.status());
    return std::vector<GVertex>{GVertex{*found}};
  }

  Result<std::vector<GVertex>> AllVertices(std::string_view label) override {
    std::vector<GVertex> out;
    for (VertexId v : graph_->VerticesByLabel(label)) {
      out.push_back(GVertex{v});
    }
    return out;
  }

  Result<std::vector<GVertex>> Adjacent(GVertex v,
                                        std::string_view edge_label,
                                        Direction dir) override {
    std::vector<Neighbor> neighbors;
    GB_RETURN_IF_ERROR(graph_->Neighbors(v.id, edge_label, dir, &neighbors));
    std::vector<GVertex> out;
    out.reserve(neighbors.size());
    for (const Neighbor& n : neighbors) out.push_back(GVertex{n.vertex});
    return out;
  }

  Result<Value> Property(GVertex v, std::string_view key) override {
    return graph_->VertexProperty(v.id, key);
  }

  Result<std::string> Label(GVertex v) override {
    std::string label;
    GB_RETURN_IF_ERROR(graph_->GetVertex(v.id, &label, nullptr));
    return label;
  }

  uint64_t VertexCount() const override { return graph_->VertexCount(); }
  uint64_t EdgeCount() const override { return graph_->EdgeCount(); }
  uint64_t ApproximateSizeBytes() const override {
    return graph_->ApproximateSizeBytes();
  }
  std::string name() const override { return "neo4j-gremlin"; }

 private:
  NativeGraph* graph_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_PROVIDERS_NATIVE_PROVIDER_H_
