#ifndef GRAPHBENCH_ENGINES_TITAN_TITAN_GRAPH_H_
#define GRAPHBENCH_ENGINES_TITAN_TITAN_GRAPH_H_

#include <atomic>
#include <memory>
#include <set>
#include <shared_mutex>

#include "obs/lock_timer.h"
#include <string>
#include <utility>

#include "engines/titan/lock_manager.h"
#include "kv/kv_store.h"
#include "tinkerpop/structure.h"

namespace graphbench {

/// Property graph layered over a pluggable key-value store: the TitanDB
/// analog. With an LsmKv backend this is Titan-C (Cassandra); with a
/// BTreeKv backend, Titan-B (BerkeleyDB).
///
/// Storage layout (order-preserving keycodec; 'V' vid and 'A' vid are
/// keycodec row keys, so on LsmKv a vertex's row and each of its adjacency
/// slices live in one memtable shard):
///   'V' vid                         -> label + encoded PropertyMap
///   'A' vid dir elabel other eid    -> encoded edge PropertyMap
///   'I' label key encoded-value     -> vid (unique vertex index)
///
/// Every vertex/edge access crosses the serialization codec and every
/// uniqueness check takes an explicit lock (the KV store below offers no
/// isolation) — the storage/indexing abstraction costs the paper blames
/// for Titan's latency and update throughput (§4.2-4.3).
class TitanGraph : public GremlinGraph {
 public:
  explicit TitanGraph(std::unique_ptr<KvStore> backend);

  Result<GVertex> AddVertex(std::string_view label,
                            const PropertyMap& props) override;
  Status AddEdge(std::string_view label, GVertex from, GVertex to,
                 const PropertyMap& props) override;
  Status RemoveEdge(std::string_view label, GVertex from,
                    GVertex to) override;
  Result<std::vector<GVertex>> VerticesByProperty(
      std::string_view label, std::string_view key,
      const Value& value) override;
  Result<std::vector<GVertex>> AllVertices(std::string_view label) override;
  Result<std::vector<GVertex>> Adjacent(GVertex v,
                                        std::string_view edge_label,
                                        Direction dir) override;
  Result<Value> Property(GVertex v, std::string_view key) override;
  Result<std::string> Label(GVertex v) override;
  uint64_t VertexCount() const override { return vertex_count_; }
  uint64_t EdgeCount() const override { return edge_count_; }
  uint64_t ApproximateSizeBytes() const override {
    return kv_->ApproximateSizeBytes();
  }
  std::string name() const override { return "titan-" + kv_->name(); }

  /// Declares a unique index on (vertex label, property key). Must be
  /// called before vertices of that label are added (Titan's schema-first
  /// index definition).
  Status RegisterUniqueIndex(std::string_view label, std::string_view key);

  KvStore* backend() { return kv_.get(); }

 private:
  static std::string VertexKey(uint64_t vid);
  static std::string AdjPrefix(uint64_t vid, Direction dir,
                               std::string_view elabel);
  static std::string AdjKey(uint64_t vid, Direction dir,
                            std::string_view elabel, uint64_t other,
                            uint64_t eid);
  static std::string IndexKey(std::string_view label, std::string_view key,
                              const Value& value);

  // Reads and decodes the vertex row.
  Status LoadVertex(uint64_t vid, std::string* label,
                    PropertyMap* props) const;

  std::unique_ptr<KvStore> kv_;
  LockManager locks_;
  std::atomic<uint64_t> next_vertex_{0};
  std::atomic<uint64_t> next_edge_{0};
  std::atomic<uint64_t> vertex_count_{0};
  std::atomic<uint64_t> edge_count_{0};
  mutable obs::TimedSharedMutex index_mu_{"titan.lock_wait_us"};
  std::set<std::pair<std::string, std::string>> indexed_;  // (label, key)
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_TITAN_TITAN_GRAPH_H_
