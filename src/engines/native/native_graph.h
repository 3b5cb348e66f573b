#ifndef GRAPHBENCH_ENGINES_NATIVE_NATIVE_GRAPH_H_
#define GRAPHBENCH_ENGINES_NATIVE_NATIVE_GRAPH_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "concurrency/epoch.h"
#include "concurrency/versioned.h"
#include "graph/graph_types.h"
#include "storage/durability.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/status.h"

namespace graphbench {

/// Tuning knobs for the native store.
struct NativeGraphOptions {
  /// Run a checkpoint every N writes (0 disables). Neo4j 2.3's periodic
  /// checkpointing is what causes the sudden write-throughput drops the
  /// paper observes in Figure 3. The checkpoint is real work: the records
  /// written since the last checkpoint are serialized into the store's
  /// snapshot buffer while the writer is stalled.
  uint64_t checkpoint_interval_writes = 20000;
  /// Floor on the stall per checkpointed write, modelling the fsync cost
  /// a memory-resident analogue doesn't pay. Applied on top of the real
  /// serialization work, capped by `max_pause_micros`.
  uint64_t checkpoint_micros_per_dirty_write = 3;
  uint64_t checkpoint_max_pause_micros = 100000;
  /// Real durability (--durable): every write appends a journal record
  /// (optionally fsynced per commit), and the checkpoint appends the
  /// newly serialized records to the store file and fsyncs it instead of
  /// sleeping the simulated floor — the Figure 3 dips become genuine
  /// fsync stalls.
  storage::DurabilityOptions durability{};
};

/// Specialized graph database with native graph storage: the Neo4j analog.
///
/// Vertex records embed adjacency lists grouped by edge label ("index-free
/// adjacency"): expanding a vertex's neighbourhood dereferences in-record
/// pointers and never consults an index, so traversal latency is
/// independent of graph size — the property §4.2 credits Neo4j with.
///
/// Concurrency: single writer (serialized by a plain mutex), lock-free
/// readers. Vertex and edge records live in epoch-versioned slot tables:
/// a mutation installs a copy-on-write record tagged with the write
/// epoch, readers pin an epoch and traverse the version visible at their
/// pin. Readers therefore never block — not even during the checkpoint
/// stall, which under the old coarse shared_mutex froze every read for up
/// to `checkpoint_max_pause_micros`.
class NativeGraph {
 public:
  explicit NativeGraph(NativeGraphOptions options = {});

  NativeGraph(const NativeGraph&) = delete;
  NativeGraph& operator=(const NativeGraph&) = delete;

  Result<VertexId> AddVertex(std::string_view label,
                             const PropertyMap& props);
  Result<EdgeId> AddEdge(std::string_view label, VertexId src, VertexId dst,
                         const PropertyMap& props);
  Status GetVertex(VertexId v, std::string* label, PropertyMap* props) const;
  Status GetEdge(EdgeId e, std::string* label, VertexId* src, VertexId* dst,
                 PropertyMap* props) const;
  /// Single vertex property (Null when absent).
  Result<Value> VertexProperty(VertexId v, std::string_view key) const;
  Status SetVertexProperty(VertexId v, std::string_view key,
                           const Value& value);
  /// Appends to `out` the adjacency of `v` restricted to `edge_label`
  /// (empty = any) and direction. The buffer is the caller's, so an
  /// expansion over many vertices reuses one.
  Status Neighbors(VertexId v, std::string_view edge_label, Direction dir,
                   std::vector<Neighbor>* out) const;
  /// Interned id of `label`, or -1 when no record has carried it: with
  /// VertexLabelId, a label check that copies no name.
  int LabelId(std::string_view label) const;
  Result<uint32_t> VertexLabelId(VertexId v) const;
  /// Unique lookup through the (label, property) index.
  Result<VertexId> FindVertex(std::string_view label, std::string_view key,
                              const Value& value) const;
  /// All vertices of `label` (any label when empty). For scans/loaders.
  std::vector<VertexId> VerticesByLabel(std::string_view label) const;
  uint64_t VertexCount() const;
  uint64_t EdgeCount() const;
  uint64_t ApproximateSizeBytes() const;

  /// Declares a unique index on (vertex label, property). The benchmark
  /// creates one on every label's "id" property, per the paper's fairness
  /// rule (§4.1). Existing vertices are back-filled.
  Status CreateUniqueIndex(std::string_view label, std::string_view key);

  /// Removes one `label` edge between src and dst, trying both
  /// orientations (SNB `knows` is undirected). The edge record is
  /// tombstoned — ids stay dense — and both adjacency pointers are
  /// unlinked. NotFound when no such edge exists.
  Status RemoveEdge(std::string_view label, VertexId src, VertexId dst);

  /// Unweighted single-pair shortest-path length over `edge_label`
  /// (treated as undirected, SNB `knows` semantics). -1 when unreachable.
  /// Runs directly on adjacency records (what Cypher's shortestPath()
  /// compiles to). Bidirectional BFS.
  Result<int> ShortestPathLength(VertexId a, VertexId b,
                                 std::string_view edge_label) const;

  /// Number of checkpoints taken so far (observable for tests/benchmarks).
  uint64_t checkpoints_taken() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Serializes the whole store (labels, vertices with properties, edges)
  /// into `out` — the store-file a restart would recover from. Reads a
  /// pinned snapshot; safe (and consistent) while updates stream in.
  Status SnapshotTo(std::string* out) const;

  /// Rebuilds this (empty) store from a snapshot. Fails on a non-empty
  /// store or corrupt input. The whole restore publishes as one epoch.
  Status RestoreFrom(std::string_view snapshot);

 private:
  struct AdjGroup {
    uint32_t edge_label;
    std::vector<Neighbor> out;
    std::vector<Neighbor> in;
  };
  struct VertexRec {
    uint32_t label = 0;
    PropertyMap props;
    std::vector<AdjGroup> adj;  // sorted insertion order; few edge labels
  };
  struct EdgeRec {
    uint32_t label = 0;
    VertexId src = 0;
    VertexId dst = 0;
    PropertyMap props;
    bool removed = false;  // tombstone; record kept so edge ids stay dense
  };
  /// Epoch-versioned aggregate counters: readers see the totals of their
  /// pinned snapshot.
  struct Counts {
    uint64_t vertices = 0;
    uint64_t edges = 0;
    uint64_t removed_edges = 0;
    uint64_t bytes = 0;
  };
  using ValueIndex =
      concurrency::EpochHashMap<Value, VertexId, ValueHash>;
  struct IndexHandle {
    uint32_t label;
    std::string key;
    ValueIndex* map;  // owned by index_storage_
  };

  // Interns `label`, assigning the next id on first use. Caller holds
  // write_mu_.
  uint32_t InternLabel(concurrency::EpochManager& mgr,
                       std::string_view label);
  // Returns the label id visible at `pin`, or -1.
  int LookupLabel(std::string_view label, uint64_t pin) const;
  static AdjGroup& GroupFor(VertexRec& rec, uint32_t edge_label);
  Counts WriterCounts() const;
  // Checkpoint bookkeeping; called with write_mu_ held after a write
  // publishes. A failed durable checkpoint is returned, while the write
  // that triggered it stands in memory (commit-unknown).
  Status MaybeCheckpointLocked();
  // Durable mode: appends one journal record of `kind` and `fields`
  // (fsynced under fsync_on_commit), or returns the kept open failure; a
  // no-op otherwise. Called with write_mu_ held before a write publishes
  // anything, so a failed append publishes nothing.
  template <typename... Fields>
  Status JournalLocked(char kind, const Fields&... fields);

  // Serializes records [from_vertex, from_edge) visible at `pin` into
  // `out`.
  void SerializeRange(size_t from_vertex, size_t from_edge, uint64_t pin,
                      std::string* out) const;

  NativeGraphOptions options_;
  std::mutex write_mu_;  // serializes writers; readers never take it

  concurrency::VersionedTable<VertexRec> vertices_;
  concurrency::VersionedTable<EdgeRec> edges_;
  concurrency::VersionedCell<Counts> counts_;
  // Hashed as string_views, so a lookup by name copies nothing.
  concurrency::EpochHashMap<std::string, uint32_t,
                            std::hash<std::string_view>>
      label_ids_;
  concurrency::StableVec<std::string> label_names_;
  // Unique indexes: the handle list is republished on schema changes;
  // the per-index maps are insert-only and epoch-tagged.
  concurrency::VersionedCell<std::vector<IndexHandle>> indexes_;
  std::deque<std::unique_ptr<ValueIndex>> index_storage_;

  // Incremental checkpoint state (writer-only, under write_mu_):
  // everything before these marks has been checkpointed. The buffer holds
  // one checkpoint's records during its stall, then is cleared for reuse.
  size_t checkpointed_vertices_ = 0;
  size_t checkpointed_edges_ = 0;
  std::string checkpoint_buffer_;
  uint64_t writes_since_checkpoint_ = 0;
  std::atomic<uint64_t> checkpoints_{0};

  // Durable mode (writer-only, under write_mu_): the WAL journal and the
  // store file the checkpoint appends to. Null when durability is off or
  // the files failed to open; the open failure is kept in
  // durability_error_ and returned by every later write.
  std::unique_ptr<storage::Wal> journal_;
  std::unique_ptr<storage::File> store_file_;
  Status durability_error_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_NATIVE_NATIVE_GRAPH_H_
