#include "engines/native/native_graph.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>

#include "graph/shortest_path.h"
#include "graph/value_codec.h"
#include "storage/heap_table.h"  // ValueFootprint
#include "util/stopwatch.h"

namespace graphbench {

namespace {
using concurrency::EpochGuard;
using concurrency::EpochManager;
using concurrency::ReadPin;
using concurrency::WriteBatch;

// Appends one record, in the format the journal and the store file share:
// the kind tag, then each field as a Value or a PropertyMap.
template <typename... Fields>
void AppendRecord(std::string* out, char kind, const Fields&... fields) {
  out->push_back(kind);
  auto encode = [out](const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, PropertyMap>) {
      valuecodec::EncodePropertyMap(out, field);
    } else {
      valuecodec::EncodeValue(out, Value(field));
    }
  };
  (encode(fields), ...);
}

}  // namespace

NativeGraph::NativeGraph(NativeGraphOptions options) : options_(options) {
  if (!options_.durability.enabled) return;
  storage::FileSystem* fs = storage::ResolveFileSystem(options_.durability);
  auto store = fs->Open(storage::DbPath(options_.durability, "neo4j"));
  auto journal = storage::Wal::Create(
      fs, storage::WalPath(options_.durability, "neo4j"), /*salt=*/1);
  if (!store.ok() || !journal.ok()) {
    durability_error_ = !store.ok() ? store.status() : journal.status();
    return;
  }
  store_file_ = std::move(store).value();
  journal_ = std::move(journal).value();
  // Each run starts a fresh store file.
  durability_error_ = store_file_->Truncate(0);
}

uint32_t NativeGraph::InternLabel(EpochManager& mgr, std::string_view label) {
  std::string key(label);
  if (const uint32_t* id = label_ids_.Find(key, EpochManager::kWriterPin)) {
    return *id;
  }
  uint32_t id = uint32_t(label_names_.size());
  label_names_.PushBack(mgr, key);
  label_ids_.Insert(mgr, key, id);
  return id;
}

int NativeGraph::LookupLabel(std::string_view label, uint64_t pin) const {
  const uint32_t* id = label_ids_.Find(label, pin);
  return id == nullptr ? -1 : int(*id);
}

NativeGraph::AdjGroup& NativeGraph::GroupFor(VertexRec& rec,
                                             uint32_t edge_label) {
  for (AdjGroup& g : rec.adj) {
    if (g.edge_label == edge_label) return g;
  }
  rec.adj.push_back(AdjGroup{edge_label, {}, {}});
  return rec.adj.back();
}

NativeGraph::Counts NativeGraph::WriterCounts() const {
  const Counts* c = counts_.WriterLatest();
  return c != nullptr ? *c : Counts{};
}

void NativeGraph::SerializeRange(size_t from_vertex, size_t from_edge,
                                 uint64_t pin, std::string* out) const {
  const Counts* c = counts_.Read(pin);
  size_t end_v = c != nullptr ? c->vertices : 0;
  size_t end_e = c != nullptr ? c->edges : 0;
  for (size_t v = from_vertex; v < end_v; ++v) {
    const VertexRec* rec = vertices_.Read(v, pin);
    if (rec == nullptr) continue;
    AppendRecord(out, 'V', int64_t(v),
                 std::string_view(label_names_[rec->label]), rec->props);
  }
  for (size_t e = from_edge; e < end_e; ++e) {
    const EdgeRec* rec = edges_.Read(e, pin);
    if (rec == nullptr || rec->removed) continue;
    AppendRecord(out, 'E', std::string_view(label_names_[rec->label]),
                 int64_t(rec->src), int64_t(rec->dst), rec->props);
  }
}

template <typename... Fields>
Status NativeGraph::JournalLocked(char kind, const Fields&... fields) {
  if (!options_.durability.enabled) return Status::OK();
  GB_RETURN_IF_ERROR(durability_error_);
  std::string record;
  AppendRecord(&record, kind, fields...);
  GB_RETURN_IF_ERROR(journal_->Append(/*type=*/1, record).status());
  return options_.durability.fsync_on_commit ? journal_->Sync()
                                             : Status::OK();
}

Status NativeGraph::MaybeCheckpointLocked() {
  if (options_.checkpoint_interval_writes == 0 ||
      ++writes_since_checkpoint_ < options_.checkpoint_interval_writes) {
    return Status::OK();
  }
  // Flush the dirty records: serialize everything written since the last
  // checkpoint into the store's snapshot buffer. The writer stalls —
  // producing the Figure 3 write-throughput dips — but unlike the old
  // coarse-latch design, readers keep running against their pinned
  // snapshots for the whole pause. A configurable floor models the fsync
  // an in-memory analogue doesn't pay.
  Stopwatch checkpoint_clock;
  SerializeRange(checkpointed_vertices_, checkpointed_edges_,
                 EpochManager::kWriterPin, &checkpoint_buffer_);
  Status st;
  if (store_file_ != nullptr) {
    // Durable mode: the stall is the genuine I/O — journal made durable,
    // this checkpoint's records appended to the store file and fsynced,
    // journal reset — so the simulated fsync floor is skipped.
    st = journal_->Sync();
    if (st.ok()) st = store_file_->Append(checkpoint_buffer_);
    if (st.ok()) st = store_file_->Sync();
    if (st.ok()) {
      st = journal_->ResetForCheckpoint(
          checkpoints_.load(std::memory_order_relaxed) + 2);
    }
  } else {
    uint64_t target =
        std::min(writes_since_checkpoint_ *
                     options_.checkpoint_micros_per_dirty_write,
                 options_.checkpoint_max_pause_micros);
    uint64_t spent = checkpoint_clock.ElapsedMicros();
    if (spent < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(target - spent));
    }
  }
  checkpoint_buffer_.clear();
  writes_since_checkpoint_ = 0;
  // A failed checkpoint keeps its marks, so the next one retries the same
  // records; the journal, not reset, still holds them.
  GB_RETURN_IF_ERROR(st);
  Counts c = WriterCounts();
  checkpointed_vertices_ = c.vertices;
  checkpointed_edges_ = c.edges;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status NativeGraph::SnapshotTo(std::string* out) const {
  // Pinned-snapshot serialization: consistent even while updates stream in.
  EpochGuard guard;
  out->clear();
  SerializeRange(0, 0, ReadPin(guard), out);
  return Status::OK();
}

Status NativeGraph::RestoreFrom(std::string_view snapshot) {
  {
    EpochGuard guard;
    Counts c = WriterCounts();
    if (c.vertices != 0 || c.edges != 0) {
      return Status::InvalidArgument("restore requires an empty store");
    }
  }
  // One batch for the whole restore: the recovered store appears in a
  // single epoch, and per-record versions collapse in place.
  WriteBatch batch;
  std::string_view cursor = snapshot;
  while (!cursor.empty()) {
    char tag = cursor[0];
    cursor.remove_prefix(1);
    if (tag == 'V') {
      Value vid, label;
      PropertyMap props;
      if (!valuecodec::DecodeValue(&cursor, &vid) ||
          !valuecodec::DecodeValue(&cursor, &label) ||
          !valuecodec::DecodePropertyMap(&cursor, &props)) {
        return Status::Corruption("bad vertex record in snapshot");
      }
      GB_ASSIGN_OR_RETURN(VertexId created,
                          AddVertex(label.as_string(), props));
      if (created != VertexId(vid.as_int())) {
        return Status::Corruption("snapshot vertex ids not dense");
      }
    } else if (tag == 'E') {
      Value label, src, dst;
      PropertyMap props;
      if (!valuecodec::DecodeValue(&cursor, &label) ||
          !valuecodec::DecodeValue(&cursor, &src) ||
          !valuecodec::DecodeValue(&cursor, &dst) ||
          !valuecodec::DecodePropertyMap(&cursor, &props)) {
        return Status::Corruption("bad edge record in snapshot");
      }
      GB_RETURN_IF_ERROR(AddEdge(label.as_string(),
                                 VertexId(src.as_int()),
                                 VertexId(dst.as_int()), props)
                             .status());
    } else {
      return Status::Corruption("unknown snapshot record tag");
    }
  }
  return Status::OK();
}

Result<VertexId> NativeGraph::AddVertex(std::string_view label,
                                        const PropertyMap& props) {
  WriteBatch batch;
  std::lock_guard<std::mutex> lock(write_mu_);
  EpochManager& mgr = EpochManager::Global();
  uint32_t label_id = InternLabel(mgr, label);
  VertexId v = vertices_.size();
  // Maintain any unique index declared on (label, key): check every index
  // first so a violation publishes nothing.
  const std::vector<IndexHandle>* handles = indexes_.WriterLatest();
  if (handles != nullptr) {
    for (const IndexHandle& h : *handles) {
      if (h.label != label_id) continue;
      const Value& value = props.Get(h.key);
      if (value.is_null()) continue;
      if (h.map->Find(value, EpochManager::kWriterPin) != nullptr) {
        return Status::AlreadyExists("unique index violation on " + h.key);
      }
    }
  }
  GB_RETURN_IF_ERROR(JournalLocked('V', int64_t(v), label, props));
  if (handles != nullptr) {
    for (const IndexHandle& h : *handles) {
      if (h.label != label_id) continue;
      const Value& value = props.Get(h.key);
      if (value.is_null()) continue;
      h.map->Insert(mgr, value, v);
    }
  }
  vertices_.Append(mgr, VertexRec{label_id, props, {}});
  uint64_t added = 64;
  for (const auto& [k, val] : props.entries()) {
    added += k.size() + ValueFootprint(val);
  }
  counts_.Publish(mgr, [added](Counts& c) {
    ++c.vertices;
    c.bytes += added;
  });
  GB_RETURN_IF_ERROR(MaybeCheckpointLocked());
  return v;
}

Result<EdgeId> NativeGraph::AddEdge(std::string_view label, VertexId src,
                                    VertexId dst, const PropertyMap& props) {
  WriteBatch batch;
  std::lock_guard<std::mutex> lock(write_mu_);
  EpochManager& mgr = EpochManager::Global();
  if (src >= vertices_.size() || dst >= vertices_.size()) {
    return Status::InvalidArgument("edge endpoint does not exist");
  }
  GB_RETURN_IF_ERROR(
      JournalLocked('E', label, int64_t(src), int64_t(dst), props));
  uint32_t label_id = InternLabel(mgr, label);
  EdgeId e = edges_.size();
  edges_.Append(mgr, EdgeRec{label_id, src, dst, props, false});
  // Index-free adjacency: both endpoint records get a direct pointer.
  // The mutated records are copy-on-write versions; concurrent readers
  // keep traversing the adjacency of their pinned epoch.
  vertices_.Publish(mgr, src, [&](VertexRec& rec) {
    GroupFor(rec, label_id).out.push_back(Neighbor{dst, e});
  });
  vertices_.Publish(mgr, dst, [&](VertexRec& rec) {
    GroupFor(rec, label_id).in.push_back(Neighbor{src, e});
  });
  uint64_t added = 48 + 2 * sizeof(Neighbor);
  for (const auto& [k, val] : props.entries()) {
    added += k.size() + ValueFootprint(val);
  }
  counts_.Publish(mgr, [added](Counts& c) {
    ++c.edges;
    c.bytes += added;
  });
  GB_RETURN_IF_ERROR(MaybeCheckpointLocked());
  return e;
}

Status NativeGraph::GetVertex(VertexId v, std::string* label,
                              PropertyMap* props) const {
  EpochGuard guard;
  const VertexRec* rec = vertices_.Read(v, ReadPin(guard));
  if (rec == nullptr) return Status::NotFound("vertex");
  if (label != nullptr) *label = label_names_[rec->label];
  if (props != nullptr) *props = rec->props;
  return Status::OK();
}

Status NativeGraph::GetEdge(EdgeId e, std::string* label, VertexId* src,
                            VertexId* dst, PropertyMap* props) const {
  EpochGuard guard;
  const EdgeRec* rec = edges_.Read(e, ReadPin(guard));
  if (rec == nullptr || rec->removed) return Status::NotFound("edge");
  if (label != nullptr) *label = label_names_[rec->label];
  if (src != nullptr) *src = rec->src;
  if (dst != nullptr) *dst = rec->dst;
  if (props != nullptr) *props = rec->props;
  return Status::OK();
}

Result<Value> NativeGraph::VertexProperty(VertexId v,
                                          std::string_view key) const {
  EpochGuard guard;
  const VertexRec* rec = vertices_.Read(v, ReadPin(guard));
  if (rec == nullptr) return Status::NotFound("vertex");
  return rec->props.Get(key);
}

Status NativeGraph::SetVertexProperty(VertexId v, std::string_view key,
                                      const Value& value) {
  WriteBatch batch;
  std::lock_guard<std::mutex> lock(write_mu_);
  EpochManager& mgr = EpochManager::Global();
  if (v >= vertices_.size()) return Status::NotFound("vertex");
  GB_RETURN_IF_ERROR(JournalLocked('P', int64_t(v), key, value));
  vertices_.Publish(mgr, v,
                    [&](VertexRec& rec) { rec.props.Set(key, value); });
  return MaybeCheckpointLocked();
}

Status NativeGraph::Neighbors(VertexId v, std::string_view edge_label,
                              Direction dir,
                              std::vector<Neighbor>* out) const {
  EpochGuard guard;
  const uint64_t pin = ReadPin(guard);
  const VertexRec* rec = vertices_.Read(v, pin);
  if (rec == nullptr) return Status::NotFound("vertex");
  int wanted = edge_label.empty() ? -2 : LookupLabel(edge_label, pin);
  if (wanted == -1) return Status::OK();  // label never seen: no edges
  for (const AdjGroup& g : rec->adj) {
    if (wanted != -2 && int(g.edge_label) != wanted) continue;
    if (dir == Direction::kOut || dir == Direction::kBoth) {
      out->insert(out->end(), g.out.begin(), g.out.end());
    }
    if (dir == Direction::kIn || dir == Direction::kBoth) {
      out->insert(out->end(), g.in.begin(), g.in.end());
    }
  }
  return Status::OK();
}

int NativeGraph::LabelId(std::string_view label) const {
  EpochGuard guard;
  return LookupLabel(label, ReadPin(guard));
}

Result<uint32_t> NativeGraph::VertexLabelId(VertexId v) const {
  EpochGuard guard;
  const VertexRec* rec = vertices_.Read(v, ReadPin(guard));
  if (rec == nullptr) return Status::NotFound("vertex");
  return rec->label;
}

Status NativeGraph::CreateUniqueIndex(std::string_view label,
                                      std::string_view key) {
  WriteBatch batch;
  std::lock_guard<std::mutex> lock(write_mu_);
  EpochManager& mgr = EpochManager::Global();
  uint32_t label_id = InternLabel(mgr, label);
  const std::vector<IndexHandle>* handles = indexes_.WriterLatest();
  if (handles != nullptr) {
    for (const IndexHandle& h : *handles) {
      if (h.label == label_id && h.key == key) {
        return Status::OK();  // idempotent
      }
    }
  }
  // Back-fill off to the side; the handle is only published when the
  // whole back-fill succeeds, so a duplicate leaves no trace.
  auto map = std::make_unique<ValueIndex>();
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    const VertexRec* rec = vertices_.WriterLatest(v);
    if (rec == nullptr || rec->label != label_id) continue;
    const Value& value = rec->props.Get(key);
    if (value.is_null()) continue;
    if (!map->Insert(mgr, value, v)) {
      return Status::AlreadyExists("existing duplicate blocks unique index");
    }
  }
  index_storage_.push_back(std::move(map));
  ValueIndex* published = index_storage_.back().get();
  indexes_.Publish(mgr, [&](std::vector<IndexHandle>& hs) {
    hs.push_back(IndexHandle{label_id, std::string(key), published});
  });
  return Status::OK();
}

Result<VertexId> NativeGraph::FindVertex(std::string_view label,
                                         std::string_view key,
                                         const Value& value) const {
  EpochGuard guard;
  const uint64_t pin = ReadPin(guard);
  int label_id = LookupLabel(label, pin);
  if (label_id < 0) return Status::NotFound("label");
  const std::vector<IndexHandle>* handles = indexes_.Read(pin);
  if (handles != nullptr) {
    for (const IndexHandle& h : *handles) {
      if (int(h.label) != label_id || h.key != key) continue;
      const VertexId* found = h.map->Find(value, pin);
      if (found == nullptr) return Status::NotFound("vertex");
      return *found;
    }
  }
  // No index: linear scan (the expensive path the paper's indexing rule
  // exists to avoid).
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    const VertexRec* rec = vertices_.Read(v, pin);
    if (rec != nullptr && int(rec->label) == label_id &&
        rec->props.Get(key) == value) {
      return v;
    }
  }
  return Status::NotFound("vertex");
}

std::vector<VertexId> NativeGraph::VerticesByLabel(
    std::string_view label) const {
  EpochGuard guard;
  const uint64_t pin = ReadPin(guard);
  std::vector<VertexId> out;
  int wanted = label.empty() ? -2 : LookupLabel(label, pin);
  if (wanted == -1) return out;
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    const VertexRec* rec = vertices_.Read(v, pin);
    if (rec == nullptr) continue;
    if (wanted == -2 || int(rec->label) == wanted) out.push_back(v);
  }
  return out;
}

uint64_t NativeGraph::VertexCount() const {
  EpochGuard guard;
  const Counts* c = counts_.Read(ReadPin(guard));
  return c != nullptr ? c->vertices : 0;
}

uint64_t NativeGraph::EdgeCount() const {
  EpochGuard guard;
  const Counts* c = counts_.Read(ReadPin(guard));
  return c != nullptr ? c->edges - c->removed_edges : 0;
}

Status NativeGraph::RemoveEdge(std::string_view label, VertexId src,
                               VertexId dst) {
  WriteBatch batch;
  std::lock_guard<std::mutex> lock(write_mu_);
  EpochManager& mgr = EpochManager::Global();
  if (src >= vertices_.size() || dst >= vertices_.size()) {
    return Status::NotFound("vertex");
  }
  int label_id = LookupLabel(label, EpochManager::kWriterPin);
  if (label_id < 0) return Status::NotFound("edge");
  // Locate one live edge between the endpoints in either orientation.
  const VertexRec* srec = vertices_.WriterLatest(src);
  if (srec == nullptr) return Status::NotFound("vertex");
  auto find_edge = [&]() -> EdgeId {
    for (const AdjGroup& g : srec->adj) {
      if (int(g.edge_label) != label_id) continue;
      for (const auto* side : {&g.out, &g.in}) {
        for (const Neighbor& n : *side) {
          if (n.vertex == dst) return n.edge;
        }
      }
    }
    return kInvalidEdgeId;
  };
  const EdgeId eid = find_edge();
  if (eid == kInvalidEdgeId) return Status::NotFound("edge");
  const EdgeRec* erec = edges_.WriterLatest(eid);
  const VertexId esrc = erec->src;
  const VertexId edst = erec->dst;
  const uint32_t elabel = erec->label;
  GB_RETURN_IF_ERROR(
      JournalLocked('R', label, int64_t(esrc), int64_t(edst)));
  auto unlink = [eid](std::vector<Neighbor>& list) {
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (it->edge == eid) {
        list.erase(it);
        return;
      }
    }
  };
  edges_.Publish(mgr, eid, [](EdgeRec& rec) { rec.removed = true; });
  vertices_.Publish(mgr, esrc, [&](VertexRec& rec) {
    unlink(GroupFor(rec, elabel).out);
  });
  vertices_.Publish(mgr, edst, [&](VertexRec& rec) {
    unlink(GroupFor(rec, elabel).in);
  });
  counts_.Publish(mgr, [](Counts& c) {
    ++c.removed_edges;
    c.bytes -= 48 + 2 * sizeof(Neighbor);
  });
  return MaybeCheckpointLocked();
}

uint64_t NativeGraph::ApproximateSizeBytes() const {
  EpochGuard guard;
  const Counts* c = counts_.Read(ReadPin(guard));
  return c != nullptr ? c->bytes : 0;
}

Result<int> NativeGraph::ShortestPathLength(
    VertexId a, VertexId b, std::string_view edge_label) const {
  EpochGuard guard;
  const uint64_t pin = ReadPin(guard);
  if (vertices_.Read(a, pin) == nullptr ||
      vertices_.Read(b, pin) == nullptr) {
    return Status::NotFound("vertex");
  }
  if (a == b) return 0;
  int wanted = LookupLabel(edge_label, pin);
  if (wanted < 0) return -1;

  // Bidirectional BFS over undirected adjacency, run directly on the
  // in-record adjacency lists of the pinned epoch: the whole traversal sees
  // one consistent graph.
  return BidirectionalBfsDistance(a, b, [&](VertexId v, auto&& emit) {
    const VertexRec* rec = vertices_.Read(v, pin);
    if (rec == nullptr) return Status::OK();
    for (const AdjGroup& g : rec->adj) {
      if (int(g.edge_label) != wanted) continue;
      for (const auto* side : {&g.out, &g.in}) {
        for (const Neighbor& n : *side) {
          if (!emit(n.vertex)) return Status::OK();
        }
      }
    }
    return Status::OK();
  });
}

}  // namespace graphbench
