#include "engines/titan/titan_graph.h"

#include "obs/lock_timer.h"

#include <mutex>

#include "graph/value_codec.h"
#include "kv/key_codec.h"

namespace graphbench {

TitanGraph::TitanGraph(std::unique_ptr<KvStore> backend)
    : kv_(std::move(backend)) {}

std::string TitanGraph::VertexKey(uint64_t vid) {
  std::string key;
  keycodec::AppendRowKey(&key, 'V', vid);
  return key;
}

std::string TitanGraph::AdjPrefix(uint64_t vid, Direction dir,
                                  std::string_view elabel) {
  std::string key;
  keycodec::AppendRowKey(&key, 'A', vid);
  keycodec::AppendByte(&key, dir == Direction::kOut ? 0 : 1);
  if (!elabel.empty()) keycodec::AppendString(&key, elabel);
  return key;
}

std::string TitanGraph::AdjKey(uint64_t vid, Direction dir,
                               std::string_view elabel, uint64_t other,
                               uint64_t eid) {
  std::string key = AdjPrefix(vid, dir, elabel);
  keycodec::AppendU64(&key, other);
  keycodec::AppendU64(&key, eid);
  return key;
}

std::string TitanGraph::IndexKey(std::string_view label,
                                 std::string_view key, const Value& value) {
  std::string out;
  keycodec::AppendByte(&out, 'I');
  keycodec::AppendString(&out, label);
  keycodec::AppendString(&out, key);
  valuecodec::EncodeValue(&out, value);
  return out;
}

Status TitanGraph::RegisterUniqueIndex(std::string_view label,
                                       std::string_view key) {
  std::unique_lock<obs::TimedSharedMutex> lock(index_mu_);
  indexed_.emplace(std::string(label), std::string(key));
  return Status::OK();
}

Result<GVertex> TitanGraph::AddVertex(std::string_view label,
                                      const PropertyMap& props) {
  // Determine which unique index (if any) guards this label.
  std::string index_key;
  {
    std::shared_lock<obs::TimedSharedMutex> lock(index_mu_);
    for (const auto& [ilabel, ikey] : indexed_) {
      if (ilabel == label && props.Has(ikey)) {
        index_key = IndexKey(label, ikey, props.Get(ikey));
        break;
      }
    }
  }

  uint64_t vid = next_vertex_.fetch_add(1);
  std::string row;
  valuecodec::EncodeValue(&row, Value(std::string(label)));
  valuecodec::EncodePropertyMap(&row, props);

  if (!index_key.empty()) {
    // The backend has no isolation (Cassandra), so Titan takes an explicit
    // lock around the check-then-insert on the uniqueness index.
    LockManager::Guard guard = locks_.Lock(index_key);
    std::string existing;
    if (kv_->Get(index_key, &existing).ok()) {
      return Status::AlreadyExists("unique index violation");
    }
    std::string vid_bytes;
    keycodec::AppendU64(&vid_bytes, vid);
    GB_RETURN_IF_ERROR(kv_->Put(index_key, vid_bytes));
    GB_RETURN_IF_ERROR(kv_->Put(VertexKey(vid), row));
  } else {
    GB_RETURN_IF_ERROR(kv_->Put(VertexKey(vid), row));
  }
  ++vertex_count_;
  return GVertex{vid};
}

Status TitanGraph::AddEdge(std::string_view label, GVertex from, GVertex to,
                           const PropertyMap& props) {
  std::string probe;
  if (!kv_->Get(VertexKey(from.id), &probe).ok() ||
      !kv_->Get(VertexKey(to.id), &probe).ok()) {
    return Status::InvalidArgument("edge endpoint does not exist");
  }
  uint64_t eid = next_edge_.fetch_add(1);
  std::string row;
  valuecodec::EncodePropertyMap(&row, props);
  // The edge is materialized on both endpoints (Titan's BigTable layout).
  GB_RETURN_IF_ERROR(
      kv_->Put(AdjKey(from.id, Direction::kOut, label, to.id, eid), row));
  GB_RETURN_IF_ERROR(
      kv_->Put(AdjKey(to.id, Direction::kIn, label, from.id, eid), row));
  ++edge_count_;
  return Status::OK();
}

Status TitanGraph::RemoveEdge(std::string_view label, GVertex from,
                              GVertex to) {
  // Scan the out-adjacency of each orientation for one matching edge,
  // then delete both of its materializations.
  for (const auto& [src, dst] :
       {std::pair<GVertex, GVertex>{from, to}, {to, from}}) {
    std::vector<std::pair<std::string, std::string>> rows;
    GB_RETURN_IF_ERROR(
        kv_->ScanPrefix(AdjPrefix(src.id, Direction::kOut, label), &rows));
    for (const auto& [key, value] : rows) {
      std::string_view kview(key);
      uint8_t tag, dbyte;
      uint64_t vid, other, eid;
      std::string elabel;
      if (!keycodec::DecodeByte(&kview, &tag) ||
          !keycodec::DecodeU64(&kview, &vid) ||
          !keycodec::DecodeByte(&kview, &dbyte) ||
          !keycodec::DecodeString(&kview, &elabel) ||
          !keycodec::DecodeU64(&kview, &other) ||
          !keycodec::DecodeU64(&kview, &eid)) {
        return Status::Corruption("bad adjacency key");
      }
      if (other != dst.id) continue;
      GB_RETURN_IF_ERROR(kv_->Delete(
          AdjKey(src.id, Direction::kOut, label, dst.id, eid)));
      GB_RETURN_IF_ERROR(kv_->Delete(
          AdjKey(dst.id, Direction::kIn, label, src.id, eid)));
      --edge_count_;
      return Status::OK();
    }
  }
  return Status::NotFound("edge");
}

Result<std::vector<GVertex>> TitanGraph::VerticesByProperty(
    std::string_view label, std::string_view key, const Value& value) {
  {
    std::shared_lock<obs::TimedSharedMutex> lock(index_mu_);
    if (indexed_.count({std::string(label), std::string(key)})) {
      std::string vid_bytes;
      Status s = kv_->Get(IndexKey(label, key, value), &vid_bytes);
      if (s.IsNotFound()) return std::vector<GVertex>{};
      GB_RETURN_IF_ERROR(s);
      std::string_view view(vid_bytes);
      uint64_t vid;
      if (!keycodec::DecodeU64(&view, &vid)) {
        return Status::Corruption("bad index entry");
      }
      return std::vector<GVertex>{GVertex{vid}};
    }
  }
  // Unindexed: scan all vertex rows (the expensive fallback).
  GB_ASSIGN_OR_RETURN(std::vector<GVertex> all, AllVertices(label));
  std::vector<GVertex> out;
  for (GVertex v : all) {
    GB_ASSIGN_OR_RETURN(Value got, Property(v, key));
    if (got == value) out.push_back(v);
  }
  return out;
}

Result<std::vector<GVertex>> TitanGraph::AllVertices(
    std::string_view label) {
  std::string prefix;
  keycodec::AppendByte(&prefix, 'V');
  std::vector<std::pair<std::string, std::string>> rows;
  GB_RETURN_IF_ERROR(kv_->ScanPrefix(prefix, &rows));
  std::vector<GVertex> out;
  for (const auto& [key, value] : rows) {
    std::string_view kview(key);
    uint8_t tag;
    uint64_t vid;
    if (!keycodec::DecodeByte(&kview, &tag) ||
        !keycodec::DecodeU64(&kview, &vid)) {
      return Status::Corruption("bad vertex key");
    }
    if (!label.empty()) {
      std::string_view vview(value);
      Value vlabel;
      if (!valuecodec::DecodeValue(&vview, &vlabel)) {
        return Status::Corruption("bad vertex row");
      }
      if (vlabel.as_string() != label) continue;
    }
    out.push_back(GVertex{vid});
  }
  return out;
}

Result<std::vector<GVertex>> TitanGraph::Adjacent(
    GVertex v, std::string_view edge_label, Direction dir) {
  std::vector<GVertex> out;
  std::vector<std::pair<std::string, std::string>> rows;
  for (Direction d : {Direction::kOut, Direction::kIn}) {
    if (dir != Direction::kBoth && dir != d) continue;
    GB_RETURN_IF_ERROR(kv_->ScanPrefix(AdjPrefix(v.id, d, edge_label),
                                       &rows));
    for (const auto& [key, value] : rows) {
      // Key: 'A' vid dir [elabel] other eid — decode from the back is
      // awkward with varying label, so decode forward.
      std::string_view kview(key);
      uint8_t tag, dbyte;
      uint64_t vid, other, eid;
      std::string elabel;
      if (!keycodec::DecodeByte(&kview, &tag) ||
          !keycodec::DecodeU64(&kview, &vid) ||
          !keycodec::DecodeByte(&kview, &dbyte) ||
          !keycodec::DecodeString(&kview, &elabel) ||
          !keycodec::DecodeU64(&kview, &other) ||
          !keycodec::DecodeU64(&kview, &eid)) {
        return Status::Corruption("bad adjacency key");
      }
      out.push_back(GVertex{other});
    }
  }
  return out;
}

Status TitanGraph::LoadVertex(uint64_t vid, std::string* label,
                              PropertyMap* props) const {
  std::string row;
  GB_RETURN_IF_ERROR(kv_->Get(VertexKey(vid), &row));
  std::string_view view(row);
  Value vlabel;
  if (!valuecodec::DecodeValue(&view, &vlabel) ||
      !valuecodec::DecodePropertyMap(&view, props)) {
    return Status::Corruption("bad vertex row");
  }
  if (label != nullptr) *label = vlabel.as_string();
  return Status::OK();
}

Result<Value> TitanGraph::Property(GVertex v, std::string_view key) {
  // Whole-row decode per property read: the storage-abstraction tax.
  PropertyMap props;
  GB_RETURN_IF_ERROR(LoadVertex(v.id, nullptr, &props));
  return props.Get(key);
}

Result<std::string> TitanGraph::Label(GVertex v) {
  std::string label;
  PropertyMap props;
  GB_RETURN_IF_ERROR(LoadVertex(v.id, &label, &props));
  return label;
}

}  // namespace graphbench
