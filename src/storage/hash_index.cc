#include "storage/hash_index.h"

#include "obs/lock_timer.h"

#include <algorithm>
#include <mutex>

namespace graphbench {

Status HashIndex::Insert(const Value& key, RowId id) {
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  auto& ids = map_[key];
  if (unique_ && !ids.empty()) {
    return Status::AlreadyExists("duplicate key in unique index " + name_);
  }
  ids.push_back(id);
  ++entries_;
  return Status::OK();
}

Status HashIndex::Remove(const Value& key, RowId id) {
  std::unique_lock<obs::TimedSharedMutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return Status::NotFound("index key");
  auto& ids = it->second;
  auto pos = std::find(ids.begin(), ids.end(), id);
  if (pos == ids.end()) return Status::NotFound("row id under key");
  ids.erase(pos);
  --entries_;
  if (ids.empty()) map_.erase(it);
  return Status::OK();
}

void HashIndex::Lookup(const Value& key, std::vector<RowId>* out) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return;
  out->insert(out->end(), it->second.begin(), it->second.end());
}

Result<RowId> HashIndex::LookupUnique(const Value& key) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second.empty()) {
    return Status::NotFound("key not in index " + name_);
  }
  return it->second.front();
}

bool HashIndex::Contains(const Value& key) const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return map_.find(key) != map_.end();
}

uint64_t HashIndex::entry_count() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  return entries_;
}

uint64_t HashIndex::ApproximateSizeBytes() const {
  std::shared_lock<obs::TimedSharedMutex> lock(mu_);
  // Bucket + key + id-vector overhead estimate per entry.
  return entries_ * 56 + map_.bucket_count() * 8;
}

}  // namespace graphbench
