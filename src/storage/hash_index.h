#ifndef GRAPHBENCH_STORAGE_HASH_INDEX_H_
#define GRAPHBENCH_STORAGE_HASH_INDEX_H_

#include <shared_mutex>

#include "obs/lock_timer.h"
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "util/status.h"
#include "util/value.h"

namespace graphbench {

/// Hash index from a column value to RowIds. Per the paper's fairness rule,
/// every system indexes exactly the vertex-ID columns (§4.1); the relational
/// engines additionally index edge-table source/target columns since those
/// hold vertex IDs.
class HashIndex {
 public:
  /// `unique` enforces at-most-one RowId per key.
  HashIndex(std::string name, bool unique)
      : name_(std::move(name)), unique_(unique) {}

  Status Insert(const Value& key, RowId id);
  Status Remove(const Value& key, RowId id);

  /// Appends the RowIds for `key` to `*out` (nothing when absent), so a
  /// caller probing many keys reuses one buffer.
  void Lookup(const Value& key, std::vector<RowId>* out) const;

  /// Unique lookup; NotFound when absent.
  Result<RowId> LookupUnique(const Value& key) const;

  bool Contains(const Value& key) const;

  const std::string& name() const { return name_; }
  bool unique() const { return unique_; }
  uint64_t entry_count() const;
  uint64_t ApproximateSizeBytes() const;

 private:
  std::string name_;
  bool unique_;
  mutable obs::TimedSharedMutex mu_{"storage.lock_wait_us"};
  std::unordered_map<Value, std::vector<RowId>, ValueHash> map_;
  uint64_t entries_ = 0;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_STORAGE_HASH_INDEX_H_
