#include "graph/shortest_path.h"

#include <algorithm>
#include <bit>

namespace graphbench {
namespace bfs_internal {
namespace {

constexpr size_t kMinSlots = 64;

// What a thread keeps between searches: 1 MiB of slots and 512 KiB per
// level vector. A larger search allocates its own and frees it on return,
// so one huge call does not pin its memory for the thread's lifetime.
constexpr size_t kMaxKeptSlots = size_t{1} << 16;
constexpr size_t kMaxKeptIds = size_t{1} << 16;

void TrimIds(std::vector<uint64_t>* ids) {
  if (ids->capacity() > kMaxKeptIds) {
    std::vector<uint64_t>().swap(*ids);
  } else {
    ids->clear();
  }
}

}  // namespace

void VisitedTable::Clear() {
  size_ = 0;
  if (++generation_ != 0) return;
  // The stamps wrapped: no old stamp may read as live.
  for (Slot& s : slots_) s.stamp = 0;
  generation_ = 1;
}

void VisitedTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity = std::max(kMinSlots, 2 * old.size());
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.stamp != generation_) continue;
    size_t i = Home(s.key);
    while (slots_[i].stamp == generation_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void VisitedTable::Trim(size_t max_slots) {
  if (slots_.size() <= max_slots) return;
  std::vector<Slot>().swap(slots_);
  size_ = 0;
  shift_ = 64;
}

ScratchLease::ScratchLease() {
  thread_local Scratch thread_scratch;
  if (thread_scratch.in_use) {
    local_ = std::make_unique<Scratch>();
    scratch_ = local_.get();
    return;
  }
  scratch_ = &thread_scratch;
  scratch_->in_use = true;
  scratch_->visited.Clear();
}

ScratchLease::~ScratchLease() {
  if (local_ != nullptr) return;
  scratch_->visited.Trim(kMaxKeptSlots);
  TrimIds(&scratch_->frontier);
  TrimIds(&scratch_->other);
  TrimIds(&scratch_->next);
  scratch_->in_use = false;
}

}  // namespace bfs_internal
}  // namespace graphbench
