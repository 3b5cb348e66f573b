#ifndef GRAPHBENCH_LANG_PLAN_CACHE_H_
#define GRAPHBENCH_LANG_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.h"

namespace graphbench {
namespace lang {

/// Default bound for engine plan caches: comfortably above the workload's
/// ~16 statement shapes, small enough that eviction is testable.
inline constexpr size_t kDefaultPlanCacheCapacity = 128;

/// Point-in-time view of one cache instance, for per-SUT reporting (the
/// obs counters aggregate across instances that share an engine label).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t size = 0;
  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

/// Counts cache traffic both per instance (atomics, read via Stats()) and
/// process-wide (obs counters "plan_cache.<engine>.hits/misses/evictions"
/// in the default registry). Non-template so the registry lookups live in
/// plan_cache.cc.
class PlanCacheCounters {
 public:
  explicit PlanCacheCounters(std::string_view engine);

  void RecordHit() {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits_counter_->Increment();
  }
  void RecordMiss() {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_counter_->Increment();
  }
  void RecordEviction() {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions_counter_->Increment();
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  obs::Counter* hits_counter_;
  obs::Counter* misses_counter_;
  obs::Counter* evictions_counter_;
};

/// Bounded, thread-safe LRU of immutable parsed plans keyed by statement
/// text. Each engine instance owns one; `engine` labels the shared obs
/// counters ("sql", "cypher", "sparql", "gremlin"). Values are
/// shared_ptr<const PlanT> so a cached plan stays alive while an executor
/// on another thread still holds it after eviction.
template <typename PlanT>
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = kDefaultPlanCacheCapacity;

  explicit PlanCache(std::string_view engine,
                     size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity), counters_(engine) {}

  /// Returns the cached plan (promoting it to most-recently-used) or null
  /// on a miss. Counts a hit or miss either way.
  std::shared_ptr<const PlanT> Lookup(std::string_view text) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(text);
    if (it == map_.end()) {
      counters_.RecordMiss();
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    counters_.RecordHit();
    return it->second.plan;
  }

  /// Inserts (or replaces) the plan for `text` as most-recently-used,
  /// evicting the least-recently-used entry when over capacity.
  void Insert(std::string_view text, std::shared_ptr<const PlanT> plan) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(text);
    if (it != map_.end()) {
      it->second.plan = std::move(plan);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return;
    }
    lru_.emplace_front(text);
    map_.emplace(std::string(text), Entry{std::move(plan), lru_.begin()});
    while (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      counters_.RecordEviction();
    }
  }

  /// True if `text` is cached, without touching LRU order or counters.
  bool Contains(std::string_view text) const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.find(text) != map_.end();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  size_t capacity() const { return capacity_; }

  PlanCacheStats Stats() const {
    PlanCacheStats s;
    s.hits = counters_.hits();
    s.misses = counters_.misses();
    s.evictions = counters_.evictions();
    s.size = size();
    return s;
  }

 private:
  struct Entry {
    std::shared_ptr<const PlanT> plan;
    std::list<std::string>::iterator lru_it;
  };

  const size_t capacity_;
  PlanCacheCounters counters_;
  mutable std::mutex mu_;
  /// Front = most recently used; back is next to evict.
  std::list<std::string> lru_;
  std::map<std::string, Entry, std::less<>> map_;
};

/// The front door every language shares: runs `run` on the plan for
/// `text`. With a cache (non-null `cache`) the plan is looked up by text;
/// a miss parses and inserts it, and a text that fails to parse is never
/// inserted. Without one, GraphBench's default, `text` is parsed on every
/// call into a plan on the stack, so the call allocates nothing beyond the
/// parse itself. `parse(text)` returns a Result<PlanT> and records the
/// language's own parse profile row.
template <typename PlanT, typename ParseFn, typename RunFn>
auto WithPlan(PlanCache<PlanT>* cache, std::string_view text,
              ParseFn&& parse, RunFn&& run)
    -> decltype(run(std::declval<const PlanT&>())) {
  if (cache != nullptr) {
    if (std::shared_ptr<const PlanT> cached = cache->Lookup(text)) {
      return run(*cached);
    }
  }
  auto parsed = parse(text);
  if (!parsed.ok()) return parsed.status();
  if (cache == nullptr) return run(*parsed);
  auto shared = std::make_shared<const PlanT>(std::move(parsed).value());
  cache->Insert(text, shared);
  return run(*shared);
}

}  // namespace lang
}  // namespace graphbench

#endif  // GRAPHBENCH_LANG_PLAN_CACHE_H_
