// Counts every heap allocation made through operator new in the test
// binary that includes this header, so an executor's allocations per query
// can be gated exactly. It replaces the global operator new and delete:
// include it from exactly one source file of a binary.

#ifndef GRAPHBENCH_TESTS_ALLOCATION_COUNTER_H_
#define GRAPHBENCH_TESTS_ALLOCATION_COUNTER_H_

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

static std::atomic<long> g_allocations{0};

// New and delete are kept out of line: once either is inlined, GCC sees
// a pointer from malloc() reach operator delete, or free() called on one
// from operator new, and warns (-Wmismatched-new-delete), though both
// sides here are malloc and free.
[[gnu::noinline]] void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}

namespace graphbench {

/// Heap allocations `fn` makes.
inline long AllocationsOf(const std::function<void()>& fn) {
  long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Allocations a 4x larger input may add beyond one per extra output row:
/// buffers that grow by doubling add a few; an executor that allocates
/// per binding or per group adds hundreds.
constexpr long kAllocationGrowthBound = 24;

}  // namespace graphbench

#endif  // GRAPHBENCH_TESTS_ALLOCATION_COUNTER_H_
