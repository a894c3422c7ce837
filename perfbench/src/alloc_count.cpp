// Heap-allocation counting for the benchmark binary.
//
// The same replacement of the global operator new/delete as
// src/common/alloc_counter.hpp, plus a per-thread count: the node pump
// runs sink drains on pool workers, so allocations are attributed to the
// layer that made them by taking thread-local deltas around its calls,
// and the benchmark's own allocations are excluded the same way.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<std::uint64_t> gAllocs{0};
thread_local std::uint64_t tAllocs = 0;

void* countedAlloc(std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  ++tAllocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

}  // namespace

namespace perfbench {

std::uint64_t allocsTotal() { return gAllocs.load(std::memory_order_relaxed); }
std::uint64_t allocsThisThread() { return tAllocs; }

}  // namespace perfbench

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
