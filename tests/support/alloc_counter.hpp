// Allocation-counting hook for steady-state no-allocation tests.
//
// A test binary that wants to assert "this loop never touches the heap"
// includes this header and defines ESPICE_TEST_COUNT_ALLOCATIONS in exactly
// one translation unit BEFORE including it; that emits replacement global
// operator new/delete which bump an atomic counter and forward to malloc/
// free.  AllocTally brackets a code region and reports the allocation delta:
//
//   test_support::AllocTally tally;
//   hot_loop();
//   EXPECT_EQ(tally.delta(), 0u);
//
// The counter is atomic so multi-threaded binaries stay well-defined, but
// deterministic zero-allocation assertions should measure single-threaded
// regions only (another thread's allocations would count too).  Keep gtest
// assertions OUTSIDE the measured region -- they allocate.
#pragma once

#include <atomic>
#include <cstdint>

namespace espice::test_support {

/// Allocations observed since process start (only counts once the
/// replacement operators below are linked in).
inline std::atomic<std::uint64_t>& alloc_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Snapshot-delta helper for a measured region.
class AllocTally {
 public:
  AllocTally() : start_(alloc_count().load(std::memory_order_relaxed)) {}
  std::uint64_t delta() const {
    return alloc_count().load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_;
};

}  // namespace espice::test_support

#ifdef ESPICE_TEST_COUNT_ALLOCATIONS

#include <cstdlib>
#include <new>

void* operator new(std::size_t size) {
  ::espice::test_support::alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ::espice::test_support::alloc_count().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

// GCC pairs operator new with operator delete and does not see that the
// replacement operator new above allocates with malloc, so where it inlines
// one of these into a delete site it reports the free() as a mismatched
// deallocation (-Wmismatched-new-delete).  Every pointer reaching them came
// from malloc, so the pairing is correct; the suppression covers only them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

#endif  // ESPICE_TEST_COUNT_ALLOCATIONS
