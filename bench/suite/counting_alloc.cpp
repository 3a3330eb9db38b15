#include "counting_alloc.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace bench_suite {
namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void note_alloc(void* p) {
  const std::size_t bytes = malloc_usable_size(p);
  const std::size_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  note_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

std::size_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::size_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

void heap_reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace bench_suite

using bench_suite::counted_aligned_alloc;
using bench_suite::counted_alloc;
using bench_suite::counted_free;

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
