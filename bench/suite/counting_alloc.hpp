// Heap accounting for the benchmark binary.
//
// counting_alloc.cpp replaces the global operator new/delete family of the
// bench_suite executable (engine code included, since it links into the
// same binary) with versions that track live and peak heap bytes through
// malloc_usable_size().  The counters are relaxed atomics: shard threads
// allocate concurrently with the router, and the benchmark only reads them
// at pass boundaries.
#pragma once

#include <cstddef>

namespace bench_suite {

/// Heap bytes currently allocated through operator new.
std::size_t heap_live_bytes();

/// Highest heap_live_bytes() since the last heap_reset_peak().
std::size_t heap_peak_bytes();

/// Restarts peak tracking from the current live byte count (pass start).
void heap_reset_peak();

}  // namespace bench_suite
