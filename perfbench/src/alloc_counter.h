// Process-wide heap allocation counter.
//
// alloc_counter.cc replaces the global operator new for the whole
// benchmark binary (library code included), so the count covers every
// allocation the program makes without touching src/. Increments go to
// per-thread cache-line slots, which keeps the hook cheap on the
// multi-threaded TCP workloads.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new so far, summed over all threads.
/// Exact once the counting threads are quiescent (joined or idle).
uint64_t AllocCount();

}  // namespace perfbench
