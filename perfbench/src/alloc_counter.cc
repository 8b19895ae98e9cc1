#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr unsigned kSlots = 64;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};

inline void CountOne() {
  // Constant-initialised thread_local: no allocation on first touch, so it
  // is safe inside operator new itself.
  static thread_local unsigned slot = kSlots;
  if (slot == kSlots) {
    slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

uint64_t AllocCount() {
  uint64_t total = 0;
  for (const Slot& s : g_slots) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  perfbench::CountOne();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::CountOne();
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
