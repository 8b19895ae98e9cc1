// The timer queue of every driver: closures ordered by (deadline,
// insertion sequence). It has no clock — callers add entries at absolute
// times and pop the earliest one due by a time of their choosing —
// so sim::Scheduler runs it on virtual time and runtime::EventLoop on the
// wall clock.
//
// Storage is a slab with a free list: each pending entry lives in a
// recycled slot and its closure sits inline in the slot (SmallFn) instead
// of behind a std::function heap allocation. An entry's identity is its
// 64-bit key — insertion sequence in the high bits, slot index in the low
// bits — so the key is at once the deterministic tie-break, the O(1)
// cancellation handle, and the generation check that detects stale heap
// entries (a slot's key changes whenever it is reused; sequences never
// repeat, and start at 1 so a key is never 0). The binary heap holds
// 16-byte (time, key) pairs; canceled entries are skipped lazily on pop
// and compacted in bulk once they outnumber the live ones.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/small_fn.h"
#include "common/types.h"

namespace pig {

class TimerQueue {
 public:
  /// Identifier of a queued entry (never 0): (sequence << 22) | slot.
  using Key = uint64_t;

  /// Queues `fn` at absolute time `when` (>= 0); the closure is
  /// constructed directly into its slab slot.
  template <typename F>
  Key Add(TimeNs when, F&& fn) {
    const uint32_t index = AllocSlot();
    Slot& slot = slots_[index];
    slot.fn.emplace(std::forward<F>(fn));
    const Key key = (next_seq_++ << kSlotBits) | index;
    slot.key = key;
    heap_.push_back(HeapItem{when, key});
    std::push_heap(heap_.begin(), heap_.end(), LaterOnHeap{});
    live_++;
    return key;
  }

  /// Drops a queued entry; no-op if it already ran, was canceled, or is
  /// unknown. O(1): frees the slot and leaves the heap entry to be
  /// skipped lazily.
  void Cancel(Key key) {
    const uint32_t index = static_cast<uint32_t>(key & kSlotMask);
    if (index >= slots_.size() || slots_[index].key != key) return;
    FreeSlot(index);
    live_--;
    heap_dead_++;
    if (heap_.size() >= kCompactMinHeap && heap_dead_ * 2 > heap_.size()) {
      Compact();
    }
  }

  /// Earliest live deadline, or -1 when nothing is queued.
  TimeNs NextDeadline() {
    return DropDeadTop() ? heap_.front().time : -1;
  }

  /// If the earliest live entry is due by `limit`, removes it, moves its
  /// closure into `*fn` and its deadline into `*when`, and returns true.
  /// Entries with equal deadlines pop in the order they were added.
  bool PopDue(TimeNs limit, TimeNs* when, EventFn* fn) {
    if (!DropDeadTop() || heap_.front().time > limit) return false;
    const HeapItem item = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), LaterOnHeap{});
    heap_.pop_back();
    const uint32_t index = static_cast<uint32_t>(item.key & kSlotMask);
    *when = item.time;
    *fn = std::move(slots_[index].fn);
    FreeSlot(index);
    live_--;
    return true;
  }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  /// Heap entries including not-yet-reclaimed canceled ones (compaction
  /// keeps this below ~2x size(); exposed for tests).
  size_t heap_size() const { return heap_.size(); }

 private:
  /// Slot index width. Bounds concurrently queued entries to 4M; the
  /// remaining 42 bits of sequence last ~5e12 entries.
  static constexpr uint32_t kSlotBits = 22;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kNilIndex = 0xffffffffu;
  /// Compaction is pointless below this heap size.
  static constexpr size_t kCompactMinHeap = 64;

  struct Slot {
    EventFn fn;
    Key key = 0;  // current occupant's key; 0 = slot is free
    uint32_t next_free = kNilIndex;
  };

  struct HeapItem {
    TimeNs time;
    Key key;  // high bits = insertion seq: deterministic tie-break
  };

  /// Min-heap comparator for std::*_heap (which build max-heaps).
  struct LaterOnHeap {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };

  bool IsLive(const HeapItem& item) const {
    return slots_[item.key & kSlotMask].key == item.key;
  }

  /// Pops canceled entries off the top; false when the heap runs empty.
  bool DropDeadTop() {
    if (heap_.empty()) return false;
    return IsLive(heap_.front()) || PopDeadTop();
  }

  uint32_t AllocSlot() {
    if (free_head_ != kNilIndex) {
      const uint32_t index = free_head_;
      free_head_ = slots_[index].next_free;
      return index;
    }
    const uint32_t index = static_cast<uint32_t>(slots_.size());
    // Past kSlotMask the index would bleed into the key's sequence bits
    // and silently corrupt cancellation, so the bound must hold in
    // Release too. Checked only on slab growth — off the steady path.
    if (index > kSlotMask) DieFull();
    slots_.emplace_back();
    return index;
  }

  /// Frees a slot back to the free list, invalidating its key.
  void FreeSlot(uint32_t index) {
    Slot& slot = slots_[index];
    slot.fn.reset();
    slot.key = 0;  // invalidates the key and any heap entries
    slot.next_free = free_head_;
    free_head_ = index;
  }

  // Cold paths, out of line so the inlined hot path stays small.
  [[noreturn]] static void DieFull();
  /// Sweeps every dead heap entry and re-heapifies.
  void Compact();
  /// DropDeadTop's slow path: the top is dead.
  bool PopDeadTop();

  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  size_t heap_dead_ = 0;  // canceled entries still sitting in heap_
  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilIndex;
};

}  // namespace pig
