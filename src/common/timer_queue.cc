#include "common/timer_queue.h"

#include <cstdio>
#include <cstdlib>

namespace pig {

void TimerQueue::DieFull() {
  std::fprintf(stderr,
               "TimerQueue: more than %u concurrently queued entries; "
               "the slot index would corrupt keys\n",
               kSlotMask);
  std::abort();
}

void TimerQueue::Compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapItem& item) {
                               return !IsLive(item);
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), LaterOnHeap{});
  heap_dead_ = 0;
}

bool TimerQueue::PopDeadTop() {
  while (!heap_.empty()) {
    if (IsLive(heap_.front())) return true;
    std::pop_heap(heap_.begin(), heap_.end(), LaterOnHeap{});
    heap_.pop_back();
    heap_dead_--;
  }
  return false;
}

}  // namespace pig
