// Discrete-event scheduler: the heart of the simulator.
//
// A virtual clock over the shared TimerQueue (common/timer_queue.h):
// events are closures ordered by (virtual time, insertion sequence),
// which makes every run fully deterministic. The scheduler adds only the
// clock — events scheduled in the past run at now(), and running an
// event advances now() to its time — plus the count of events executed.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/small_fn.h"
#include "common/timer_queue.h"
#include "common/types.h"

namespace pig::sim {

/// Identifier of a scheduled event (never 0): (sequence << 22) | slot.
using EventId = TimerQueue::Key;

class Scheduler {
 public:
  /// Current virtual time. Starts at 0.
  TimeNs now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (clamped to now()).
  /// The closure is constructed directly into its slab slot.
  template <typename F>
  EventId ScheduleAt(TimeNs when, F&& fn) {
    return queue_.Add(when < now_ ? now_ : when, std::forward<F>(fn));
  }

  /// Schedules `fn` to run `delay` from now.
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& fn) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Cancels a pending event; no-op if already fired or unknown. O(1).
  void Cancel(EventId id) { queue_.Cancel(id); }

  /// Runs the next pending event. Returns false when none remain.
  bool Step() { return RunNext(std::numeric_limits<TimeNs>::max()); }

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  /// Returns the number of events executed.
  uint64_t RunUntil(TimeNs t) {
    uint64_t ran = 0;
    while (RunNext(t)) ran++;
    if (now_ < t) now_ = t;
    return ran;
  }

  /// Runs for `d` of virtual time from now.
  uint64_t RunFor(TimeNs d) { return RunUntil(now_ + d); }

  /// Drains every pending event (use with care; timers may self-renew).
  uint64_t RunAll() {
    uint64_t ran = 0;
    while (Step()) ran++;
    return ran;
  }

  bool empty() const { return queue_.empty(); }
  size_t pending() const { return queue_.size(); }
  uint64_t executed_count() const { return executed_; }

  /// Heap entries including not-yet-reclaimed canceled ones (compaction
  /// keeps this below ~2x pending; exposed for tests).
  size_t heap_size() const { return queue_.heap_size(); }

 private:
  /// Pops and runs the earliest live event due by `limit`, advancing the
  /// clock to its time; false if none is due.
  bool RunNext(TimeNs limit) {
    TimeNs when = 0;
    EventFn fn;
    if (!queue_.PopDue(limit, &when, &fn)) return false;
    assert(when >= now_);
    now_ = when;
    executed_++;
    fn();
    return true;
  }

  TimeNs now_ = 0;
  uint64_t executed_ = 0;
  TimerQueue queue_;
};

}  // namespace pig::sim
