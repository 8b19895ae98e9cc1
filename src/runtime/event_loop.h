// Transport-agnostic single-actor event loop.
//
// EventLoop owns one actor's per-node state: the self-send mailbox of
// encoded frames and its recycled wire-buffer pool, the timer table, the
// per-actor Env and rng, the burst counter behind Env::burst, and the
// decode->OnMessage dispatch step. The timer table is the simulator's
// TimerQueue (common/timer_queue.h) under the loop mutex: ids are queue
// keys, due timers fire earliest deadline first (ties in arm order), and
// actor timers share it with TcpCluster's reconnect retries.
//
// The loop neither blocks nor owns a thread; its driver does. TcpCluster
// decodes straight off its sockets on the loop thread (DispatchWire),
// queues self-sends through the mailbox (Deliver), and interleaves
// FireDueTimers/DispatchQueuedMail with epoll_wait, using
// NextTimerDeadline for its poll timeout.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer_queue.h"
#include "consensus/env.h"
#include "runtime/transport.h"

namespace pig::runtime {

using pig::Actor;
using pig::TimerId;

/// Monotonic wall clock shared by every loop in a cluster, so TimeNs 0 is
/// cluster start for all of them (mirrors the simulator's virtual epoch).
class WallClock {
 public:
  WallClock();

  /// Re-anchors TimeNs 0 at the present; clusters call this in Start().
  void Reset();

  TimeNs Now() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
};

class EventLoop {
 public:
  /// The loop owns `actor` and binds it to an internal Env whose Send
  /// forwards to `transport`. `clock` and `transport` are borrowed and
  /// must outlive the loop.
  EventLoop(NodeId id, std::unique_ptr<Actor> actor, Transport* transport,
            const WallClock* clock, uint64_t seed);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  NodeId id() const { return id_; }
  Actor* actor() { return actor_.get(); }
  TimeNs Now() const;

  // --- enqueue edges (callable from any thread) ----------------------------

  /// Queues an encoded message for dispatch on the loop thread; the
  /// driver drains it with DispatchQueuedMail.
  void Deliver(NodeId from, std::vector<uint8_t> wire);

  /// Pulls a drained buffer from this loop's recycle pool (empty vector if
  /// none): senders encode into it, then hand it back via Deliver, so the
  /// steady-state encode->decode round trip reuses capacity.
  std::vector<uint8_t> AcquireWireBuffer();

  /// Arms `cb` to run on the loop thread once the clock reaches `when`;
  /// the returned id is never kInvalidTimer. Env::SetTimer lands here.
  template <typename F>
  TimerId SetTimerAt(TimeNs when, F&& cb) {
    std::lock_guard<std::mutex> lock(mu_);
    return timers_.Add(when, std::forward<F>(cb));
  }

  /// Disarms a pending timer; no-op once it has fired.
  void CancelTimer(TimerId id);

  // --- loop-thread driving -------------------------------------------------

  /// Calls Actor::OnStart. Must be the loop thread's first act.
  void StartActor();

  /// Fires every timer due by the present, earliest deadline first.
  /// Returns true if any fired (callbacks may enqueue more work, so
  /// callers re-check).
  bool FireDueTimers();

  /// Decodes and dispatches one queued mailbox entry; returns false when
  /// the mailbox is empty.
  bool DispatchQueuedMail();

  /// Decodes `size` bytes at `data` and dispatches immediately, bypassing
  /// the mailbox (socket transports already hold the bytes in a
  /// connection buffer; copying them into Mail would be waste).
  void DispatchWire(NodeId from, const uint8_t* data, size_t size);

  /// Closes the current burst (Env::burst): the next one starts with a
  /// new number. The driver calls it once per wake-up, after its output
  /// flush. Loop thread only.
  void EndBurst() { ++burst_; }

  /// Earliest pending timer deadline, or -1 when no timer is armed.
  TimeNs NextTimerDeadline();

 private:
  class LoopEnv;
  struct Mail {
    NodeId from;
    std::vector<uint8_t> wire;
  };
  static constexpr size_t kMaxPooledWireBuffers = 64;

  const NodeId id_;
  std::unique_ptr<Actor> actor_;
  Transport* transport_;
  const WallClock* clock_;
  std::unique_ptr<LoopEnv> env_;
  uint64_t burst_ = 1;  // loop thread only; never 0 (Env::burst)

  std::mutex mu_;
  std::deque<Mail> mailbox_;
  std::vector<std::vector<uint8_t>> wire_pool_;
  TimerQueue timers_;
};

}  // namespace pig::runtime
