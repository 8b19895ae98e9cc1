#include "runtime/event_loop.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace pig::runtime {

using std::chrono::steady_clock;

WallClock::WallClock() : epoch_(steady_clock::now()) {}

void WallClock::Reset() { epoch_ = steady_clock::now(); }

TimeNs WallClock::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady_clock::now() - epoch_)
      .count();
}

/// Env implementation backing one EventLoop: Send goes through the
/// pluggable Transport; timers live in the loop's queue.
class EventLoop::LoopEnv final : public Env {
 public:
  LoopEnv(EventLoop* loop, Rng rng) : loop_(loop), rng_(rng) {}

  NodeId self() const override { return loop_->id_; }
  TimeNs Now() const override { return loop_->Now(); }

  void Send(NodeId to, MessagePtr msg) override {
    loop_->transport_->Send(loop_->id_, to, std::move(msg));
  }

  TimerId SetTimer(TimeNs delay, std::function<void()> cb) override {
    return loop_->SetTimerAt(Now() + std::max<TimeNs>(delay, 0),
                             std::move(cb));
  }

  void CancelTimer(TimerId id) override { loop_->CancelTimer(id); }

  Rng& rng() override { return rng_; }

  uint64_t burst() const override { return loop_->burst_; }

 private:
  EventLoop* loop_;
  Rng rng_;
};

EventLoop::EventLoop(NodeId id, std::unique_ptr<Actor> actor,
                     Transport* transport, const WallClock* clock,
                     uint64_t seed)
    : id_(id),
      actor_(std::move(actor)),
      transport_(transport),
      clock_(clock) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (id + 1)));
  env_ = std::make_unique<LoopEnv>(this, rng);
  actor_->Bind(env_.get());
}

EventLoop::~EventLoop() = default;

TimeNs EventLoop::Now() const { return clock_->Now(); }

void EventLoop::Deliver(NodeId from, std::vector<uint8_t> wire) {
  std::lock_guard<std::mutex> lock(mu_);
  mailbox_.push_back(Mail{from, std::move(wire)});
}

std::vector<uint8_t> EventLoop::AcquireWireBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wire_pool_.empty()) return {};
  std::vector<uint8_t> buf = std::move(wire_pool_.back());
  wire_pool_.pop_back();
  return buf;
}

void EventLoop::CancelTimer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  timers_.Cancel(id);
}

void EventLoop::StartActor() { actor_->OnStart(); }

bool EventLoop::FireDueTimers() {
  bool fired = false;
  std::unique_lock<std::mutex> lock(mu_);
  const TimeNs now = Now();
  TimeNs when = 0;
  EventFn cb;
  // Callbacks run unlocked and may arm or cancel timers; each pop sees
  // the queue as they left it.
  while (timers_.PopDue(now, &when, &cb)) {
    lock.unlock();
    cb();
    cb.reset();
    lock.lock();
    fired = true;
  }
  return fired;
}

bool EventLoop::DispatchQueuedMail() {
  Mail mail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (mailbox_.empty()) return false;
    mail = std::move(mailbox_.front());
    mailbox_.pop_front();
  }
  DispatchWire(mail.from, mail.wire.data(), mail.wire.size());
  // Hand the drained buffer back to future senders.
  std::lock_guard<std::mutex> lock(mu_);
  if (wire_pool_.size() < kMaxPooledWireBuffers) {
    wire_pool_.push_back(std::move(mail.wire));
  }
  return true;
}

void EventLoop::DispatchWire(NodeId from, const uint8_t* data,
                             size_t size) {
  MessagePtr msg;
  Status s = DecodeMessage(data, size, &msg);
  if (s.ok()) {
    actor_->OnMessage(from, msg);
  } else {
    PIG_LOG(kError) << "node " << id_ << ": decode failed: " << s.ToString();
  }
}

TimeNs EventLoop::NextTimerDeadline() {
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.NextDeadline();
}

}  // namespace pig::runtime
