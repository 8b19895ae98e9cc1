#include "client/closed_loop_client.h"

#include <cassert>
#include <utility>

#include "shard/router.h"

namespace pig::client {

void Recorder::RecordCompletion(TimeNs issued_at, TimeNs completed_at,
                                uint32_t group) {
  const size_t second = static_cast<size_t>(completed_at / kSecond);
  if (timeline_.size() <= second) timeline_.resize(second + 1, 0);
  timeline_[second]++;
  if (completed_at < window_start_ || completed_at >= window_end_) return;
  completed_++;
  if (per_group_completed_.size() <= group) {
    per_group_completed_.resize(group + 1, 0);
  }
  per_group_completed_[group]++;
  latency_.Record(completed_at - issued_at);
}

double Recorder::Throughput() const {
  const TimeNs span = window_end_ - window_start_;
  if (span <= 0) return 0.0;
  return static_cast<double>(completed_) / ToSeconds(span);
}

// ---------------------------------------------------------------------------

ClosedLoopClient::ClosedLoopClient(ClientConfig config,
                                   std::shared_ptr<Recorder> recorder)
    : config_(config),
      recorder_(std::move(recorder)),
      workload_(config.workload),
      session_(config.num_replicas, config.num_groups,
               config.target_policy) {
  assert(recorder_ != nullptr);
}

void ClosedLoopClient::OnStart() {
  const auto jitter = static_cast<TimeNs>(
      env_->rng().NextBounded(static_cast<uint64_t>(kStartJitter)));
  env_->SetTimer(jitter, [this]() { IssueNext(); });
}

void ClosedLoopClient::IssueNext() {
  const uint64_t seq = session_.next_seq();
  Command cmd = workload_.Next(env_->self(), seq, env_->rng());
  if (session_.num_groups() > 1 && config_.affine_group >= 0) {
    // Redraw until the key lands in this client's group: expected
    // num_groups draws, deterministic given the rng stream. Bounded in
    // case a tiny keyspace misses the group entirely.
    const auto want = static_cast<uint32_t>(config_.affine_group);
    for (int tries = 0;
         tries < 1000 &&
         shard::GroupOfCommand(cmd, session_.num_groups()) != want;
         ++tries) {
      cmd = workload_.Next(env_->self(), seq, env_->rng());
    }
  }
  session_.Begin(std::move(cmd));
  SendCurrent();
}

void ClosedLoopClient::SendCurrent() {
  issued_at_ = env_->Now();
  env_->Send(session_.Target(env_->rng()), session_.Request());
  CancelTimer(timeout_timer_);
  timeout_timer_ = env_->SetTimer(config_.request_timeout,
                                  [this]() { OnRequestTimeout(); });
}

void ClosedLoopClient::OnRequestTimeout() {
  timeout_timer_ = kInvalidTimer;
  recorder_->RecordTimeout();
  // The leader may have changed or the request was lost: probe another
  // replica with the same command (dedup at replicas makes this safe).
  session_.NoteSilence();
  SendCurrent();
}

void ClosedLoopClient::CancelTimer(TimerId& timer) {
  if (timer == kInvalidTimer) return;
  env_->CancelTimer(timer);
  timer = kInvalidTimer;
}

void ClosedLoopClient::OnMessage(NodeId from, const MessagePtr& msg) {
  const ClientReply* reply = nullptr;
  switch (session_.OnReply(from, *msg, &reply)) {
    case ReplyKind::kIgnored:
      return;
    case ReplyKind::kStale:
      // Only successes count as stale *replies* — a late NotLeader
      // bounce for a superseded request involved no execution at all.
      if (reply->code == StatusCode::kOk) recorder_->RecordStaleReply();
      return;
    case ReplyKind::kRedirect:
      recorder_->RecordRedirect();
      CancelTimer(timeout_timer_);
      if (backoff_timer_ == kInvalidTimer) {
        backoff_timer_ = env_->SetTimer(kRedirectBackoff, [this]() {
          backoff_timer_ = kInvalidTimer;
          SendCurrent();
        });
      }
      return;
    case ReplyKind::kDone:
      break;
  }
  CancelTimer(timeout_timer_);
  // The request may complete while a redirect backoff is pending (the
  // old leader executed a batched slot after bouncing our resend).
  CancelTimer(backoff_timer_);
  recorder_->RecordCompletion(issued_at_, env_->Now(), session_.group());
  IssueNext();
}

}  // namespace pig::client
