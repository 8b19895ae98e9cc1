#include "runtime/sync_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "consensus/client_messages.h"

namespace pig::runtime {

void SyncClient::OnMessage(NodeId from, const MessagePtr& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  const ClientReply* reply = nullptr;
  const client::ReplyKind kind = session_.OnReply(from, *msg, &reply);
  if (kind == client::ReplyKind::kDone) {
    reply_code_ = reply->code;
    reply_value_ = reply->value;
  } else if (kind != client::ReplyKind::kRedirect) {
    return;
  }
  wake_ = kind;
  cv_.notify_all();
}

Result<std::string> SyncClient::Execute(OpType op, const std::string& key,
                                        const std::string& value,
                                        TimeNs timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
  std::unique_lock<std::mutex> lock(mu_);
  session_.Begin(
      Command{op, key, value, env_->self(), session_.next_seq(), {}});
  wake_ = client::ReplyKind::kIgnored;

  for (;;) {
    const NodeId target = session_.Target(env_->rng());
    MessagePtr request = session_.Request();
    lock.unlock();
    env_->Send(target, std::move(request));
    lock.lock();
    // Per-attempt wait; overall bounded by the deadline.
    const auto attempt_end =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(kAttemptTimeout);
    if (!cv_.wait_until(lock, std::min(deadline, attempt_end), [this]() {
          return wake_ != client::ReplyKind::kIgnored;
        })) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Timeout("no reply for " + key);
      }
      session_.NoteSilence();
      continue;
    }
    if (wake_ == client::ReplyKind::kRedirect) {
      wake_ = client::ReplyKind::kIgnored;
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      lock.lock();
      continue;
    }
    if (reply_code_ != StatusCode::kOk) {
      return Status::Internal(std::string(StatusCodeName(reply_code_)));
    }
    return reply_value_;
  }
}

}  // namespace pig::runtime
