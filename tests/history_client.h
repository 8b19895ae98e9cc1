// History-recording closed-loop client shared by the live
// linearizability tests and the conformance harness: a thin simulator
// driver over client::ClientSession that keeps only its timers and the
// recorded history. Writes carry globally unique values ("c<index>#<seq>")
// so the linearizability checker can match reads to writes; timeouts
// resend the same command (replica dedup makes that safe) and redirects
// retry after a 1 ms backoff.
#pragma once

#include <string>
#include <vector>

#include "client/session.h"
#include "consensus/env.h"
#include "linearizability.h"

namespace pig::test {

class HistoryClient : public Actor {
 public:
  static constexpr TimeNs kRequestTimeout = 250 * kMillisecond;

  /// Where requests go.
  enum class Targeting {
    /// Follow the (per-group) leader: Paxos and PigPaxos.
    kLeader,
    /// EPaxos under faults: client i starts at replica i % N and moves on
    /// only when that replica goes silent. Random per-send targets make
    /// EPaxos stores diverge under one-way partitions, because EPaxos has
    /// no explicit-prepare recovery.
    kFixedSpread,
    /// EPaxos without faults: a random replica per send, so consecutive
    /// operations of one client start at different command leaders.
    kRandomPerSend,
  };

  struct Config {
    size_t num_replicas = 0;
    size_t num_keys = 8;
    double read_ratio = 0.5;
    uint32_t index = 0;
    uint32_t num_groups = 1;
    Targeting targeting = Targeting::kLeader;
  };

  explicit HistoryClient(Config cfg)
      : cfg_(cfg),
        session_(cfg.num_replicas, cfg.num_groups,
                 cfg.targeting == Targeting::kRandomPerSend
                     ? client::TargetPolicy::kRandomReplica
                     : client::TargetPolicy::kFixedLeader) {}

  void OnStart() override {
    if (cfg_.targeting == Targeting::kFixedSpread) {
      session_.Retarget(static_cast<NodeId>(cfg_.index % cfg_.num_replicas));
    }
    env_->SetTimer(
        static_cast<TimeNs>(env_->rng().NextBounded(5 * kMillisecond)),
        [this]() { IssueNext(); });
  }

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    const ClientReply* reply = nullptr;
    const client::ReplyKind kind = session_.OnReply(from, *msg, &reply);
    if (kind == client::ReplyKind::kRedirect && !backoff_pending_) {
      backoff_pending_ = true;
      env_->SetTimer(kMillisecond, [this, s = session_.seq()]() {
        backoff_pending_ = false;
        if (s == session_.seq()) SendCurrent();
      });
    }
    if (kind != client::ReplyKind::kDone) return;
    env_->CancelTimer(timeout_timer_);
    // Replicas answer only Ok or NotLeader; any other final code would be
    // an unknown outcome, which a history cannot represent.
    if (reply->ok()) {
      const Command& cmd = session_.current();
      const bool is_read = cmd.op == OpType::kGet;
      history.push_back(HistoryOp{env_->self(), is_read, cmd.key,
                                  is_read ? reply->value : cmd.value,
                                  invoked_at_, env_->Now()});
      if (!is_read) acked_write_seqs.push_back(cmd.seq);
    }
    IssueNext();
  }

  /// Stops issuing (and re-sending): called before the final drain so
  /// replicas can converge with no in-flight tail at check time.
  void Stop() { stopped_ = true; }

  std::vector<HistoryOp> history;
  std::vector<uint64_t> acked_write_seqs;

 private:
  void IssueNext() {
    if (stopped_) return;
    const uint64_t seq = session_.next_seq();
    const std::string key =
        "k" + std::to_string(env_->rng().NextBounded(cfg_.num_keys));
    if (env_->rng().NextDouble() < cfg_.read_ratio) {
      session_.Begin(Command::Get(key, env_->self(), seq));
    } else {
      session_.Begin(Command::Put(
          key, "c" + std::to_string(cfg_.index) + "#" + std::to_string(seq),
          env_->self(), seq));
    }
    invoked_at_ = env_->Now();
    SendCurrent();
  }

  void SendCurrent() {
    if (stopped_) return;
    env_->Send(session_.Target(env_->rng()), session_.Request());
    env_->CancelTimer(timeout_timer_);
    timeout_timer_ = env_->SetTimer(kRequestTimeout, [this]() {
      session_.NoteSilence();
      SendCurrent();
    });
  }

  Config cfg_;
  client::ClientSession session_;
  TimeNs invoked_at_ = 0;
  TimerId timeout_timer_ = kInvalidTimer;
  bool backoff_pending_ = false;
  bool stopped_ = false;
};

}  // namespace pig::test
