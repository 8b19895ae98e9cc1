// Closed-loop benchmark clients and the shared measurement recorder.
//
// Each client keeps exactly one request outstanding (the paper sweeps
// offered load by varying the number of clients). Completions inside the
// measurement window feed a shared Recorder that produces throughput,
// latency percentiles, and a per-second throughput timeline (Fig. 13).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/session.h"
#include "client/workload.h"
#include "common/histogram.h"
#include "consensus/env.h"

namespace pig::client {

using pig::Actor;
using pig::Histogram;
using pig::MessagePtr;
using pig::TimeNs;
using pig::TimerId;

/// Aggregates completions across all clients of one experiment run.
class Recorder {
 public:
  /// Completions outside [window_start, window_end) are ignored (warmup /
  /// cooldown exclusion).
  void SetWindow(TimeNs start, TimeNs end) {
    window_start_ = start;
    window_end_ = end;
  }

  /// `group` attributes the completion to one consensus group in sharded
  /// runs (always 0 for single-group deployments).
  void RecordCompletion(TimeNs issued_at, TimeNs completed_at,
                        uint32_t group = 0);
  void RecordRedirect() { redirects_++; }
  void RecordTimeout() { timeouts_++; }
  /// A reply for an already-completed request (duplicate delivery after a
  /// resend, or a batched execution racing a redirect). Harmless — dedup
  /// at the replicas guarantees single execution — but worth counting.
  void RecordStaleReply() { stale_replies_++; }

  uint64_t completed() const { return completed_; }
  uint64_t redirects() const { return redirects_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t stale_replies() const { return stale_replies_; }
  const Histogram& latency() const { return latency_; }

  /// Requests per second over the measurement window.
  double Throughput() const;

  /// Per-second completion counts over the whole run (including warmup),
  /// for throughput-over-time plots.
  const std::vector<uint64_t>& timeline() const { return timeline_; }

  /// In-window completions per consensus group (indexed by group id;
  /// sized by the highest group seen). Single-group runs report {total}.
  const std::vector<uint64_t>& per_group_completed() const {
    return per_group_completed_;
  }

 private:
  TimeNs window_start_ = 0;
  TimeNs window_end_ = 0;
  uint64_t completed_ = 0;
  uint64_t redirects_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t stale_replies_ = 0;
  Histogram latency_;
  std::vector<uint64_t> timeline_;
  std::vector<uint64_t> per_group_completed_;
};

struct ClientConfig {
  WorkloadConfig workload;
  TargetPolicy target_policy = TargetPolicy::kFixedLeader;
  size_t num_replicas = 0;  ///< Needed for kRandomReplica and redirects.

  /// Re-issue a request unanswered for this long (leader crash, drops).
  TimeNs request_timeout = 1 * kSecond;

  /// Consensus groups the keyspace is sharded across. 1 keeps the
  /// historical single-group behavior byte-identical (no envelopes);
  /// > 1 routes each command by key hash, wraps traffic in
  /// ShardEnvelopes, and tracks one leader guess per group. Sharding
  /// implies kFixedLeader per group.
  uint32_t num_groups = 1;

  /// Sharded runs only: when >= 0 the client redraws its workload until
  /// the command's key hashes to this group, making it a single-group
  /// load source. Isolation experiments need this — a closed-loop
  /// client with mixed keys head-of-line blocks on a crashed group's
  /// election and starves the healthy groups, which says nothing about
  /// the consensus layer. -1 (default) keeps the mixed workload.
  int affine_group = -1;
};

/// Simulator driver over ClientSession: timers for request timeouts and
/// redirect backoff, completions into the shared Recorder.
class ClosedLoopClient : public Actor {
 public:
  /// Clients stagger their first request uniformly over this interval to
  /// avoid a synchronized thundering herd at t=0.
  static constexpr TimeNs kStartJitter = 5 * kMillisecond;
  /// Backoff before retrying after a NotLeader redirect.
  static constexpr TimeNs kRedirectBackoff = 1 * kMillisecond;

  ClosedLoopClient(ClientConfig config, std::shared_ptr<Recorder> recorder);

  void OnStart() override;
  void OnMessage(NodeId from, const MessagePtr& msg) override;

 private:
  void IssueNext();
  void SendCurrent();
  void OnRequestTimeout();
  void CancelTimer(TimerId& timer);

  ClientConfig config_;
  std::shared_ptr<Recorder> recorder_;
  WorkloadGenerator workload_;
  ClientSession session_;

  TimeNs issued_at_ = 0;
  TimerId timeout_timer_ = kInvalidTimer;
  // Pending post-redirect resend. Tracked so a success reply that races
  // the backoff (a batched commit completing after the leader bounced a
  // later duplicate) cancels the now-stale resend instead of letting it
  // re-send the *next* command early.
  TimerId backoff_timer_ = kInvalidTimer;
};

}  // namespace pig::client
