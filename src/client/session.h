// The client core: one outstanding request and everything needed to get
// it answered — the seq, the current command and its consensus group,
// the ShardEnvelope dialect of sharded deployments, reply classification
// and target choice. Leader-following clients target through
// shard::ShardRouter (one group when unsharded), which suspects silent
// replicas and distrusts stale NotLeader hints pointing back at them;
// EPaxos clients draw a random replica per send (paper §5.4).
//
// The session owns no clock and no threads. Drivers (ClosedLoopClient,
// runtime::SyncClient, the test HistoryClient) keep their own timers,
// locking and recording, and report silence and replies back here.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "consensus/client_messages.h"
#include "shard/router.h"

namespace pig::client {

/// Where a client sends its requests.
enum class TargetPolicy {
  kFixedLeader,    ///< Paxos/PigPaxos: follow the (per-group) leader.
  kRandomReplica,  ///< EPaxos: a random replica per send.
};

/// What an incoming message means for the current request.
enum class ReplyKind {
  kIgnored,   ///< Not a client reply in this session's dialect.
  kStale,     ///< Reply to a superseded or already answered request.
  kRedirect,  ///< NotLeader for the current request; target updated.
  kDone,      ///< Final answer for the current request (any other code).
};

class ClientSession {
 public:
  /// `num_groups` > 1 routes commands by key and wraps them in
  /// ShardEnvelopes; it implies kFixedLeader.
  ClientSession(size_t num_replicas, uint32_t num_groups = 1,
                TargetPolicy policy = TargetPolicy::kFixedLeader);

  /// The seq the next command must carry.
  uint64_t next_seq() const { return seq_ + 1; }
  /// Makes `cmd` (built with next_seq()) the outstanding request.
  void Begin(Command cmd);

  const Command& current() const { return current_; }
  uint64_t seq() const { return seq_; }
  uint32_t group() const { return group_; }
  uint32_t num_groups() const { return router_.num_groups(); }

  /// Where to send the current request; draws from `rng` only under
  /// kRandomReplica.
  NodeId Target(Rng& rng) const;
  /// The current request as it goes on the wire.
  MessagePtr Request() const;

  /// The target never answered: suspect it and probe the next replica.
  void NoteSilence() { router_.NoteSilence(group_); }
  /// Points the current group's target at `node`.
  void Retarget(NodeId node) { router_.SetTarget(group_, node); }

  /// Classifies `msg` from `from`; unless kIgnored, `*reply` points at
  /// the unwrapped ClientReply inside `msg`. kDone retires the request,
  /// so later copies of its answer are kStale.
  ReplyKind OnReply(NodeId from, const Message& msg,
                    const ClientReply** reply);

 private:
  size_t num_replicas_;
  TargetPolicy policy_;
  shard::ShardRouter router_;
  uint64_t seq_ = 0;
  bool answered_ = true;
  Command current_;
  uint32_t group_ = 0;
};

}  // namespace pig::client
