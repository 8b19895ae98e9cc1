#include "client/session.h"

#include <cassert>
#include <memory>
#include <utility>

#include "shard/messages.h"

namespace pig::client {

ClientSession::ClientSession(size_t num_replicas, uint32_t num_groups,
                             TargetPolicy policy)
    : num_replicas_(num_replicas > 0 ? num_replicas : 1),
      policy_(policy),
      router_(num_groups > 0 ? num_groups : 1, num_replicas_) {
  // The router owns per-group leader targeting; a random-replica policy
  // would fight it.
  assert(router_.num_groups() == 1 ||
         policy_ == TargetPolicy::kFixedLeader);
}

void ClientSession::Begin(Command cmd) {
  assert(cmd.seq == next_seq());
  seq_ = cmd.seq;
  answered_ = false;
  group_ = shard::GroupOfCommand(cmd, router_.num_groups());
  current_ = std::move(cmd);
}

NodeId ClientSession::Target(Rng& rng) const {
  if (policy_ == TargetPolicy::kRandomReplica) {
    return static_cast<NodeId>(rng.NextBounded(num_replicas_));
  }
  return router_.Target(group_);
}

MessagePtr ClientSession::Request() const {
  MessagePtr request = std::make_shared<ClientRequest>(current_);
  if (router_.num_groups() == 1) return request;
  return MessagePool::Make<shard::ShardEnvelope>(group_, std::move(request));
}

ReplyKind ClientSession::OnReply(NodeId from, const Message& msg,
                                 const ClientReply** reply) {
  const Message* payload = &msg;
  uint32_t group = 0;
  if (msg.type() == MsgType::kShardEnvelope) {
    const auto& wrapped = static_cast<const shard::ShardEnvelope&>(msg);
    if (!wrapped.inner || wrapped.group >= router_.num_groups()) {
      return ReplyKind::kIgnored;
    }
    group = wrapped.group;
    payload = wrapped.inner.get();
  } else if (router_.num_groups() > 1) {
    return ReplyKind::kIgnored;  // sharded replicas answer enveloped only
  }
  // Any answer from a suspected node clears its suspicion, even a stale
  // one: it proves the node is alive again.
  router_.NoteReply(group, from);
  if (payload->type() != MsgType::kClientReply) return ReplyKind::kIgnored;
  const auto& r = static_cast<const ClientReply&>(*payload);
  *reply = &r;
  if (r.seq != seq_ || answered_) return ReplyKind::kStale;
  if (r.code == StatusCode::kNotLeader) {
    router_.NoteRedirect(group, r.leader_hint);
    return ReplyKind::kRedirect;
  }
  answered_ = true;
  return ReplyKind::kDone;
}

}  // namespace pig::client
