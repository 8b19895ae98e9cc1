// Blocking client for the wall-clock runtime (runtime/tcp_cluster.h).
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>

#include "client/session.h"
#include "common/status.h"
#include "consensus/env.h"
#include "statemachine/command.h"

namespace pig::runtime {

/// Blocking client facade over TcpCluster: submits one command and waits
/// for the reply. Register it as an actor, then call Execute from any
/// external thread.
///
/// A thin driver over client::ClientSession, which owns seq matching,
/// the sharded ShardEnvelope dialect (`num_groups` > 1), NotLeader
/// redirects and per-group leader suspicion; this class adds only the
/// mutex/condvar hand-off and the wall-clock retry pacing.
class SyncClient : public Actor {
 public:
  /// How long one replica gets to answer before the client re-probes
  /// another one (a crashed leader never answers).
  static constexpr TimeNs kAttemptTimeout = 200 * kMillisecond;

  explicit SyncClient(size_t num_replicas, size_t num_groups = 1)
      : session_(num_replicas, static_cast<uint32_t>(num_groups)) {}

  void OnMessage(NodeId from, const MessagePtr& msg) override;

  /// Executes `op`/`key`/`value` against the cluster, retrying redirects,
  /// until `timeout` elapses.
  Result<std::string> Execute(OpType op, const std::string& key,
                              const std::string& value,
                              TimeNs timeout = 5 * kSecond);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  // Guarded by mu_ (Execute runs on caller threads, OnMessage on the
  // actor's loop).
  client::ClientSession session_;
  client::ReplyKind wake_ = client::ReplyKind::kIgnored;
  StatusCode reply_code_ = StatusCode::kOk;
  std::string reply_value_;
};

}  // namespace pig::runtime
