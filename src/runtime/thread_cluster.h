// Real-thread in-process runtime.
//
// Each actor runs its own EventLoop (runtime/event_loop.h) on a dedicated
// thread; the cluster itself is just the Transport between loops: messages
// are fully encoded on send and decoded on receive (the message-decoder
// registry must be populated, e.g. via RegisterPigPaxosMessages()). This
// driver exists to exercise the protocols under true concurrency and real
// time — integration tests and the examples use it; benches use the
// simulator and TcpCluster covers real sockets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/session.h"
#include "common/rng.h"
#include "common/status.h"
#include "consensus/env.h"
#include "runtime/event_loop.h"
#include "runtime/transport.h"
#include "statemachine/command.h"

namespace pig::runtime {

using pig::Actor;
using pig::MessagePtr;
using pig::NodeId;
using pig::TimeNs;
using pig::TimerId;

class ThreadCluster : private Transport {
 public:
  explicit ThreadCluster(uint64_t seed = 1);
  ~ThreadCluster() override;

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Registers an actor; must be called before Start().
  void AddActor(NodeId id, std::unique_ptr<Actor> actor);

  /// Launches one thread per actor and calls OnStart on each.
  void Start();

  /// Stops all actor threads (idempotent).
  void Stop();

  /// Stops one node's thread and silently drops mail addressed to it from
  /// then on — the in-process analogue of kill -9 (fault tests).
  void StopNode(NodeId id);

  /// Boots a fresh actor in a stopped node's slot. An actor built
  /// without storage starts empty and recovers through the protocol
  /// alone (LogSync); one constructed over the previous incarnation's
  /// Storage (PaxosOptions::storage) replays its durable snapshot + WAL
  /// first and only fetches the delta from peers — the same two restart
  /// modes a real pig_node process has with and without --data-dir.
  void RestartNode(NodeId id, std::unique_ptr<Actor> actor);

  Actor* actor(NodeId id);

  /// Monotonic nanoseconds since Start().
  TimeNs Now() const;

 private:
  struct Node {
    std::unique_ptr<EventLoop> loop;
    std::thread thread;
    std::atomic<bool> alive{false};
  };

  // Transport: encode into the destination loop's recycled buffer, then
  // enqueue. Fail-silent for unknown or stopped nodes.
  void Send(NodeId from, NodeId to, MessagePtr msg) override;

  Node* FindNode(NodeId id);
  void LaunchNode(Node* node);

  uint64_t seed_;
  std::atomic<bool> running_{false};
  WallClock clock_;
  // Guards the node->loop mapping against RestartNode swaps racing
  // concurrent senders; Send takes it shared.
  mutable std::shared_mutex topo_mu_;
  std::unordered_map<NodeId, std::unique_ptr<Node>> nodes_;
  std::vector<NodeId> order_;
};

/// Blocking client facade over a wall-clock runtime (ThreadCluster or
/// TcpCluster): submits one command and waits for the reply. Register it
/// as an actor, then call Execute from any external thread.
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
