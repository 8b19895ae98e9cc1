// Multi-process TCP runtime (Linux epoll).
//
// Each locally hosted actor gets its own EventLoop driven by an epoll
// thread over real nonblocking loopback/LAN sockets, with length-prefixed
// framing (net/frame.h). Remote actors live in other processes (pig_node,
// src/runtime/node_main.cc) and are declared with AddPeer. The cluster
// can also host all nodes in one process — the runtime tests, the
// examples and the loopback benches do exactly that.
//
// Connection model: every node dials every peer in its address map and
// opens with a NodeHello frame identifying itself. The accepting side
// learns the dialer from that hello and routes replies back over the same
// socket, which is how clients (absent from the static peer map) get
// answered. Connects are nonblocking with exponential-backoff retry, each
// retry a timer on the node's own event loop, and a dropped connection is
// redialed the same way; output queued on a dead connection is discarded
// whole — a frame is never resumed mid-way — and the protocols' own
// retries/heartbeats recover, exactly the fail-silent Env::Send contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "consensus/env.h"
#include "runtime/event_loop.h"
#include "runtime/transport.h"

namespace pig::runtime {

struct TcpOptions {
  /// Reconnect backoff bounds for failed/dropped outbound connections.
  TimeNs reconnect_min = 50 * kMillisecond;
  TimeNs reconnect_max = 1 * kSecond;

  /// Output queued for a peer while its connection is down or still
  /// connecting is capped; beyond this, sends are dropped (fail-silent).
  size_t max_queued_bytes = 4u * 1024 * 1024;
};

class TcpCluster {
 public:
  explicit TcpCluster(uint64_t seed = 1, TcpOptions options = {});
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  /// Hosts `id` in this process, listening on 127.0.0.1:`port` (0 picks
  /// an ephemeral port, readable via port() right after). Also registers
  /// the address so other local nodes dial it. Call before Start().
  void AddActor(NodeId id, std::unique_ptr<Actor> actor,
                uint16_t port = 0);

  /// Declares a peer hosted by another process. Call before Start().
  void AddPeer(NodeId id, const std::string& host, uint16_t port);

  /// The port a locally hosted node is listening on.
  uint16_t port(NodeId id) const;

  void Start();
  void Stop();

  /// Kills one local node: closes its sockets and joins its thread — the
  /// in-process analogue of kill -9 (fault tests).
  void StopNode(NodeId id);

  /// Boots a fresh actor in a stopped node's slot, re-listening on the
  /// same port. An actor built without storage recovers purely through
  /// the protocol (LogSync); one constructed over the dead node's
  /// FileStorage replays snapshot + WAL first, exactly like a pig_node
  /// process restarted with the same --data-dir.
  void RestartNode(NodeId id, std::unique_ptr<Actor> actor);

  Actor* actor(NodeId id);

  /// Monotonic nanoseconds since Start().
  TimeNs Now() const { return clock_.Now(); }

 private:
  class TcpNode;

  struct PeerAddr {
    std::string host;
    uint16_t port = 0;
  };

  uint64_t seed_;
  TcpOptions options_;
  WallClock clock_;
  std::atomic<bool> running_{false};
  // Address map: read-only after Start() (loops read it lock-free).
  std::unordered_map<NodeId, PeerAddr> peers_;
  std::unordered_map<NodeId, std::unique_ptr<TcpNode>> nodes_;
  std::vector<NodeId> order_;
};

}  // namespace pig::runtime
