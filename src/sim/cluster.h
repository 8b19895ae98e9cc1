// Simulated cluster: drives Actors in virtual time over a simulated
// network, with a single-server CPU queue per node.
//
// CPU model. Each node owns one logical CPU (Paxi's Go runtime on the
// paper's 2-vCPU m5a.large instances is effectively serialized on the
// message hot path). Receiving a message costs recv_base + recv_per_byte
// before the handler runs; each Send() inside a handler costs
// send_base + send_per_byte and departs when the CPU reaches it. This is
// exactly the "messages handled per node" load model the paper uses in
// §6.1, so leader saturation, relay rotation amortization, and payload
// scaling all emerge from first principles.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "consensus/env.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace pig::sim {

/// Service-time parameters of a node's CPU.
struct CpuModel {
  TimeNs send_base = 0;       ///< Per message sent (serialize + syscall).
  TimeNs recv_base = 0;       ///< Per message received (parse + handler).
  double send_per_byte = 0;   ///< ns per payload byte sent.
  double recv_per_byte = 0;   ///< ns per payload byte received.

  TimeNs SendCost(size_t bytes) const {
    return send_base +
           static_cast<TimeNs>(send_per_byte * static_cast<double>(bytes));
  }
  TimeNs RecvCost(size_t bytes) const {
    return recv_base +
           static_cast<TimeNs>(recv_per_byte * static_cast<double>(bytes));
  }
};

/// Calibrated so a 25-node Multi-Paxos saturates around 2000 req/s as in
/// the paper (leader handles ~50 messages per request; the derivation is
/// next to the definition in sim/cluster.cc).
CpuModel DefaultReplicaCpu();

/// Clients ran on larger instances and never saturate in the paper.
inline CpuModel FreeCpu() { return CpuModel{}; }

struct ClusterOptions {
  uint64_t seed = 1;
  net::NetworkOptions network;
  CpuModel replica_cpu = DefaultReplicaCpu();
  CpuModel client_cpu = FreeCpu();
};

/// Owns actors, their Envs and the event loop.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Registers an actor. Replicas use ids [0, N); clients should use
  /// MakeClientId(i). Must be called before Start().
  void AddReplica(NodeId id, std::unique_ptr<Actor> actor);
  void AddClient(NodeId id, std::unique_ptr<Actor> actor);

  static NodeId MakeClientId(uint32_t i) { return kFirstClientId + i; }

  /// Calls OnStart on every actor (replicas first, in id order).
  void Start();

  // --- Time control ----------------------------------------------------
  TimeNs Now() const { return scheduler_.now(); }
  uint64_t RunFor(TimeNs d) { return scheduler_.RunFor(d); }
  uint64_t RunUntil(TimeNs t) { return scheduler_.RunUntil(t); }
  Scheduler& scheduler() { return scheduler_; }

  // --- Fault injection --------------------------------------------------
  /// Silently crashes a node: pending timers are canceled, queued and
  /// in-flight messages to it are dropped. State is retained (legacy
  /// perfect-stable-storage model; the process does not lose memory).
  void Crash(NodeId id);

  /// Crashes a node like a real kill -9: on Recover the actor object is
  /// REBUILT from scratch via the rebuild hook and must recover state
  /// from its Storage. Requires SetRebuildHook; falls back to Crash()
  /// semantics (with a warning) when no hook is installed.
  void CrashWithDisk(NodeId id);

  /// CrashWithDisk plus disk loss: the rebuild hook is told to wipe the
  /// node's storage first, modelling a machine replacement. The node
  /// comes back empty and must catch up from peers.
  void CrashLosingDisk(NodeId id);

  /// Builds a fresh actor for `id` after CrashWithDisk/CrashLosingDisk;
  /// `lose_disk` says whether storage must be wiped before recovery.
  using RebuildHook =
      std::function<std::unique_ptr<Actor>(NodeId id, bool lose_disk)>;
  void SetRebuildHook(RebuildHook hook) { rebuild_hook_ = std::move(hook); }

  /// Recovers a crashed node and re-runs its OnStart(). Nodes downed by
  /// CrashWithDisk/CrashLosingDisk are rebuilt first.
  void Recover(NodeId id);

  /// Clock skew: every timer the node registers from now on has its
  /// delay multiplied by `factor` (> 1 = slow clock, deadlines fire
  /// late; < 1 = fast clock, elections and relay watches fire early).
  /// 1.0 restores an honest clock. Timers already armed keep the delay
  /// they were registered with, matching a real clock whose rate changes.
  void SetClockSkew(NodeId id, double factor);
  double ClockSkewOf(NodeId id) const;

  bool IsAlive(NodeId id) const;

  /// Convenience: schedule Crash/Recover at absolute virtual times.
  void CrashAt(TimeNs when, NodeId id);
  void RecoverAt(TimeNs when, NodeId id);

  // --- Introspection -----------------------------------------------------
  net::Network& network() { return *network_; }
  Actor* actor(NodeId id);
  const std::vector<NodeId>& replica_ids() const { return replica_ids_; }

  /// Fraction of virtual time `id`'s CPU was busy since the last
  /// ResetCpuStats() call (only meaningful for replicas with nonzero
  /// costs).
  double CpuUtilization(NodeId id, TimeNs window) const;
  void ResetCpuStats();

 private:
  struct Node;
  class NodeEnv;

  void AddActor(NodeId id, std::unique_ptr<Actor> actor, bool is_client);
  void CrashImpl(NodeId id, bool rebuild, bool lose_disk);
  Node* FindNode(NodeId id);
  const Node* FindNode(NodeId id) const;
  void SendFrom(Node& from, NodeId to, MessagePtr msg);
  void EnqueueDelivery(Node& node, NodeId from, MessagePtr msg);
  void Drain(NodeId id);

  ClusterOptions options_;
  Scheduler scheduler_;
  std::unique_ptr<net::Network> network_;
  Rng master_rng_;
  // Dense node tables indexed by NodeId (clients offset from
  // kFirstClientId); gaps for unregistered ids hold nullptr.
  std::vector<std::unique_ptr<Node>> replicas_;
  std::vector<std::unique_ptr<Node>> clients_;
  std::vector<NodeId> replica_ids_;
  std::vector<NodeId> client_ids_;
  RebuildHook rebuild_hook_;
  bool started_ = false;
};

}  // namespace pig::sim
