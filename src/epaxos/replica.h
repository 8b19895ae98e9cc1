// EPaxos replica: opportunistic per-command leaders, fast/slow paths,
// dependency-ordered execution via strongly connected components.
//
// This is the baseline the paper evaluates against (Fig. 8, Fig. 10).
// Under the paper's workload (1000 keys, uniform) conflicts are frequent,
// so most commands take the slow path and dependency graphs grow — the
// behaviour responsible for EPaxos's early saturation.
//
// Simplification: explicit-prepare recovery after a command-leader crash
// is not implemented; the paper's evaluation never crashes EPaxos nodes.
// So EPaxos runs without crashes or forced elections, and without
// storage (harness::BuildNode rejects it); README "Adversarial testing"
// describes the conformance row this leaves.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/client_messages.h"
#include "consensus/env.h"
#include "epaxos/messages.h"
#include "statemachine/kvstore.h"

namespace pig::epaxos {

using pig::Actor;
using pig::ClientRequest;
using pig::KvStore;
using pig::TimeNs;

struct EPaxosOptions {
  size_t num_replicas = 0;

  /// Per-key read history kept for conflict tracking (reads since the
  /// last write; writes depend on them).
  size_t max_tracked_reads = 32;

  /// Simulated CPU cost knobs (consumed via Env::ChargeCpu; no-ops on the
  /// wall-clock runtime). These model the per-instance bookkeeping the
  /// paper blames for EPaxos's early saturation ("conflict resolution
  /// phase draining the resources of every node", §5.4): interference
  /// lookups and dependency merging on every PreAccept/Accept/Commit at
  /// every replica, plus dependency-graph traversal at execution. The
  /// graph terms scale with the *actual* work performed, so low-conflict
  /// workloads (short dep lists, no slow path) are proportionally
  /// cheaper. Defaults are calibrated against the paper's Paxi/Go
  /// implementation, which saturates a 25-node cluster near 1000 req/s
  /// (see sim::DefaultReplicaCpu() in sim/cluster.cc).
  TimeNs attr_cost = 60 * kMicrosecond;        ///< Per instance table op.
  TimeNs exec_node_cost = 250 * kMicrosecond;  ///< Per graph node visited.
  TimeNs exec_edge_cost = 80 * kMicrosecond;   ///< Per dependency edge.

  /// When > 0, instances this replica leads that have not committed
  /// after an interval get their current phase message re-broadcast —
  /// the minimum retransmission needed to survive lossy/asymmetric
  /// networks (a lost PreAccept otherwise wedges the instance forever,
  /// and every later conflicting instance deps-waits on it). 0 (the
  /// default) keeps the original fire-and-forget behaviour and
  /// byte-identical traces.
  TimeNs retry_interval = 0;

  /// With retry_interval > 0: how many retry ticks keep re-broadcasting
  /// ECommit for an instance this replica committed as leader. Commits
  /// are fire-and-forget, so a lost ECommit otherwise wedges the peer
  /// that missed it (its later conflicting instances deps-wait forever).
  /// Bounded: the budget should cover the longest expected outage window
  /// (budget * retry_interval), not run unbounded.
  uint32_t commit_rebroadcasts = 0;
};

struct EPaxosMetrics {
  uint64_t proposals = 0;
  uint64_t fast_path_commits = 0;
  uint64_t slow_path_commits = 0;
  uint64_t commits = 0;        ///< Total instances committed locally.
  uint64_t executions = 0;
  uint64_t conflicts = 0;      ///< PreAccepts that mutated attributes.
  uint64_t deferred_executions = 0;  ///< Waits on uncommitted deps.
  uint64_t retries = 0;        ///< Phase re-broadcasts (retry_interval).
  uint64_t dup_exec_skips = 0;  ///< Same (client, seq) committed twice
                                ///< (client resend); applied only once.
};

class EPaxosReplica : public Actor {
 public:
  EPaxosReplica(NodeId id, EPaxosOptions options);

  void OnStart() override;
  void OnMessage(NodeId from, const MessagePtr& msg) override;

  const EPaxosMetrics& metrics() const { return metrics_; }
  const KvStore& store() const { return store_; }
  NodeId id() const { return id_; }

  /// Fast-path quorum size for `n` replicas: F + floor((F+1)/2) with
  /// N = 2F+1, counting the command leader itself.
  static size_t FastQuorumSize(size_t n);
  static size_t SlowQuorumSize(size_t n) { return n / 2 + 1; }

  // Test introspection.
  enum class InstStatus : uint8_t {
    kNone,
    kPreAccepted,
    kAccepted,
    kCommitted,
    kExecuted
  };
  struct Instance {
    Command cmd;
    uint64_t seq = 0;
    DepSet deps;
    InstStatus status = InstStatus::kNone;
    Ballot ballot;
  };
  const Instance* FindInstance(const InstanceId& id) const;
  size_t committed_unexecuted() const { return exec_pending_.size(); }

  /// Visits every locally committed-or-executed instance (conformance
  /// checking: instance agreement + exactly-once across replicas).
  void ForEachCommitted(
      const std::function<void(const InstanceId&, const Instance&)>& fn)
      const;

 private:
  struct LeaderState {
    // Voter bitmasks, not counters: a duplicated reply delivery (network
    // duplication faults, or our own phase retries) must not be able to
    // fake a quorum. Excludes self; num_replicas <= 64 is asserted.
    uint64_t preaccept_mask = 0;
    bool attrs_unchanged = true;
    uint64_t max_seq = 0;
    DepSet union_deps;
    uint64_t accept_mask = 0;
    bool in_accept_phase = false;
  };

  struct KeyInfo {
    std::optional<InstanceId> last_write;
    std::vector<InstanceId> reads_since_write;
    uint64_t max_seq = 0;
  };

  void HandleClientRequest(NodeId from, const ClientRequest& req);
  void HandlePreAccept(NodeId from, const PreAccept& msg);
  void HandlePreAcceptReply(const PreAcceptReply& msg);
  void HandleEAccept(NodeId from, const EAccept& msg);
  void HandleEAcceptReply(const EAcceptReply& msg);
  void HandleECommit(const ECommit& msg);

  /// Initial (seq, deps) for a new command at this replica.
  std::pair<uint64_t, DepSet> ComputeAttributes(const Command& cmd,
                                                const InstanceId& self);
  /// Folds the instance into the per-key conflict tables.
  void RecordAttributes(const InstanceId& id, const Command& cmd,
                        uint64_t seq);

  Instance& Materialize(const InstanceId& id);
  void CommitInstance(const InstanceId& id, const Command& cmd,
                      uint64_t seq, const DepSet& deps, bool broadcast);

  /// Attempts dependency-ordered execution starting from `id`; defers if
  /// any transitively required instance is not yet committed.
  void TryExecute(const InstanceId& id);
  void ExecuteInstance(const InstanceId& id, Instance& inst);
  void WakeWaiters(const InstanceId& id);

  /// Marks (client, seq) applied; false when it already was (a resent
  /// command that committed in two instances must apply only once).
  bool MarkApplied(NodeId client, uint64_t seq);

  /// Re-broadcasts the current phase of every still-uncommitted led
  /// instance, then re-arms itself (retry_interval > 0 only).
  void RetryTick();

  void Broadcast(const MessagePtr& msg);

  const NodeId id_;
  EPaxosOptions options_;
  EPaxosMetrics metrics_;
  KvStore store_;

  uint64_t next_index_ = 0;
  // instances_[replica][index]
  std::vector<std::unordered_map<uint64_t, Instance>> instances_;
  std::unordered_map<InstanceId, LeaderState, InstanceIdHash> leading_;
  std::unordered_map<std::string, KeyInfo> keys_;

  // Led instances whose ECommit still gets re-broadcast for a few retry
  // ticks (commit_rebroadcasts > 0 only). Insertion-ordered, so the
  // re-send order is deterministic.
  std::vector<std::pair<InstanceId, uint32_t>> commit_recast_;

  // Execution machinery.
  std::unordered_set<InstanceId, InstanceIdHash> exec_pending_;
  std::unordered_map<InstanceId, std::vector<InstanceId>, InstanceIdHash>
      waiters_;  // uncommitted dep -> instances waiting on it

  // Client dedup (same contract as PaxosReplica).
  struct ClientRecord {
    uint64_t seq = 0;
    std::string value;
  };
  std::unordered_map<NodeId, ClientRecord> client_records_;
  std::unordered_map<NodeId, std::pair<uint64_t, InstanceId>>
      client_pending_;

  // Apply-time exactly-once window. Unlike Multi-Paxos, two instances
  // can legitimately commit the same (client, seq) — the client timed
  // out and re-issued at another replica — and instances from one client
  // on unrelated keys execute in different orders at different replicas,
  // so a monotone high-water mark is NOT a correct filter. An exact
  // applied-seq set is; it is pruned far below the per-client max (a
  // sequential client keeps at most a few seqs in flight).
  struct AppliedWindow {
    uint64_t max_seq = 0;
    std::unordered_set<uint64_t> seqs;
  };
  std::unordered_map<NodeId, AppliedWindow> applied_;
};

}  // namespace pig::epaxos
