// Multi-Paxos replica (stable leader, piggybacked commits, log-serialized
// reads). This class contains the complete decision logic; PigPaxos
// subclasses it and overrides only the communication layer (FanOut and
// fan-in unwrapping), mirroring the paper's claim that PigPaxos "required
// almost no changes to the core Paxos code".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "consensus/client_messages.h"
#include "consensus/env.h"
#include "log/replicated_log.h"
#include "paxos/messages.h"
#include "paxos/quorum_reads.h"
#include "quorum/quorum.h"
#include "statemachine/kvstore.h"

namespace pig::storage {
class Storage;  // storage/storage.h; the seam stays below paxos/
}

namespace pig::paxos {

using pig::Actor;
using pig::Heartbeat;
using pig::KvStore;
using pig::LogEntry;
using pig::QuorumSystem;
using pig::ReplicatedLog;
using pig::TimeNs;
using pig::TimerId;
using pig::VoteTally;

struct PaxosOptions {
  /// Cluster size; replicas are ids [0, num_replicas).
  size_t num_replicas = 0;

  /// Quorum sizes; defaults to MajorityQuorum(num_replicas).
  std::shared_ptr<QuorumSystem> quorum;

  /// This node runs phase-1 immediately at start; others wait for their
  /// election timeout. kInvalidNode disables bootstrap (cold elections).
  NodeId bootstrap_leader = 0;

  /// Leader liveness beacon period.
  TimeNs heartbeat_interval = 20 * kMillisecond;

  /// Followers elect a new leader after silence in
  /// [election_timeout_min, election_timeout_max] (uniform).
  TimeNs election_timeout_min = 200 * kMillisecond;
  TimeNs election_timeout_max = 400 * kMillisecond;

  /// Leader re-broadcasts phase-2 for a slot still uncommitted after this
  /// long (covers drops and, in PigPaxos, dead relays — each retry picks
  /// fresh random relays, Fig. 5b). Must comfortably exceed worst-case
  /// queueing delay at saturation or retries amplify overload.
  TimeNs propose_retry_timeout = 400 * kMillisecond;

  /// Simulated CPU cost of tallying one phase-1/phase-2 vote at the
  /// leader. PigPaxos reduces the leader's *communication*, but the
  /// decision work — processing N-1 votes per slot — stays (§6.3:
  /// "further adding to the leader's load is heavier message
  /// processing"). No-op on the wall-clock runtime.
  TimeNs vote_process_cost = 3 * kMicrosecond;

  /// Follower retry period for outstanding log-sync requests.
  TimeNs sync_retry_timeout = 40 * kMillisecond;

  /// Executed slots beyond this window are compacted away.
  size_t compaction_window = 8192;

  // --- Durability (off by default) --------------------------------------
  // With `storage` null every WAL/snapshot hook is skipped entirely:
  // no extra allocations, timers, or rng draws, so memory-only runs stay
  // byte-identical to the pre-durability behavior.

  /// Durable WAL + snapshot backend (storage/storage.h). Non-owning; the
  /// caller keeps it alive for the replica's lifetime. The replica
  /// recovers from it in its constructor, so hand over storage that has
  /// already survived the crash being recovered from.
  storage::Storage* storage = nullptr;

  /// With storage attached: also write a snapshot every this many
  /// executed slots, independent of compaction (0 = snapshot only at
  /// compaction points). Lets tests exercise snapshot recovery while the
  /// full log is retained for invariant checking.
  size_t snapshot_interval = 0;

  /// Client dedup records whose last executed slot is more than this many
  /// slots behind a snapshot/compaction cover point are pruned down to a
  /// seq-only floor (cached reply value dropped, dedup preserved).
  /// 0 disables pruning.
  size_t client_record_horizon = 1u << 16;

  // --- Batching + pipelining (off by default) ---------------------------
  // The engine engages only when batch_size > 1 or pipeline_depth > 1;
  // at the defaults every proposal takes the legacy immediate path, so
  // existing traces stay byte-identical.

  /// Max client commands packed into one log slot (kBatch carrier).
  /// 1 = batching off.
  size_t batch_size = 1;

  /// A partially filled batch is flushed this long after its oldest
  /// command was enqueued (size- and time-triggered batching). Only
  /// meaningful when the engine is engaged.
  TimeNs batch_timeout = 200 * kMicrosecond;

  /// Max uncommitted slots the leader keeps in flight; further batches
  /// queue until a slot commits. 1 = strict one-batch-at-a-time when the
  /// engine is engaged (and, with batch_size == 1, the engine is off).
  size_t pipeline_depth = 1;

  /// Conformance-harness fault injection ONLY (tests/conformance.h):
  /// deliberately reverts the duplicate-vote dedup so a follower's P2b
  /// delivered twice (overlapping relay groups) counts twice. Proves the
  /// randomized harness catches quorum-math regressions. Never enable
  /// outside tests.
  bool test_fault_count_duplicate_votes = false;

  /// Conformance-harness fault injection ONLY: disables the client_records_
  /// exactly-once filter (Propose admission + ExecuteOne apply-time), so a
  /// duplicated ClientRequest delivery double-applies. Proves the network
  /// duplication fault kind catches dedup regressions. Never enable outside
  /// tests.
  bool test_fault_no_client_dedup = false;
};

/// Counters exposed for tests and benches.
struct ReplicaMetrics {
  uint64_t proposals = 0;        ///< Client commands this node proposed.
  uint64_t commits = 0;          ///< Slots this node marked committed.
  uint64_t executions = 0;       ///< Commands applied to the KV store.
  uint64_t elections_started = 0;
  uint64_t elections_won = 0;
  uint64_t redirects = 0;        ///< Client requests bounced to the leader.
  uint64_t propose_retries = 0;  ///< Phase-2 re-broadcasts.
  uint64_t log_syncs = 0;        ///< Catch-up requests served.

  // Batching/pipelining engine (zero while the engine is off).
  uint64_t batches_proposed = 0;   ///< Slots proposed through the batcher.
  uint64_t batched_commands = 0;   ///< Client commands those slots carried.
  uint64_t batch_timeout_flushes = 0;  ///< Time-triggered partial flushes.
  uint64_t pipeline_stalls = 0;    ///< Flushes deferred by a full window.

  // Durability (zero while storage is detached).
  uint64_t wal_replayed_records = 0;  ///< Records replayed at construction.
  uint64_t snapshots_written = 0;
  uint64_t client_records_pruned = 0;  ///< Dedup entries reduced to floors.
  uint64_t prefix_syncs = 0;  ///< Leader-side committed-prefix catch-ups.
};

class PaxosReplica : public Actor {
 public:
  PaxosReplica(NodeId id, PaxosOptions options);
  ~PaxosReplica() override;

  void OnStart() override;
  void OnMessage(NodeId from, const MessagePtr& msg) override;

  // --- Introspection (tests, harness) ---------------------------------
  bool IsLeader() const { return role_ == Role::kLeader; }
  NodeId KnownLeader() const;
  const Ballot& promised() const { return promised_; }
  const ReplicatedLog& log() const { return log_; }
  const KvStore& store() const { return store_; }
  const ReplicaMetrics& metrics() const { return metrics_; }
  const PaxosOptions& options() const { return options_; }
  NodeId id() const { return id_; }

  /// Forces this node to start an election now (tests/admin).
  void TriggerElection();

 protected:
  // --- Communication layer hooks (overridden by PigPaxos) --------------

  /// Sends `msg` from the leader toward every other replica.
  /// `expects_response` is false for one-way traffic (heartbeats, P3).
  virtual void FanOut(MessagePtr msg, bool expects_response);

  /// Processes one leader->follower message and returns the follower's
  /// response (nullptr for one-way messages). Shared by the direct path
  /// and the relay path.
  MessagePtr HandleFanOutMessage(const Message& msg);

  /// Feeds one fan-in response (possibly extracted from a relay
  /// aggregate) into the leader logic.
  void HandleResponse(const Message& msg);

  /// Messages this node would broadcast if it were using direct
  /// communication; exposed so subclasses can intercept.
  const std::vector<NodeId>& peers() const { return peers_; }

  /// Invoked after this node gains (BecomeLeader) or loses (StepDown)
  /// leadership, once the role change is complete. Subclasses hook
  /// leader-only machinery here — e.g. the PigPaxos reshuffle timer,
  /// which must not tick on followers. NOT called for the silent
  /// demotion in OnStart (crash recovery): timers are dead at that
  /// point and subclasses reset their state in their own OnStart.
  virtual void OnLeadershipChange(bool is_leader) { (void)is_leader; }

  // --- Shared internals -------------------------------------------------

  void HandleClientRequest(NodeId from, const ClientRequest& req);

  ReplicaMetrics metrics_;

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  // Fan-out handlers (follower side).
  MessagePtr HandleP1a(const P1a& msg);
  MessagePtr HandleP2a(const P2a& msg);
  MessagePtr HandleP3(const P3& msg);
  MessagePtr HandleHeartbeat(const Heartbeat& msg);

  // Fan-in handlers (leader side).
  void HandleP1b(const P1b& msg);
  void HandleP2b(const P2b& msg);

  // Log catch-up.
  void HandleLogSyncRequest(NodeId from, const LogSyncRequest& req);
  void HandleLogSyncResponse(const LogSyncResponse& resp);

  // Paxos Quorum Reads extension (§4.3).
  void HandleQuorumRead(NodeId from, const QuorumReadRequest& req);

  void StartElection();
  void BecomeLeader();
  void StepDown(const Ballot& higher);
  void Propose(const Command& cmd, NodeId client);
  void ProposeAt(SlotId slot, const Command& cmd);
  void CommitSlot(SlotId slot);
  void AdvanceCommit(SlotId upto, const Ballot& ballot);
  void ExecuteReady();
  void ExecuteOne(const Command& cmd, SlotId slot);

  // Batching/pipelining engine (leader side).
  bool PipelineEngaged() const {
    return options_.batch_size > 1 || options_.pipeline_depth > 1;
  }
  void MaybeFlushBatches(bool flush_partial);
  void FlushBatch(size_t count);
  void ResetBatchState();
  void ArmBatchTimer();
  void OnBatchTimeout();
  void MaybeRequestSync(SlotId target_ci);

  // Durability hooks (all no-ops while options_.storage is null).
  void RecoverFromStorage();       ///< Constructor-time replay.
  void PersistPromise();           ///< Appends kPromise if not yet durable.
  void PersistAccept(SlotId slot, const Ballot& ballot, const Command& cmd);
  void PersistCommitMark();        ///< Appends kCommit when ci advanced.
  void SyncWal();                  ///< Durability barrier if dirty.
  void MaybeSnapshot();            ///< Interval/compaction triggers.
  void TakeSnapshot();
  void PruneClientRecords(SlotId cover);

  // Committed-prefix catch-up for a freshly elected leader whose log was
  // compacted past slots its P1 quorum reports as committed elsewhere
  // (see BecomeLeader): state transfer instead of unsafe re-proposal.
  void RequestPrefixSync();

  void NoteLeaderContact(const Ballot& ballot);
  void ReplyToClient(NodeId client, uint64_t seq, StatusCode code,
                     std::string value, SlotId slot);

  void ArmElectionTimer();
  void ArmHeartbeatTimer();
  void ArmRetryTimer();
  void OnElectionTimeout();
  void OnHeartbeatTimeout();
  void OnRetryTimeout();

  SlotId CommitIndex() const { return log_.ContiguousCommitIndex(); }

  const NodeId id_;
  PaxosOptions options_;
  std::vector<NodeId> peers_;  // all replicas except self

  Role role_ = Role::kFollower;
  Ballot promised_;            // highest ballot seen/promised
  NodeId leader_hint_ = kInvalidNode;

  ReplicatedLog log_;
  KvStore store_;
  SlotId next_slot_ = 0;

  // Candidate state. The tally is dense (inline bitmap), so it lives in
  // place rather than behind a per-election/per-slot heap allocation.
  std::optional<VoteTally> p1_tally_;
  std::unordered_map<SlotId, AcceptedEntry> p1_adopted_;
  SlotId p1_max_slot_ = kInvalidSlot;
  // Highest commit_index any counted P1b reported, and who reported it.
  // Slots at or below it are already chosen cluster-wide; a compacted
  // candidate must recover them by state transfer, never re-proposal.
  SlotId p1_peer_commit_max_ = kInvalidSlot;
  NodeId p1_peer_commit_holder_ = kInvalidNode;

  // Leader-side prefix catch-up (kInvalidSlot = none outstanding).
  SlotId prefix_sync_target_ = kInvalidSlot;
  NodeId prefix_sync_source_ = kInvalidNode;
  size_t prefix_sync_attempts_ = 0;

  // Leader state.
  struct Pending {
    std::optional<VoteTally> tally;
    TimeNs proposed_at = 0;
  };
  std::unordered_map<SlotId, Pending> pending_;

  // Batching/pipelining engine state: commands admitted but not yet
  // assigned a slot, oldest first.
  std::deque<Command> batch_queue_;
  TimerId batch_timer_ = kInvalidTimer;
  bool flushing_ = false;         // re-entrancy guard (instant commits)
  uint64_t fault_dup_votes_ = 0;  // synthetic voter ids (fault injection)

  // In-flight client seq per client (duplicate-suppression at the leader).
  std::unordered_map<NodeId, uint64_t> client_pending_;

  // Client dedup / reply cache: last executed seq + result per client.
  struct ClientRecord {
    uint64_t seq = 0;
    std::string value;
    SlotId slot = kInvalidSlot;
  };
  std::unordered_map<NodeId, ClientRecord> client_records_;

  // Follower catch-up state.
  SlotId sync_requested_upto_ = kInvalidSlot;
  TimeNs last_sync_request_ = 0;

  // Per-key write watermarks for the quorum-read extension: the highest
  // slot of an accepted write and of an executed write per key.
  std::unordered_map<std::string, SlotId> key_accept_watermark_;
  std::unordered_map<std::string, SlotId> key_exec_slot_;

  TimerId election_timer_ = kInvalidTimer;
  TimerId heartbeat_timer_ = kInvalidTimer;
  TimerId retry_timer_ = kInvalidTimer;
  TimeNs last_leader_contact_ = 0;
  TimeNs election_draw_ = 0;  // timeout drawn for the current timer

  // Durability state (meaningful only with options_.storage attached).
  storage::Storage* storage_ = nullptr;   // == options_.storage
  bool wal_dirty_ = false;                // appended since last Sync()
  Ballot wal_promised_;                   // highest durable promise
  SlotId wal_commit_logged_ = kInvalidSlot;  // last kCommit marker value
  SlotId last_snapshot_upto_ = kInvalidSlot;
  bool recovering_ = false;               // inside RecoverFromStorage
};

}  // namespace pig::paxos
