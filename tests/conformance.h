// Randomized protocol-conformance harness.
//
// Drives a Paxos or PigPaxos cluster through a seeded schedule of message
// drops, partitions, crash/recovery, and forced leader churn while
// history-recording closed-loop clients issue uniquely-valued writes and
// reads. After healing and quiescing, every run is checked against the
// full invariant set:
//   * linearizability of the client-visible history (linearizability.h),
//   * log-prefix agreement across replicas (no two replicas commit
//     different commands in one slot) and store convergence,
//   * no lost command: every acknowledged write is committed in the
//     leader's contiguous prefix,
//   * no duplicated command: per-key version counters match the number
//     of distinct committed writes (a double-applied write would
//     overshoot), and batched slots unroll to distinct (client, seq)s.
//
// The harness exists to make protocol changes — leader batching, commit
// pipelining, relay uplink coalescing — safe to land: the test matrix in
// conformance_test.cc sweeps {batch size x pipeline depth x relay-group
// config} over many seeds, and a deliberate fault-injection mode proves
// the checks actually fire (see RunDuplicateVoteFaultScenario).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "harness/scenario.h"

namespace pig::test {

/// What a chaos-round crash does to the victim's state.
enum class DiskMode {
  kNone,      ///< Legacy model: actor object retained, perfect memory.
              ///< Byte-identical to the pre-durability harness.
  kWithDisk,  ///< kill -9: the actor is rebuilt on recovery and must
              ///< replay its (in-memory, fault-injecting) WAL+snapshot;
              ///< unsynced appends are dropped at rebuild.
  kLosingDisk,  ///< As kWithDisk, plus the run's FIRST crash wipes the
                ///< victim's storage (one machine replacement). Paxos
                ///< quorum intersection tolerates f crashes but NOT f
                ///< disk losses — and even one loss is only safe when
                ///< elections don't pivot on the wiped node before it
                ///< catches up, so losing-disk rows should prefer
                ///< scripted schedules with stable leadership over
                ///< random chaos (a flagged "violation" there can be
                ///< legitimate data loss, not a protocol bug).
};

struct ConformanceConfig {
  std::string name;           ///< Diagnostics only.
  bool use_pig = true;
  /// Ring-pipeline baseline (baselines/ring_replica.h); wins over
  /// use_pig so the same chaos schedules validate both protocols.
  bool use_ring = false;
  /// Leaderless EPaxos baseline (epaxos/replica.h); wins over use_ring
  /// and use_pig. Clients spread across replicas (every node is a
  /// command leader) and the invariant set switches to instance
  /// agreement + dependency-execution convergence. Crash/election chaos
  /// arms are skipped: explicit-prepare recovery is not implemented
  /// (DESIGN.md §6), so epaxos rows exercise the *delivery* fault kinds
  /// — duplication, reordering, one-way partitions, clock skew.
  /// Client targets are fixed per client (client i starts at replica
  /// i % N and moves on only when it goes silent). Random per-send
  /// targets are outside the contract: without recovery, they make
  /// stores diverge under one-way partitions.
  bool use_epaxos = false;
  /// EPaxosOptions::retry_interval / commit_rebroadcasts for epaxos
  /// rows. Any schedule that loses messages (drops, partitions) needs
  /// retransmission: a lost PreAccept or ECommit wedges dependency
  /// execution at the replica that missed it.
  TimeNs epaxos_retry_interval = 0;
  uint32_t epaxos_commit_rebroadcasts = 0;
  size_t num_replicas = 5;
  size_t num_clients = 4;
  size_t num_keys = 8;
  double read_ratio = 0.5;

  /// Consensus groups hash-partitioning the keyspace (shard/). 1 = the
  /// classic single-group run. With > 1 every node hosts one replica
  /// per group (shard::ShardedNode), clients route commands by key
  /// through a ShardRouter, and the invariant set runs per group — plus
  /// a membership check that every committed command landed in the
  /// group its key hashes to.
  uint32_t num_groups = 1;

  // Batching / pipelining (1/1 = engine off).
  size_t batch_size = 1;
  size_t pipeline_depth = 1;

  // PigPaxos relay layer.
  size_t relay_groups = 2;
  size_t group_overlap = 0;
  size_t uplink_coalesce_max = 1;
  size_t relay_layers = 1;
  TimeNs reshuffle_interval = 0;   ///< §4.1 dynamic regrouping.

  // Flexible quorums (0 = majority).
  size_t flexible_q1 = 0;
  size_t flexible_q2 = 0;

  double drop_probability = 0.0;
  int chaos_rounds = 6;
  TimeNs round_length = 350 * kMillisecond;
  TimeNs quiesce = 4 * kSecond;

  // Durability (src/storage/). kNone leaves PaxosOptions::storage null,
  // which skips every WAL/snapshot hook — that configuration must stay
  // byte-identical to the harness before durability existed.
  DiskMode disk = DiskMode::kNone;
  size_t snapshot_interval = 0;   ///< PaxosOptions::snapshot_interval.
  size_t compaction_window = 0;   ///< 0 = never compact (checker scans
                                  ///< the whole log); nonzero exercises
                                  ///< snapshot + state-transfer paths
                                  ///< and gates the full-prefix checks.

  /// Scripted scenario (harness/scenario.h). When the schedule is
  /// non-empty it REPLACES the seeded random chaos: the named fault
  /// events run at their absolute virtual times (offset by the 150 ms
  /// settle phase), the topology/gray model applies, and after
  /// `scripted_tail` past the last event everything is healed for the
  /// usual quiesce + invariant check. Same seed + same spec =>
  /// deterministic run.
  harness::ScenarioSpec scenario;
  TimeNs scripted_tail = 1 * kSecond;

  bool scripted() const { return !scenario.schedule.empty(); }
};

struct ConformanceResult {
  std::string violation;        ///< Empty when every invariant held.
  uint64_t completed_ops = 0;   ///< Client ops acknowledged OK.
  uint64_t acked_writes = 0;
  uint64_t committed_commands = 0;  ///< Distinct commands in the prefix.
  uint64_t batches_proposed = 0;

  bool ok() const { return violation.empty(); }
};

/// Runs one seeded schedule and checks all invariants.
ConformanceResult RunConformance(const ConformanceConfig& cfg,
                                 uint64_t seed);

/// Scripted fault-injection scenario: overlapping relay groups deliver a
/// follower's vote twice; with `inject_fault` the leader's vote dedup is
/// deliberately reverted (PaxosOptions::test_fault_count_duplicate_votes)
/// so the duplicate fakes a quorum. The harness must report a violation
/// with the fault injected and a clean run without it.
ConformanceResult RunDuplicateVoteFaultScenario(uint64_t seed,
                                                bool inject_fault);

/// Which exactly-once mechanism RunDuplicationFaultScenario reverts.
enum class DedupFault {
  kNone,           ///< No injected bug: the schedule must stay clean.
  kClientRecords,  ///< PaxosOptions::test_fault_no_client_dedup — a
                   ///< duplicated ClientRequest double-proposes and
                   ///< double-applies.
  kVoteCount,      ///< PaxosOptions::test_fault_count_duplicate_votes —
                   ///< a duplicated P2b delivery fakes a quorum.
};

/// Teeth check for the network duplication fault kind: flat Paxos under
/// 100% message duplication plus a majority-crash window. With kNone
/// every dedup layer holds and the run is clean; reverting either layer
/// must produce an invariant violation (double apply, or a fabricated
/// quorum whose acknowledged write a legitimate quorum later loses).
ConformanceResult RunDuplicationFaultScenario(uint64_t seed,
                                              DedupFault fault);

}  // namespace pig::test
