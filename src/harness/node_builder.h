// One node builder. PigPaxos swaps only the communication layer under an
// unchanged Paxos core, so every driver (simulator harness, conformance
// matrix, the TCP runtime's tests, pig_node) builds its nodes from one
// ReplicaConfig through BuildNode: a flat Paxos, PigPaxos, EPaxos or Ring
// replica, or a shard::ShardedNode hosting one replica per group.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "consensus/env.h"

namespace pig::storage {
class Storage;
}  // namespace pig::storage

namespace pig::harness {

enum class Protocol { kPaxos, kPigPaxos, kEPaxos, kRing };

std::string ProtocolName(Protocol p);

enum class Topology { kLan, kWanVaCaOr };

/// Region assignment used for Topology::kWanVaCaOr: contiguous blocks of
/// ~N/3 nodes per region; node 0 (the bootstrap leader) is in Virginia.
/// Shared by the builder, the experiment runner and the scenario engine
/// so every layer agrees on the WAN layout.
int WanRegionOfNode(NodeId node, size_t num_replicas);

/// The protocol knobs of one cluster's replicas. Defaults match the
/// replica options' own, so a field left alone changes nothing.
struct ReplicaConfig {
  Protocol protocol = Protocol::kPaxos;
  size_t num_replicas = 5;

  /// Independent consensus groups hash-partitioning the keyspace
  /// (shard/). With > 1, every node hosts one replica per group
  /// (shard::ShardedNode) and group g bootstraps its leader on node
  /// g % num_replicas so leader load spreads across the cluster. Only
  /// Paxos and PigPaxos shard.
  size_t num_groups = 1;
  Topology topology = Topology::kLan;

  // --- Batching + pipelining (off by default) ---------------------------
  size_t batch_size = 1;          ///< Commands per log slot (1 = off).
  TimeNs batch_timeout = 200 * kMicrosecond;  ///< Partial-batch flush.
  size_t pipeline_depth = 1;      ///< Uncommitted slots in flight.

  // --- Log + durability (snapshots need storage attached) ---------------
  size_t snapshot_interval = 0;
  size_t compaction_window = 8192;

  /// Flexible quorum sizes (0 = classic majority, §2.2).
  size_t flexible_q1 = 0;
  size_t flexible_q2 = 0;

  // --- PigPaxos-specific ------------------------------------------------
  size_t relay_groups = 2;
  size_t group_overlap = 0;             ///< §3.3 overlapping groups.
  /// On Topology::kWanVaCaOr, group relays by region (§6.4) — which
  /// ignores `relay_groups` and makes one group per region. false keeps
  /// contiguous id grouping, letting sweeps compare region-aligned vs
  /// region-oblivious relay trees on the same WAN.
  bool region_grouping = true;
  TimeNs relay_timeout = 50 * kMillisecond;
  size_t group_response_threshold = 0;  ///< §4.2 partial responses.
  uint32_t relay_layers = 1;            ///< §6.3 multi-layer trees.
  TimeNs reshuffle_interval = 0;        ///< §4.1 dynamic regrouping.
  size_t uplink_coalesce_max = 1;       ///< Relay uplink bundling (1=off).
  TimeNs uplink_flush_delay = 100 * kMicrosecond;

  // --- Baselines ----------------------------------------------------------
  TimeNs ring_ack_timeout = 0;          ///< 0 = derived (see RingOptions).
  /// EPaxos retransmission (EPaxosOptions): loss-prone schedules need it.
  TimeNs epaxos_retry_interval = 0;
  uint32_t epaxos_commit_rebroadcasts = 0;
};

/// Durable storage for one consensus group of the node being built: a
/// non-owning pointer, or the error that kept it from opening.
using GroupStorage = std::function<Result<storage::Storage*>(uint32_t group)>;

/// Builds node `id`. With `group_storage` set, every hosted replica
/// recovers from its group's storage in its constructor, the same path
/// a restarted node takes. Fails on a sharded EPaxos or Ring node,
/// storage under EPaxos, an empty cluster, or a storage error.
Result<std::unique_ptr<Actor>> BuildNode(
    const ReplicaConfig& config, NodeId id,
    const GroupStorage& group_storage = {});

}  // namespace pig::harness
