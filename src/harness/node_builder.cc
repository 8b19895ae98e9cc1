#include "harness/node_builder.h"

#include <algorithm>

#include "baselines/ring_replica.h"
#include "epaxos/replica.h"
#include "pigpaxos/replica.h"
#include "shard/sharded_node.h"

namespace pig::harness {

std::string ProtocolName(Protocol p) {
  static const char* const kNames[] = {"Paxos", "PigPaxos", "EPaxos", "Ring"};
  return kNames[static_cast<int>(p)];
}

int WanRegionOfNode(NodeId node, size_t num_replicas) {
  const size_t per_region = (num_replicas + 2) / 3;
  return static_cast<int>(std::min<size_t>(node / per_region, 2));
}

namespace {

/// One consensus-group replica of a leader-based protocol.
std::unique_ptr<Actor> BuildGroupReplica(const ReplicaConfig& config,
                                         NodeId id, uint32_t group,
                                         storage::Storage* store) {
  paxos::PaxosOptions opt;
  opt.num_replicas = config.num_replicas;
  // Leader spreading: group g bootstraps its leader on node g % N.
  opt.bootstrap_leader = static_cast<NodeId>(group % config.num_replicas);
  if (config.flexible_q1 > 0 && config.flexible_q2 > 0) {
    opt.quorum = std::make_shared<FlexibleQuorum>(
        config.num_replicas, config.flexible_q1, config.flexible_q2);
  }
  opt.batch_size = config.batch_size;
  opt.batch_timeout = config.batch_timeout;
  opt.pipeline_depth = config.pipeline_depth;
  opt.compaction_window = config.compaction_window;
  opt.snapshot_interval = config.snapshot_interval;
  opt.storage = store;
  if (config.protocol == Protocol::kRing) {
    baselines::RingOptions ring;
    ring.paxos = std::move(opt);
    ring.ring_ack_timeout = config.ring_ack_timeout;
    return std::make_unique<baselines::RingReplica>(id, std::move(ring));
  }
  if (config.protocol != Protocol::kPigPaxos) {
    return std::make_unique<paxos::PaxosReplica>(id, std::move(opt));
  }
  pigpaxos::PigPaxosOptions pig;
  pig.paxos = std::move(opt);
  pig.num_relay_groups = config.relay_groups;
  pig.group_overlap = config.group_overlap;
  pig.relay_timeout = config.relay_timeout;
  pig.group_response_threshold = config.group_response_threshold;
  pig.relay_layers = config.relay_layers;
  pig.reshuffle_interval = config.reshuffle_interval;
  pig.uplink_coalesce_max = config.uplink_coalesce_max;
  pig.uplink_flush_delay = config.uplink_flush_delay;
  if (config.topology == Topology::kWanVaCaOr && config.region_grouping) {
    // One relay group per region (§6.4).
    pig.grouping = pigpaxos::GroupingStrategy::kRegion;
    const size_t n = config.num_replicas;
    pig.region_of = [n](NodeId node) { return WanRegionOfNode(node, n); };
  }
  return std::make_unique<pigpaxos::PigPaxosReplica>(id, std::move(pig));
}

}  // namespace

Result<std::unique_ptr<Actor>> BuildNode(
    const ReplicaConfig& config, NodeId id,
    const GroupStorage& group_storage) {
  if (config.num_replicas == 0) {
    return Status::InvalidArgument("a cluster needs at least one replica");
  }
  // Sharding multiplexes leader-based groups; EPaxos and the ring have
  // their own scaling story and stay single-group.
  const size_t num_groups = std::max<size_t>(1, config.num_groups);
  if (num_groups > 1 && (config.protocol == Protocol::kEPaxos ||
                         config.protocol == Protocol::kRing)) {
    return Status::InvalidArgument(
        "sharded nodes (num_groups > 1) support only Paxos and PigPaxos, "
        "not " + ProtocolName(config.protocol));
  }
  if (config.protocol == Protocol::kEPaxos) {
    if (group_storage) {
      return Status::InvalidArgument(
          "EPaxos has no durable storage; run it memory-only");
    }
    epaxos::EPaxosOptions opt;
    opt.num_replicas = config.num_replicas;
    opt.retry_interval = config.epaxos_retry_interval;
    opt.commit_rebroadcasts = config.epaxos_commit_rebroadcasts;
    return std::unique_ptr<Actor>(
        std::make_unique<epaxos::EPaxosReplica>(id, opt));
  }
  std::unique_ptr<shard::ShardedNode> sharded;
  if (num_groups > 1) {
    sharded = std::make_unique<shard::ShardedNode>(num_groups);
  }
  for (uint32_t g = 0; g < num_groups; ++g) {
    storage::Storage* store = nullptr;
    if (group_storage) {
      Result<storage::Storage*> opened = group_storage(g);
      if (!opened.ok()) return opened.status();
      store = opened.value();
    }
    std::unique_ptr<Actor> replica = BuildGroupReplica(config, id, g, store);
    if (sharded == nullptr) return replica;
    sharded->AddGroup(std::move(replica));
  }
  return std::unique_ptr<Actor>(std::move(sharded));
}

}  // namespace pig::harness
