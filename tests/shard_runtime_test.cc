// Sharded runtime integration: ShardedNode + SyncClient over the TCP
// runtime in one process, with full envelope encode/decode on every hop.
// Uses the pig_node --num-groups node assembly (harness::BuildNode);
// run_tcp_cluster.sh --groups runs the same assembly as separate
// processes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "harness/node_builder.h"
#include "paxos/replica.h"
#include "pigpaxos/messages.h"
#include "runtime/sync_client.h"
#include "runtime/tcp_cluster.h"
#include "shard/messages.h"
#include "shard/router.h"
#include "shard/sharded_node.h"

namespace pig {
namespace {

constexpr size_t kNodes = 5;
constexpr uint32_t kGroups = 4;

class ShardRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pigpaxos::RegisterPigPaxosMessages();  // registers paxos+common too
    shard::RegisterShardMessages();
  }

  /// One ShardedNode hosting kGroups PigPaxos replicas, leader of group
  /// g bootstrapped on node g % kNodes — the pig_node assembly.
  static std::unique_ptr<Actor> MakeNode(NodeId id) {
    harness::ReplicaConfig cfg;
    cfg.protocol = harness::Protocol::kPigPaxos;
    cfg.num_replicas = kNodes;
    cfg.num_groups = kGroups;
    return harness::BuildNode(cfg, id).MoveValue();
  }
};

TEST_F(ShardRuntimeTest, ShardedPutGetOverTcp) {
  runtime::TcpCluster cluster(/*seed=*/7);
  for (NodeId i = 0; i < kNodes; ++i) {
    cluster.AddActor(i, MakeNode(i));
  }
  auto client = std::make_unique<runtime::SyncClient>(
      kNodes, kGroups);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  // Enough distinct keys that every group serves traffic.
  std::map<uint32_t, int> per_group;
  for (int i = 0; i < 24; ++i) {
    const std::string key = "shard-key-" + std::to_string(i);
    per_group[shard::GroupOfKey(key, kGroups)]++;
    Result<std::string> put =
        kv->Execute(OpType::kPut, key, "v" + std::to_string(i));
    ASSERT_TRUE(put.ok()) << key << ": " << put.status().ToString();
  }
  ASSERT_EQ(per_group.size(), kGroups) << "keys missed a group";

  for (int i = 0; i < 24; ++i) {
    const std::string key = "shard-key-" + std::to_string(i);
    Result<std::string> get = kv->Execute(OpType::kGet, key, "");
    ASSERT_TRUE(get.ok()) << key << ": " << get.status().ToString();
    EXPECT_EQ(get.value(), "v" + std::to_string(i));
  }
  cluster.Stop();

  // Each group's store holds exactly its own keys: the partition held
  // end to end, not just at the router.
  for (NodeId i = 0; i < kNodes; ++i) {
    auto* node = static_cast<shard::ShardedNode*>(cluster.actor(i));
    ASSERT_EQ(node->num_groups(), kGroups);
    for (uint32_t g = 0; g < kGroups; ++g) {
      const auto* rep = static_cast<const paxos::PaxosReplica*>(
          node->group_actor(g));
      for (const auto& [key, value] : rep->store().Dump()) {
        EXPECT_EQ(shard::GroupOfKey(key, kGroups), g)
            << "node " << i << " group " << g << " holds foreign key "
            << key;
      }
    }
  }
}

}  // namespace
}  // namespace pig
