// End-to-end tests of a PigPaxos cluster on the TCP runtime, all nodes
// in one process over loopback sockets: the exact replicated state of a
// fault-free workload, relay liveness at startup and under relay
// crashes, and durable restart from disk.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pigpaxos/messages.h"
#include "pigpaxos/replica.h"
#include "runtime/sync_client.h"
#include "runtime/tcp_cluster.h"
#include "storage/file_storage.h"

namespace pig {
namespace {

using runtime::TcpCluster;

constexpr int kOps = 15;
constexpr NodeId kReplicas = 5;

pigpaxos::PigPaxosOptions MakeOptions() {
  pigpaxos::PigPaxosOptions opt;
  opt.paxos.num_replicas = kReplicas;
  opt.num_relay_groups = 2;
  return opt;
}

std::unique_ptr<Actor> MakeReplica(NodeId id) {
  return std::make_unique<pigpaxos::PigPaxosReplica>(id, MakeOptions());
}

const pigpaxos::PigPaxosReplica* Replica(TcpCluster& cluster, NodeId id) {
  return static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(id));
}

class TcpRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { pigpaxos::RegisterPigPaxosMessages(); }

  /// Hosts kReplicas PigPaxos replicas plus one SyncClient in `cluster`
  /// and starts it; returns the client.
  static runtime::SyncClient* StartCluster(TcpCluster& cluster) {
    for (NodeId i = 0; i < kReplicas; ++i) {
      cluster.AddActor(i, MakeReplica(i));
    }
    auto client = std::make_unique<runtime::SyncClient>(kReplicas);
    runtime::SyncClient* kv = client.get();
    cluster.AddActor(kFirstClientId, std::move(client));
    cluster.Start();
    return kv;
  }
};

TEST_F(TcpRuntimeTest, FaultFreeWorkloadAppliesExactWriteSet) {
  TcpCluster cluster(/*seed=*/11);
  runtime::SyncClient* kv = StartCluster(cluster);

  std::map<std::string, std::string> expected;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "eq-k" + std::to_string(i);
    std::string value = "v" + std::to_string(i);
    Result<std::string> put =
        kv->Execute(OpType::kPut, key, value, /*timeout=*/10 * kSecond);
    EXPECT_TRUE(put.ok()) << "put " << i << ": " << put.status().ToString();
    expected[key] = value;
  }
  // Let commit-index propagation (heartbeats every 20 ms) reach the
  // followers before freezing the cluster; dumps are read after Stop,
  // when the loops are quiescent.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  cluster.Stop();

  // The leader (node 0 stays leader: nothing crashes) holds the full
  // write set.
  EXPECT_EQ(Replica(cluster, 0)->store().Dump(), expected);

  // Every replica agrees with the write set on the keys it has applied,
  // each applied exactly once: no lost, reordered, duplicated or phantom
  // values anywhere.
  for (NodeId node = 0; node < kReplicas; ++node) {
    const auto* replica = Replica(cluster, node);
    for (const auto& [key, value] : replica->store().Dump()) {
      auto it = expected.find(key);
      ASSERT_NE(it, expected.end())
          << "node " << node << " applied phantom key " << key;
      EXPECT_EQ(value, it->second) << "node " << node;
      EXPECT_EQ(replica->store().VersionOf(key), 1u)
          << "node " << node << " key " << key;
    }
  }
}

// Regression: a driver that started its nodes one at a time dropped the
// frames sent to nodes not yet running, so the bootstrap leader's first
// relay round could vanish and a live relay was suspected for seconds.
// Every node must be reachable from the leader's first send on.
TEST_F(TcpRuntimeTest, HealthyClusterSuspectsNoRelay) {
  TcpCluster cluster(/*seed=*/13);
  runtime::SyncClient* kv = StartCluster(cluster);

  Result<std::string> put =
      kv->Execute(OpType::kPut, "k", "v", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  cluster.Stop();

  EXPECT_EQ(Replica(cluster, 0)->relay_metrics().relays_suspected, 0u);
}

TEST_F(TcpRuntimeTest, SurvivesKilledAndRestartedRelay) {
  TcpCluster cluster(/*seed=*/13);
  runtime::SyncClient* kv = StartCluster(cluster);

  auto put = [&](const std::string& key) {
    Result<std::string> r =
        kv->Execute(OpType::kPut, key, "x", /*timeout=*/10 * kSecond);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  };

  put("before");
  // The relay groups are {1, 2} and {3, 4}. With one member of each
  // down, nodes 0, 1 and 4 are exactly a quorum, so every commit needs a
  // vote through both groups: a round relayed via a dead node must time
  // out, get its relay suspected, and be retried through the survivor.
  cluster.StopNode(2);
  cluster.StopNode(3);
  for (int i = 0; i < 10; ++i) put("during-" + std::to_string(i));

  cluster.RestartNode(2, MakeReplica(2));
  cluster.RestartNode(3, MakeReplica(3));
  put("after");

  Result<std::string> get =
      kv->Execute(OpType::kGet, "after", "", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value(), "x");
  cluster.Stop();

  // Replica state is read after Stop, when the loops are quiescent. The
  // relay fallback kept node 0 in office: it suspected a dead relay
  // rather than losing the quorum and an election.
  const auto* leader = Replica(cluster, 0);
  EXPECT_TRUE(leader->IsLeader());
  EXPECT_GE(leader->relay_metrics().relays_suspected, 1u);

  // The leader holds every write exactly once.
  std::vector<std::string> keys = {"before", "after"};
  for (int i = 0; i < 10; ++i) keys.push_back("during-" + std::to_string(i));
  for (const std::string& key : keys) {
    EXPECT_EQ(leader->store().Get(key), "x") << key;
    EXPECT_EQ(leader->store().VersionOf(key), 1u) << key;
  }
}

// The durability acceptance test: a replica backed by FileStorage is
// killed (thread stopped, unsynced state gone with the process) and a
// fresh actor is rebuilt over the SAME data directory. Its constructor
// must recover the committed prefix from snapshot + WAL — observable as
// replayed records — and only the writes made while it was down arrive
// from peers, after which its store equals the leader's byte for byte.
TEST_F(TcpRuntimeTest, DurableRestartRecoversCommittedPrefixFromDisk) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("pig_durable_restart_" + std::to_string(::getpid()));
  fs::remove_all(root);

  std::vector<std::unique_ptr<storage::FileStorage>> stores(kReplicas);
  auto make_durable = [&](NodeId id) -> std::unique_ptr<Actor> {
    stores[id] = std::make_unique<storage::FileStorage>(
        (root / ("node-" + std::to_string(id))).string());
    EXPECT_TRUE(stores[id]->ok())
        << stores[id]->open_error().ToString();
    pigpaxos::PigPaxosOptions opt = MakeOptions();
    opt.paxos.storage = stores[id].get();
    opt.paxos.snapshot_interval = 8;  // exercise snapshot + WAL suffix
    return std::make_unique<pigpaxos::PigPaxosReplica>(id, opt);
  };

  TcpCluster cluster(/*seed=*/17);
  for (NodeId i = 0; i < kReplicas; ++i) {
    cluster.AddActor(i, make_durable(i));
  }
  auto client = std::make_unique<runtime::SyncClient>(kReplicas);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  auto put = [&](const std::string& key, const std::string& value) {
    Result<std::string> r =
        kv->Execute(OpType::kPut, key, value, /*timeout=*/10 * kSecond);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  };

  for (int i = 0; i < 20; ++i) {
    put("pre-k" + std::to_string(i), "v" + std::to_string(i));
  }
  // Let heartbeats carry the commit index to node 3 so its disk holds
  // the committed prefix, then kill it.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.StopNode(3);

  for (int i = 0; i < 5; ++i) {
    put("down-k" + std::to_string(i), "d" + std::to_string(i));
  }

  // kill -9 semantics: the dead incarnation's storage object goes away
  // first, then the replacement opens the same directory and recovers.
  stores[3].reset();
  cluster.RestartNode(3, make_durable(3));

  put("post-k", "p");
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  cluster.Stop();

  const auto* leader = Replica(cluster, 0);
  const auto* rebuilt = Replica(cluster, 3);

  // The prefix came from disk, not from peers.
  EXPECT_GT(rebuilt->metrics().wal_replayed_records, 0u);

  // Store dump equality with the leader, every key exactly once.
  const auto expect = leader->store().Dump();
  EXPECT_EQ(expect.size(), 26u);
  EXPECT_EQ(rebuilt->store().Dump(), expect);
  for (const auto& [key, value] : expect) {
    EXPECT_EQ(rebuilt->store().VersionOf(key), 1u) << key;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace pig
