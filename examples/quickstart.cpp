// Quickstart: a 5-node PigPaxos key-value store on the wall-clock
// runtime, driven by a blocking client.
//
//   $ ./build/quickstart
//
// This exercises the full stack end to end: binary message codec on
// every hop, real loopback TCP sockets between the five in-process
// nodes, relay-tree fan-out/fan-in, leader election, log execution, and
// client redirects — with real threads and wall-clock timers.
#include <cstdio>

#include "pigpaxos/messages.h"
#include "pigpaxos/replica.h"
#include "runtime/sync_client.h"
#include "runtime/tcp_cluster.h"

using namespace pig;

int main() {
  // Every message is decoded from bytes: register the decoders once per
  // process.
  pigpaxos::RegisterPigPaxosMessages();

  constexpr size_t kNodes = 5;
  runtime::TcpCluster cluster(/*seed=*/1);

  // Five replicas, two relay groups (the best small-cluster setting per
  // the paper's Fig. 10).
  pigpaxos::PigPaxosOptions options;
  options.paxos.num_replicas = kNodes;
  options.num_relay_groups = 2;
  for (NodeId id = 0; id < kNodes; ++id) {
    cluster.AddActor(
        id, std::make_unique<pigpaxos::PigPaxosReplica>(id, options));
  }

  // One blocking client.
  auto client = std::make_unique<runtime::SyncClient>(kNodes);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));

  cluster.Start();
  std::printf("5-node PigPaxos cluster started (2 relay groups, tcp)\n");

  // Write a few keys.
  for (int i = 0; i < 5; ++i) {
    std::string key = "user:" + std::to_string(i);
    std::string value = "profile-" + std::to_string(i * 100);
    Result<std::string> r = kv->Execute(OpType::kPut, key, value);
    if (!r.ok()) {
      std::printf("PUT %s failed: %s\n", key.c_str(),
                  r.status().ToString().c_str());
      return 1;
    }
    std::printf("PUT %s = %s\n", key.c_str(), value.c_str());
  }

  // Read them back.
  for (int i = 0; i < 5; ++i) {
    std::string key = "user:" + std::to_string(i);
    Result<std::string> r = kv->Execute(OpType::kGet, key, "");
    if (!r.ok()) {
      std::printf("GET %s failed: %s\n", key.c_str(),
                  r.status().ToString().c_str());
      return 1;
    }
    std::printf("GET %s -> %s\n", key.c_str(), r.value().c_str());
  }

  // Every replica converged on the same state (replication worked).
  cluster.Stop();
  size_t replicated = 0;
  for (NodeId id = 0; id < kNodes; ++id) {
    const auto* rep =
        static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(id));
    if (rep->store().Get("user:4") == "profile-400") replicated++;
  }
  std::printf("replicas holding user:4 after shutdown: %zu/%zu\n",
              replicated, kNodes);
  std::printf("quickstart OK\n");
  return replicated >= kNodes / 2 + 1 ? 0 : 1;
}
