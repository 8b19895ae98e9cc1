// Integration tests for the wall-clock runtime (TcpCluster, all nodes in
// one process over loopback sockets): full encode/decode on every hop
// between nodes, wall-clock timers and self-sends through a node's Env,
// concurrent clients, all three protocols.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "consensus/client_messages.h"
#include "epaxos/messages.h"
#include "epaxos/replica.h"
#include "paxos/replica.h"
#include "pigpaxos/messages.h"
#include "pigpaxos/replica.h"
#include "runtime/sync_client.h"
#include "runtime/tcp_cluster.h"

namespace pig {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pigpaxos::RegisterPigPaxosMessages();  // registers paxos+common too
    epaxos::RegisterEPaxosMessages();
  }
};

TEST_F(RuntimeTest, PaxosPutGetOverTcp) {
  runtime::TcpCluster cluster(/*seed=*/1);
  paxos::PaxosOptions opt;
  opt.num_replicas = 3;
  for (NodeId i = 0; i < 3; ++i) {
    cluster.AddActor(i, std::make_unique<paxos::PaxosReplica>(i, opt));
  }
  auto client = std::make_unique<runtime::SyncClient>(3);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  Result<std::string> put = kv->Execute(OpType::kPut, "alpha", "1");
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  Result<std::string> get = kv->Execute(OpType::kGet, "alpha", "");
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(get.value(), "1");
  cluster.Stop();
}

TEST_F(RuntimeTest, PigPaxosPutGetOverTcp) {
  runtime::TcpCluster cluster(/*seed=*/2);
  pigpaxos::PigPaxosOptions opt;
  opt.paxos.num_replicas = 5;
  opt.num_relay_groups = 2;
  for (NodeId i = 0; i < 5; ++i) {
    cluster.AddActor(i,
                     std::make_unique<pigpaxos::PigPaxosReplica>(i, opt));
  }
  auto client = std::make_unique<runtime::SyncClient>(5);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  for (int i = 0; i < 10; ++i) {
    std::string key = "key" + std::to_string(i);
    Result<std::string> put = kv->Execute(OpType::kPut, key, "v");
    ASSERT_TRUE(put.ok()) << put.status().ToString();
  }
  Result<std::string> get = kv->Execute(OpType::kGet, "key9", "");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value(), "v");
  cluster.Stop();

  // The relay layer really ran.
  uint64_t relays = 0;
  for (NodeId i = 1; i < 5; ++i) {
    relays += static_cast<const pigpaxos::PigPaxosReplica*>(
                  cluster.actor(i))
                  ->relay_metrics()
                  .relays_served;
  }
  EXPECT_GT(relays, 0u);
}

TEST_F(RuntimeTest, EPaxosPutGetOverTcp) {
  runtime::TcpCluster cluster(/*seed=*/3);
  epaxos::EPaxosOptions opt;
  opt.num_replicas = 3;
  for (NodeId i = 0; i < 3; ++i) {
    cluster.AddActor(i, std::make_unique<epaxos::EPaxosReplica>(i, opt));
  }
  auto client = std::make_unique<runtime::SyncClient>(3);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  ASSERT_TRUE(kv->Execute(OpType::kPut, "e", "paxos").ok());
  Result<std::string> get = kv->Execute(OpType::kGet, "e", "");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value(), "paxos");
  cluster.Stop();
}

TEST_F(RuntimeTest, RedirectsFollowedAcrossNodes) {
  runtime::TcpCluster cluster(/*seed=*/4);
  paxos::PaxosOptions opt;
  opt.num_replicas = 3;
  // SyncClient starts by contacting node 0, a follower here: the write
  // only lands if the client follows node 0's NotLeader hint to node 2.
  opt.bootstrap_leader = 2;
  for (NodeId i = 0; i < 3; ++i) {
    cluster.AddActor(i, std::make_unique<paxos::PaxosReplica>(i, opt));
  }
  auto client = std::make_unique<runtime::SyncClient>(3);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();
  ASSERT_TRUE(kv->Execute(OpType::kPut, "r", "1").ok());
  cluster.Stop();

  const auto* follower =
      static_cast<const paxos::PaxosReplica*>(cluster.actor(0));
  EXPECT_GE(follower->metrics().redirects, 1u);
}

TEST_F(RuntimeTest, ConcurrentClientsSerialize) {
  runtime::TcpCluster cluster(/*seed=*/5);
  paxos::PaxosOptions opt;
  opt.num_replicas = 3;
  for (NodeId i = 0; i < 3; ++i) {
    cluster.AddActor(i, std::make_unique<paxos::PaxosReplica>(i, opt));
  }
  constexpr int kClients = 4;
  runtime::SyncClient* clients[kClients];
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<runtime::SyncClient>(3);
    clients[c] = client.get();
    cluster.AddActor(kFirstClientId + static_cast<NodeId>(c),
                     std::move(client));
  }
  cluster.Start();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      for (int i = 0; i < 10; ++i) {
        std::string key = "c" + std::to_string(c) + "-" + std::to_string(i);
        if (!clients[c]->Execute(OpType::kPut, key, "x").ok()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // All 40 writes landed.
  Result<std::string> final =
      clients[0]->Execute(OpType::kGet, "c3-9", "");
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(final.value(), "x");
  cluster.Stop();

  const auto* leader =
      static_cast<const paxos::PaxosReplica*>(cluster.actor(0));
  EXPECT_GE(leader->metrics().executions, 40u);
}

TEST_F(RuntimeTest, CrashedLeaderRedirectReprobes) {
  // Regression: SyncClient used to trust stale NotLeader hints forever.
  // With the bootstrap leader killed, followers keep redirecting to node
  // 0 until a new leader is elected; the client must treat the silent
  // node as suspect, keep probing the survivors, and eventually land on
  // the new leader instead of bouncing to the corpse until timeout.
  runtime::TcpCluster cluster(/*seed=*/7);
  paxos::PaxosOptions opt;
  opt.num_replicas = 3;
  for (NodeId i = 0; i < 3; ++i) {
    cluster.AddActor(i, std::make_unique<paxos::PaxosReplica>(i, opt));
  }
  auto client = std::make_unique<runtime::SyncClient>(3);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  // Establish node 0's leadership with a successful write, then kill it.
  ASSERT_TRUE(kv->Execute(OpType::kPut, "pre", "1").ok());
  cluster.StopNode(0);

  // Must succeed once a survivor wins the election (election timeout is
  // 200-400 ms; 10 s is generous slack, not the expected duration).
  Result<std::string> put =
      kv->Execute(OpType::kPut, "post", "2", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  Result<std::string> get =
      kv->Execute(OpType::kGet, "post", "", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value(), "2");
  cluster.Stop();
}

TEST_F(RuntimeTest, RestartedNodeRejoins) {
  // StopNode + RestartNode: a fresh replica in an old slot recovers via
  // the protocol (LogSync) and the cluster keeps serving.
  runtime::TcpCluster cluster(/*seed=*/8);
  paxos::PaxosOptions opt;
  opt.num_replicas = 3;
  for (NodeId i = 0; i < 3; ++i) {
    cluster.AddActor(i, std::make_unique<paxos::PaxosReplica>(i, opt));
  }
  auto client = std::make_unique<runtime::SyncClient>(3);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  ASSERT_TRUE(kv->Execute(OpType::kPut, "a", "1").ok());
  cluster.StopNode(2);
  ASSERT_TRUE(kv->Execute(OpType::kPut, "b", "2").ok());
  cluster.RestartNode(2, std::make_unique<paxos::PaxosReplica>(2, opt));
  Result<std::string> put =
      kv->Execute(OpType::kPut, "c", "3", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  Result<std::string> get = kv->Execute(OpType::kGet, "c", "");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value(), "3");
  cluster.Stop();
}

TEST_F(RuntimeTest, StopIsIdempotentAndDestructorSafe) {
  auto cluster = std::make_unique<runtime::TcpCluster>(6);
  paxos::PaxosOptions opt;
  opt.num_replicas = 1;
  cluster->AddActor(0, std::make_unique<paxos::PaxosReplica>(0, opt));
  cluster->Start();
  cluster->Stop();
  cluster->Stop();  // no-op
  cluster.reset();  // destructor after Stop: no crash
}

// --- TcpNode as Env ------------------------------------------------------
// One actor alone on a TcpCluster: its hooks run on the node's loop
// thread and record into test-local state, read after Stop() has joined
// that thread.

/// Runs the test's hooks from OnStart and OnMessage, like a replica.
class ProbeActor final : public Actor {
 public:
  using StartFn = std::function<void(Env*)>;
  using MessageFn = std::function<void(NodeId, const MessagePtr&)>;

  ProbeActor(StartFn on_start, MessageFn on_message)
      : on_start_(std::move(on_start)), on_message_(std::move(on_message)) {}
  void OnStart() override { on_start_(env_); }
  void OnMessage(NodeId from, const MessagePtr& msg) override {
    if (on_message_) on_message_(from, msg);
  }

 private:
  StartFn on_start_;
  MessageFn on_message_;
};

/// Hosts one ProbeActor as node 0 until a hook raises `done` (or 5 s
/// pass), then stops the cluster.
void RunAlone(std::atomic<bool>& done, ProbeActor::StartFn on_start,
              ProbeActor::MessageFn on_message = {}) {
  runtime::TcpCluster cluster(/*seed=*/9);
  cluster.AddActor(0, std::make_unique<ProbeActor>(std::move(on_start),
                                                   std::move(on_message)));
  cluster.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.Stop();
  EXPECT_TRUE(done.load()) << "scenario did not finish within 5 s";
}

TEST_F(RuntimeTest, EnvTimersFireInDeadlineOrder) {
  std::vector<int> fired;
  std::atomic<bool> done{false};
  RunAlone(done, [&](Env* env) {
    env->SetTimer(3 * kMillisecond, [&] {
      fired.push_back(3);
      done = true;
    });
    env->SetTimer(1 * kMillisecond, [&] { fired.push_back(1); });
    env->SetTimer(2 * kMillisecond, [&] { fired.push_back(2); });
  });
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST_F(RuntimeTest, EnvTimerCallbackCancelsDueSibling) {
  std::vector<int> fired;
  std::atomic<bool> done{false};
  TimerId sibling = kInvalidTimer;
  RunAlone(done, [&](Env* env) {
    env->SetTimer(1 * kMillisecond, [&fired, &sibling, env] {
      fired.push_back(1);
      env->CancelTimer(sibling);
    });
    sibling = env->SetTimer(2 * kMillisecond, [&] { fired.push_back(2); });
    env->SetTimer(20 * kMillisecond, [&] {
      fired.push_back(3);
      done = true;
    });
    // Both deadlines pass before the loop's first timer pass, so the
    // sibling is already due when it is canceled.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST_F(RuntimeTest, EnvStaleCancelLeavesReusedTimerSlotAlone) {
  std::vector<int> fired;
  std::atomic<bool> done{false};
  TimerId first = kInvalidTimer;
  TimerId second = kInvalidTimer;
  RunAlone(done, [&](Env* env) {
    first = env->SetTimer(kMillisecond, [&, env] {
      fired.push_back(1);
      // Reuses the slot the firing timer has just freed.
      second = env->SetTimer(kMillisecond, [&] {
        fired.push_back(2);
        done = true;
      });
      env->CancelTimer(first);  // stale id: must not touch `second`
    });
  });
  EXPECT_NE(second, kInvalidTimer);
  EXPECT_NE(second, first);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST_F(RuntimeTest, SelfSendsArriveOnceAfterTheSenderReturns) {
  auto numbered = [](uint64_t seq) {
    auto msg = std::make_shared<ClientReply>();
    msg->seq = seq;
    return msg;
  };
  bool in_handler = false;
  int deliveries_inside_handler = 0;
  std::vector<std::pair<NodeId, uint64_t>> got;  // (from, seq)
  std::atomic<bool> done{false};
  RunAlone(
      done,
      [&](Env* env) {
        in_handler = true;
        env->Send(env->self(), numbered(1));
        env->SetTimer(kMillisecond, [&, env] {
          in_handler = true;
          env->Send(env->self(), numbered(2));
          in_handler = false;
        });
        // Late enough that a duplicate delivery would have landed.
        env->SetTimer(30 * kMillisecond, [&] { done = true; });
        in_handler = false;
      },
      [&](NodeId from, const MessagePtr& msg) {
        if (in_handler) deliveries_inside_handler++;
        got.emplace_back(from, static_cast<const ClientReply&>(*msg).seq);
      });
  EXPECT_EQ(deliveries_inside_handler, 0);
  EXPECT_EQ(got, (std::vector<std::pair<NodeId, uint64_t>>{{0, 1}, {0, 2}}));
}

}  // namespace
}  // namespace pig
