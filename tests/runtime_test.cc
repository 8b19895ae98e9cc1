// Integration tests for the wall-clock runtime (TcpCluster, all nodes in
// one process over loopback sockets): full encode/decode on every hop,
// wall-clock timers, concurrent clients, all three protocols.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "epaxos/messages.h"
#include "epaxos/replica.h"
#include "paxos/replica.h"
#include "pigpaxos/messages.h"
#include "pigpaxos/replica.h"
#include "runtime/event_loop.h"
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

// --- EventLoop timer table ------------------------------------------------
// The loop is driven by hand: StartActor arms the timers, a sleep makes
// them all due, and one FireDueTimers pass runs them.

class NullTransport final : public runtime::Transport {
 public:
  void Send(NodeId, NodeId, MessagePtr) override {}
};

/// Arms timers from OnStart through its Env, like a protocol replica.
class TimerActor final : public Actor {
 public:
  explicit TimerActor(std::function<void(Env*)> on_start)
      : on_start_(std::move(on_start)) {}
  void OnStart() override { on_start_(env_); }
  void OnMessage(NodeId, const MessagePtr&) override {}

 private:
  std::function<void(Env*)> on_start_;
};

class EventLoopTimerTest : public ::testing::Test {
 protected:
  std::unique_ptr<runtime::EventLoop> MakeLoop(
      std::function<void(Env*)> on_start) {
    auto loop = std::make_unique<runtime::EventLoop>(
        0, std::make_unique<TimerActor>(std::move(on_start)), &transport_,
        &clock_, /*seed=*/1);
    loop->StartActor();
    return loop;
  }

  static void SleepUntilDue() {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  NullTransport transport_;
  runtime::WallClock clock_;
};

TEST_F(EventLoopTimerTest, DueTimersFireInDeadlineOrder) {
  std::vector<int> fired;
  auto loop = MakeLoop([&](Env* env) {
    env->SetTimer(3 * kMillisecond, [&] { fired.push_back(3); });
    env->SetTimer(1 * kMillisecond, [&] { fired.push_back(1); });
    env->SetTimer(2 * kMillisecond, [&] { fired.push_back(2); });
  });
  SleepUntilDue();
  EXPECT_TRUE(loop->FireDueTimers());
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop->NextTimerDeadline(), -1);
}

TEST_F(EventLoopTimerTest, EqualDeadlinesFireInArmOrder) {
  std::vector<int> fired;
  auto loop = MakeLoop([](Env*) {});
  const TimeNs at = loop->Now() + kMillisecond;
  for (int i = 0; i < 4; ++i) {
    loop->SetTimerAt(at, [&fired, i] { fired.push_back(i); });
  }
  SleepUntilDue();
  EXPECT_TRUE(loop->FireDueTimers());
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(EventLoopTimerTest, CallbackCancelsDueSibling) {
  std::vector<int> fired;
  TimerId sibling = kInvalidTimer;
  auto loop = MakeLoop([&](Env* env) {
    env->SetTimer(1 * kMillisecond, [&fired, &sibling, env] {
      fired.push_back(1);
      env->CancelTimer(sibling);
    });
    sibling = env->SetTimer(2 * kMillisecond, [&] { fired.push_back(2); });
  });
  SleepUntilDue();
  EXPECT_TRUE(loop->FireDueTimers());
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(loop->NextTimerDeadline(), -1);
}

TEST_F(EventLoopTimerTest, CancelAfterFireLeavesReusedSlotAlone) {
  std::vector<int> fired;
  TimerId first = kInvalidTimer;
  auto loop = MakeLoop([&](Env* env) {
    first = env->SetTimer(kMillisecond, [&] { fired.push_back(1); });
  });
  SleepUntilDue();
  EXPECT_TRUE(loop->FireDueTimers());
  Env* env = loop->actor()->env();
  // Reuses the slot the fired timer just freed.
  const TimerId second =
      env->SetTimer(kMillisecond, [&] { fired.push_back(2); });
  EXPECT_NE(second, kInvalidTimer);
  EXPECT_NE(second, first);
  env->CancelTimer(first);  // stale id: must not touch `second`
  SleepUntilDue();
  EXPECT_TRUE(loop->FireDueTimers());
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST_F(EventLoopTimerTest, NextDeadlineClearsWhenOnlyTimerIsCanceled) {
  TimerId id = kInvalidTimer;
  auto loop = MakeLoop(
      [&](Env* env) { id = env->SetTimer(kSecond, [] {}); });
  EXPECT_GE(loop->NextTimerDeadline(), kSecond);
  loop->actor()->env()->CancelTimer(id);
  EXPECT_EQ(loop->NextTimerDeadline(), -1);
  EXPECT_FALSE(loop->FireDueTimers());
}

}  // namespace
}  // namespace pig
