// Linearizability tests: the checker itself, then live histories
// recorded against Paxos, PigPaxos, and EPaxos clusters under concurrent
// conflicting clients.
#include <gtest/gtest.h>

#include "harness/node_builder.h"
#include "history_client.h"
#include "linearizability.h"
#include "test_util.h"

namespace pig::test {
namespace {

// --- Checker unit tests -------------------------------------------------

HistoryOp Write(NodeId c, const std::string& k, const std::string& v,
                TimeNs inv, TimeNs comp) {
  return HistoryOp{c, false, k, v, inv, comp};
}
HistoryOp Read(NodeId c, const std::string& k, const std::string& v,
               TimeNs inv, TimeNs comp) {
  return HistoryOp{c, true, k, v, inv, comp};
}

TEST(LinearizabilityCheckerTest, AcceptsSequentialHistory) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 0, 10),
      Read(2, "x", "a", 20, 30),
      Write(1, "x", "b", 40, 50),
      Read(2, "x", "b", 60, 70),
  };
  EXPECT_EQ(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, AcceptsConcurrentEitherOrder) {
  // Read overlaps the write: both old and new value are linearizable.
  std::vector<HistoryOp> old_value = {
      Write(1, "x", "a", 0, 10),
      Write(1, "x", "b", 20, 40),
      Read(2, "x", "a", 25, 35),
  };
  EXPECT_EQ(CheckLinearizability(old_value), "");
  std::vector<HistoryOp> new_value = {
      Write(1, "x", "a", 0, 10),
      Write(1, "x", "b", 20, 40),
      Read(2, "x", "b", 25, 35),
  };
  EXPECT_EQ(CheckLinearizability(new_value), "");
}

TEST(LinearizabilityCheckerTest, RejectsStaleRead) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 0, 10),
      Write(1, "x", "b", 20, 30),   // strictly after "a"
      Read(2, "x", "a", 40, 50),    // strictly after "b": stale!
  };
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, RejectsFutureRead) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 50, 60),
      Read(2, "x", "a", 0, 10),  // completed before the write existed
  };
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, RejectsPhantomValue) {
  std::vector<HistoryOp> h = {Read(2, "x", "ghost", 0, 10)};
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, RejectsStaleInitialRead) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 0, 10),
      Read(2, "x", "", 20, 30),  // initial value after a completed write
  };
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, AcceptsInitialReadBeforeWrites) {
  std::vector<HistoryOp> h = {
      Read(2, "x", "", 0, 5),
      Write(1, "x", "a", 10, 20),
  };
  EXPECT_EQ(CheckLinearizability(h), "");
}

// --- Live histories -----------------------------------------------------

std::vector<HistoryOp> RecordHistory(harness::Protocol proto,
                                     uint64_t seed) {
  sim::ClusterOptions copt;
  copt.seed = seed;
  sim::Cluster cluster(copt);
  constexpr size_t kNodes = 5;
  harness::ReplicaConfig rcfg;
  rcfg.protocol = proto;
  rcfg.num_replicas = kNodes;
  for (NodeId i = 0; i < kNodes; ++i) {
    cluster.AddReplica(i, harness::BuildNode(rcfg, i).MoveValue());
  }
  std::vector<HistoryClient*> clients;
  for (uint32_t c = 0; c < 6; ++c) {
    HistoryClient::Config ccfg;
    ccfg.num_replicas = kNodes;
    ccfg.num_keys = 2;  // a tiny hot keyspace keeps clients conflicting
    ccfg.index = c;
    ccfg.targeting = proto == harness::Protocol::kEPaxos
                         ? HistoryClient::Targeting::kRandomPerSend
                         : HistoryClient::Targeting::kLeader;
    auto client = std::make_unique<HistoryClient>(ccfg);
    clients.push_back(client.get());
    cluster.AddClient(sim::Cluster::MakeClientId(c), std::move(client));
  }
  cluster.Start();
  cluster.RunFor(3 * kSecond);
  std::vector<HistoryOp> history;
  for (const HistoryClient* c : clients) {
    history.insert(history.end(), c->history.begin(), c->history.end());
  }
  return history;
}

class LiveLinearizabilityTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(LiveLinearizabilityTest, HistoryIsLinearizable) {
  auto [proto_int, seed] = GetParam();
  auto history =
      RecordHistory(static_cast<harness::Protocol>(proto_int), seed);
  ASSERT_GT(history.size(), 500u) << "not enough completions recorded";
  EXPECT_EQ(CheckLinearizability(history), "");
}

std::string LiveCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
  return harness::ProtocolName(
             static_cast<harness::Protocol>(std::get<0>(info.param))) +
         "Seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, LiveLinearizabilityTest,
    ::testing::Values(std::make_tuple(0, 101ull), std::make_tuple(0, 102ull),
                      std::make_tuple(1, 101ull), std::make_tuple(1, 102ull),
                      std::make_tuple(1, 103ull), std::make_tuple(2, 101ull),
                      std::make_tuple(2, 102ull)),
    LiveCaseName);

}  // namespace
}  // namespace pig::test
