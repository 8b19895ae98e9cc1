// Regression tests for relay-layer fixes: constructor init-order (the
// planner must be built from the moved-into options member), the empty
// final RelayResponse after a relay timeout, vote dedup when
// overlapping groups deliver a follower's response twice, and the
// leader's one-relay-per-group-per-burst choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "pigpaxos/messages.h"
#include "quorum/quorum.h"
#include "test_util.h"

namespace pig::test {
namespace {

using pigpaxos::GroupingStrategy;
using pigpaxos::PigPaxosOptions;
using pigpaxos::PigPaxosReplica;
using pigpaxos::RelayRequest;
using pigpaxos::RelayResponse;

// ---------------------------------------------------------------------------
// Constructor init order: planner_ is initialized after pig_options_ has
// been move-constructed from the `options` parameter, so it must read the
// cluster size through pig_options_. Build replicas (middle id, so the
// follower set is not just a prefix) and check the planner covers every
// other replica exactly once, including with a move-sensitive
// std::function in the options.
TEST(PigRegressionTest, ConstructorBuildsPlannerFromMovedOptions) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 3;
  opt.grouping = GroupingStrategy::kRegion;
  opt.region_of = [](NodeId n) { return static_cast<int>(n / 3); };
  MakePigCluster(cluster, 9, opt);

  for (NodeId id = 0; id < 9; ++id) {
    const auto& planner = PigAt(cluster, id)->planner();
    std::multiset<NodeId> seen;
    for (const auto& g : planner.groups()) seen.insert(g.begin(), g.end());
    std::multiset<NodeId> want;
    for (NodeId n = 0; n < 9; ++n) {
      if (n != id) want.insert(n);
    }
    EXPECT_EQ(seen, want) << "replica " << id;
    EXPECT_EQ(PigAt(cluster, id)->pig_options().paxos.num_replicas, 9u);
  }
}

// ---------------------------------------------------------------------------
// Empty final flush: a relay whose aggregation times out with nothing
// buffered (its own response was a fast-tracked reject, every member is
// dead) must still send an empty RelayResponse with final_batch=true so
// the origin learns the round is over without waiting out its own longer
// relay-ack watch.

class RelayProbe : public Actor {
 public:
  struct Seen {
    uint64_t relay_id;
    bool final_batch;
    size_t num_responses;
    TimeNs at;
  };

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    (void)from;
    if (msg->type() != MsgType::kRelayResponse) return;
    const auto& r = static_cast<const RelayResponse&>(*msg);
    seen.push_back(Seen{r.relay_id, r.final_batch, r.responses.size(),
                        env_->Now()});
  }

  void Inject(NodeId relay, MessagePtr req) {
    env_->Send(relay, std::move(req));
  }

  std::vector<Seen> seen;
};

TEST(PigRegressionTest, TimedOutEmptyAggregationSendsFinalResponse) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.relay_timeout = 20 * kMillisecond;
  opt.paxos.heartbeat_interval = 10 * kSecond;  // silence background
  opt.paxos.election_timeout_min = 20 * kSecond;  // traffic entirely
  opt.paxos.election_timeout_max = 30 * kSecond;
  MakePigCluster(cluster, 5, opt);
  auto probe_owner = std::make_unique<RelayProbe>();
  RelayProbe* probe = probe_owner.get();
  cluster.AddClient(sim::Cluster::MakeClientId(1), std::move(probe_owner));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 5), 0u);

  // Node 1 will relay for two dead members; its own response to the
  // stale-ballot P2a is a reject, which is fast-tracked past the buffer.
  cluster.Crash(3);
  cluster.Crash(4);

  auto p2a = std::make_shared<paxos::P2a>();
  p2a->ballot = Ballot();  // stale: below the elected leader's ballot
  p2a->slot = 0;
  p2a->command = Command::Put("stale", "write", kInvalidNode, 1);
  auto req = std::make_shared<RelayRequest>();
  req->relay_id = 999;
  req->origin = sim::Cluster::MakeClientId(1);
  req->expects_response = true;
  req->members = {3, 4};
  req->inner = std::move(p2a);
  const TimeNs injected_at = cluster.Now();
  probe->Inject(1, std::move(req));
  cluster.RunFor(100 * kMillisecond);

  // First the fast-tracked reject, then — after relay_timeout — the
  // empty final batch closing the round.
  ASSERT_EQ(probe->seen.size(), 2u);
  EXPECT_EQ(probe->seen[0].relay_id, 999u);
  EXPECT_EQ(probe->seen[0].num_responses, 1u);
  EXPECT_FALSE(probe->seen[0].final_batch);  // aggregation still open
  EXPECT_EQ(probe->seen[1].relay_id, 999u);
  EXPECT_TRUE(probe->seen[1].final_batch);
  EXPECT_EQ(probe->seen[1].num_responses, 0u);
  EXPECT_GE(probe->seen[1].at, injected_at + opt.relay_timeout);
  EXPECT_EQ(PigAt(cluster, 1)->relay_metrics().relay_timeouts, 1u);
}

// ---------------------------------------------------------------------------
// early_batches accounting under uplink coalescing: two rounds whose
// threshold-triggered partial flushes coalesce into one RelayBundle must
// count ONE early batch (the metric counts departing uplink messages,
// not aggregation flushes — counting per flush double-counts coalesced
// multi-slot responses).

class BundleProbe : public Actor {
 public:
  struct Seen {
    bool is_bundle;
    size_t num_payloads;     ///< RelayResponses in the message.
    size_t num_early;        ///< Payloads with final_batch == false.
    TimeNs at;
  };

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    (void)from;
    if (msg->type() == MsgType::kRelayResponse) {
      const auto& r = static_cast<const RelayResponse&>(*msg);
      seen.push_back(Seen{false, 1, r.final_batch ? 0u : 1u, env_->Now()});
    } else if (msg->type() == MsgType::kRelayBundle) {
      const auto& b = static_cast<const pigpaxos::RelayBundle&>(*msg);
      size_t early = 0;
      for (const MessagePtr& r : b.responses) {
        early += !static_cast<const RelayResponse&>(*r).final_batch;
      }
      seen.push_back(Seen{true, b.responses.size(), early, env_->Now()});
    }
  }

  void Inject(NodeId relay, MessagePtr req) {
    env_->Send(relay, std::move(req));
  }

  std::vector<Seen> seen;
};

TEST(PigRegressionTest, CoalescedEarlyBatchesCountOncePerUplink) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.group_response_threshold = 1;   // own response triggers an early flush
  opt.uplink_coalesce_max = 2;        // two responses share one uplink
  opt.uplink_flush_delay = 20 * kMillisecond;
  opt.relay_timeout = 200 * kMillisecond;
  opt.paxos.heartbeat_interval = 10 * kSecond;    // silence background
  opt.paxos.election_timeout_min = 20 * kSecond;  // traffic entirely
  opt.paxos.election_timeout_max = 30 * kSecond;
  opt.paxos.bootstrap_leader = kInvalidNode;
  MakePigCluster(cluster, 5, opt);
  auto probe_owner = std::make_unique<BundleProbe>();
  BundleProbe* probe = probe_owner.get();
  cluster.AddClient(sim::Cluster::MakeClientId(1), std::move(probe_owner));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);

  // Two concurrent rounds (different slots of a pipelined window) routed
  // through relay 1 with one live member each.
  for (uint64_t round = 0; round < 2; ++round) {
    auto p2a = std::make_shared<paxos::P2a>();
    p2a->ballot = Ballot(1, 0);
    p2a->slot = static_cast<SlotId>(round);
    p2a->command = Command::Put("k", "v" + std::to_string(round),
                                kInvalidNode, round + 1);
    auto req = std::make_shared<RelayRequest>();
    req->relay_id = 700 + round;
    req->origin = sim::Cluster::MakeClientId(1);
    req->expects_response = true;
    req->members = {2};
    req->inner = std::move(p2a);
    probe->Inject(1, std::move(req));
  }
  cluster.RunFor(100 * kMillisecond);

  // First uplink: one bundle carrying both rounds' early partials.
  // Second uplink: one bundle carrying both rounds' final batches.
  ASSERT_EQ(probe->seen.size(), 2u);
  EXPECT_TRUE(probe->seen[0].is_bundle);
  EXPECT_EQ(probe->seen[0].num_payloads, 2u);
  EXPECT_EQ(probe->seen[0].num_early, 2u);
  EXPECT_TRUE(probe->seen[1].is_bundle);
  EXPECT_EQ(probe->seen[1].num_payloads, 2u);
  EXPECT_EQ(probe->seen[1].num_early, 0u);

  const auto& rm = PigAt(cluster, 1)->relay_metrics();
  EXPECT_EQ(rm.aggregates_sent, 4u);   // early + final per round
  EXPECT_EQ(rm.early_batches, 1u)      // NOT 2: one early uplink departed
      << "coalesced multi-slot partial flushes double-counted";
  EXPECT_EQ(rm.uplink_bundles, 2u);
  EXPECT_EQ(rm.uplink_coalesced, 4u);
  EXPECT_EQ(rm.relay_timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Relay-ack watch deadline vs multi-layer trees + coalescing. A 2-layer
// tree legitimately takes up to relay_timeout * (1 + sub_layers) to
// aggregate, and with uplink coalescing every hop of the response path
// (leaf -> sub-relay -> relay -> leader) may hold its uplink for
// uplink_flush_delay. The historical fixed 2 * relay_timeout deadline is
// shorter than that legitimate window, so the leader suspected *healthy*
// relays and churned relay selection. The derived deadline
// (relay_timeout * (layers + 1) + (layers + 1) * uplink_flush_delay)
// must keep a fully healthy run suspicion-free.

TEST(PigRegressionTest, DeepTreeCoalescingDoesNotSuspectHealthyRelays) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 3;
  opt.relay_layers = 2;
  opt.relay_timeout = 20 * kMillisecond;
  opt.uplink_coalesce_max = 16;                // never filled at this load:
  opt.uplink_flush_delay = 15 * kMillisecond;  // every hop holds 15 ms
  Prober* prober = MakePigCluster(cluster, 25, opt);
  cluster.Start();
  cluster.RunFor(500 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 25), 0u);

  // Light sequential load: each commit's response path pays the full
  // leaf + sub-relay + relay flush-delay chain (~46 ms: leaves hold
  // 15 ms, sub-relays complete and hold 15 ms, the top relay completes
  // and holds 15 ms), past the old 2 * relay_timeout = 40 ms deadline.
  for (int i = 0; i < 10; ++i) {
    prober->Put(0, "k" + std::to_string(i), "v");
    cluster.RunFor(200 * kMillisecond);
  }
  EXPECT_GE(prober->OkCount(), 10u);

  uint64_t suspected = 0;
  for (NodeId i = 0; i < 25; ++i) {
    suspected += PigAt(cluster, i)->relay_metrics().relays_suspected;
  }
  EXPECT_EQ(suspected, 0u)
      << "healthy relays suspected: the relay-ack watch deadline does not "
         "cover the legitimate deep-tree + coalescing aggregation window";
}

// The derived deadline must reproduce the historical default exactly for
// the paper's base configuration (single layer, no coalescing), and grow
// with depth and coalescing slack.
TEST(PigRegressionTest, DerivedRelayAckDeadlineMatchesShapeOfTree) {
  PigPaxosOptions base;
  base.relay_timeout = 50 * kMillisecond;
  {
    PigPaxosReplica flat(0, [&] {
      PigPaxosOptions o = base;
      o.paxos.num_replicas = 9;
      return o;
    }());
    EXPECT_EQ(flat.DefaultRelayAckTimeout(), 2 * base.relay_timeout);
  }
  {
    PigPaxosReplica deep(0, [&] {
      PigPaxosOptions o = base;
      o.paxos.num_replicas = 9;
      o.relay_layers = 3;
      return o;
    }());
    EXPECT_EQ(deep.DefaultRelayAckTimeout(), 4 * base.relay_timeout);
  }
  {
    PigPaxosReplica coalescing(0, [&] {
      PigPaxosOptions o = base;
      o.paxos.num_replicas = 9;
      o.relay_layers = 2;
      o.uplink_coalesce_max = 4;
      o.uplink_flush_delay = 10 * kMillisecond;
      return o;
    }());
    EXPECT_EQ(coalescing.DefaultRelayAckTimeout(),
              3 * base.relay_timeout + 3 * (10 * kMillisecond));
  }
}

// ---------------------------------------------------------------------------
// Expired suspicion entries must be swept, not retained forever. Node 4
// is crashed for good: once suspected, the leader's relay picks for its
// group settle on node 3, rounds complete, and nothing ever touches 4's
// entry again — so only the RelayWatchTick sweep can remove it after it
// expires. (Seeded simulation: the trace is deterministic.)

TEST(PigRegressionTest, ExpiredSuspicionEntriesArePruned) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;              // contiguous: {1,2} and {3,4}
  opt.relay_timeout = 10 * kMillisecond;
  opt.relay_ack_timeout = 60 * kMillisecond;
  opt.suspicion_duration = 150 * kMillisecond;
  opt.paxos.heartbeat_interval = 10 * kSecond;    // silence background
  opt.paxos.election_timeout_min = 20 * kSecond;  // traffic entirely
  opt.paxos.election_timeout_max = 30 * kSecond;
  Prober* prober = MakePigCluster(cluster, 5, opt);
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 5), 0u);
  const auto* leader = PigAt(cluster, 0);

  cluster.Crash(4);
  // Issue puts until an unlucky relay pick lands on 4 and the watch
  // suspects it (quorum 0+1+2 keeps committing regardless).
  uint64_t seq = 0;
  for (int i = 0; i < 50 && leader->suspected_entries() == 0; ++i) {
    seq = prober->Put(0, "k", "v" + std::to_string(i));
    cluster.RunFor(30 * kMillisecond);
  }
  ASSERT_EQ(leader->suspected_entries(), 1u);
  ASSERT_GE(leader->relay_metrics().relays_suspected, 1u);
  EXPECT_NE(prober->FindReply(seq), nullptr);

  // While 4 is suspected every {3,4} round goes to 3 and completes; its
  // watch deadline still ticks 60 ms later, and the first tick after the
  // 150 ms expiry must sweep the stale entry.
  for (int i = 0; i < 10; ++i) {
    prober->Put(0, "k", "w" + std::to_string(i));
    cluster.RunFor(40 * kMillisecond);
  }
  cluster.RunFor(300 * kMillisecond);  // all pending watch ticks fire
  EXPECT_EQ(leader->suspected_entries(), 0u)
      << "expired suspicion entries are never pruned";
}

// ---------------------------------------------------------------------------
// The dynamic-regrouping timer is leader work: it must be armed on
// leadership acquisition and canceled on step-down, not tick uselessly
// on every follower for the whole run.

TEST(PigRegressionTest, ReshuffleTimerRunsOnlyOnTheLeader) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.reshuffle_interval = 50 * kMillisecond;
  MakePigCluster(cluster, 5, opt);
  cluster.Start();
  cluster.RunFor(400 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 5), 0u);

  EXPECT_TRUE(PigAt(cluster, 0)->reshuffle_timer_armed());
  EXPECT_GT(PigAt(cluster, 0)->relay_metrics().reshuffles, 0u);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_FALSE(PigAt(cluster, i)->reshuffle_timer_armed())
        << "follower " << i << " keeps a reshuffle timer armed";
    EXPECT_EQ(PigAt(cluster, i)->relay_metrics().reshuffles, 0u);
  }

  // Leadership moves: the old leader cancels, the new one arms.
  auto* challenger =
      static_cast<PigPaxosReplica*>(cluster.actor(1));
  challenger->TriggerElection();
  cluster.RunFor(400 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 5), 1u);
  EXPECT_FALSE(PigAt(cluster, 0)->reshuffle_timer_armed());
  EXPECT_TRUE(PigAt(cluster, 1)->reshuffle_timer_armed());
  EXPECT_GT(PigAt(cluster, 1)->relay_metrics().reshuffles, 0u);
}

// ---------------------------------------------------------------------------
// Overlapping groups deliver some followers' responses twice; the
// leader's VoteTally must count each follower once.

TEST(VoteTallyTest, DuplicateAcksCountOnce) {
  VoteTally tally(3);
  EXPECT_FALSE(tally.Ack(1));
  EXPECT_FALSE(tally.Ack(1));  // duplicate delivery (overlap path)
  EXPECT_EQ(tally.ack_count(), 1u);
  EXPECT_FALSE(tally.Passed());
  EXPECT_FALSE(tally.Ack(2));
  EXPECT_TRUE(tally.Ack(3));  // third *distinct* vote crosses the bar
  EXPECT_FALSE(tally.Ack(3));  // threshold satisfied only once
  EXPECT_EQ(tally.ack_count(), 3u);
}

TEST(PigRegressionTest, OverlapDoubleDeliveryNeverFakesQuorum) {
  // 5 nodes, contiguous groups {1,2} and {3,4}; overlap 1 extends them to
  // {1,2,3} and {3,4,1}, so node 1 sits in both groups. With 2, 3, and 4
  // crashed, every fan-out can reach node 1 twice (once per group), but
  // leader + one distinct follower is still only 2 of the 3 votes quorum
  // needs: the slot must never commit no matter how many duplicate P2b's
  // arrive.
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.group_overlap = 1;
  opt.relay_timeout = 20 * kMillisecond;
  opt.paxos.propose_retry_timeout = 100 * kMillisecond;
  opt.paxos.heartbeat_interval = 10 * kSecond;
  opt.paxos.election_timeout_min = 20 * kSecond;
  opt.paxos.election_timeout_max = 30 * kSecond;
  Prober* prober = MakePigCluster(cluster, 5, opt);
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 5), 0u);

  // Sanity-check the overlap topology this test depends on.
  {
    std::multiset<NodeId> seen;
    for (const auto& g : PigAt(cluster, 0)->planner().groups()) {
      seen.insert(g.begin(), g.end());
    }
    ASSERT_EQ(seen, (std::multiset<NodeId>{1, 1, 2, 3, 3, 4}));
  }

  cluster.Crash(2);
  cluster.Crash(3);
  cluster.Crash(4);
  uint64_t seq = prober->Put(0, "once", "only");
  cluster.RunFor(2000 * kMillisecond);  // ~20 propose retries

  EXPECT_EQ(prober->FindReply(seq), nullptr);
  EXPECT_EQ(PaxosAt(cluster, 0)->metrics().commits, 0u);
  EXPECT_EQ(PaxosAt(cluster, 0)->store().Get("once"), "");

  // Control: one more distinct follower is exactly what was missing.
  cluster.Recover(2);
  cluster.RunFor(2000 * kMillisecond);
  EXPECT_NE(prober->FindReply(seq), nullptr);
  EXPECT_EQ(PaxosAt(cluster, 0)->store().Get("once"), "only");
}

// ---------------------------------------------------------------------------
// Asymmetric partition vs relay suspicion: every member of one relay
// group can HEAR the leader but none can speak (one-way dead uplinks).
// The mute group's relay never answers, so the relay-ack watch must
// suspect it — symmetric-failure detection that only fired on receive
// errors would hang here — while the healthy group plus the leader still
// form a quorum (5 of 9) and commits keep flowing. After the uplinks
// heal, the silenced members must converge onto the same log.

TEST(PigRegressionTest, OneWayDeadUplinkRelayIsSuspected) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;  // 9 nodes: {1,2,3,4} and {5,6,7,8}
  opt.relay_timeout = 20 * kMillisecond;
  opt.paxos.propose_retry_timeout = 100 * kMillisecond;
  opt.paxos.election_timeout_min = 20 * kSecond;  // leader 0 stays put
  opt.paxos.election_timeout_max = 30 * kSecond;
  Prober* prober = MakePigCluster(cluster, 9, opt);
  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 9), 0u);

  // Group {1,2,3,4} goes mute: inbound intact, every outbound byte lost.
  for (NodeId n = 1; n <= 4; ++n) cluster.network().SetOneWayDown(n, true);

  const uint64_t seq = prober->Put(0, "k", "v1");
  cluster.RunFor(2 * kSecond);

  // The commit must land on the healthy majority despite the mute group,
  // and the leader must have blacklisted at least one unresponsive relay
  // (the watch timeout, not a receive error, is what fires here).
  EXPECT_NE(prober->FindReply(seq), nullptr);
  EXPECT_GT(PigAt(cluster, 0)->relay_metrics().relays_suspected, 0u);
  EXPECT_GT(PigAt(cluster, 0)->suspected_entries(), 0u);

  // Heal the uplinks: the silenced members already heard every P2a and
  // commit, so once they can speak again the cluster converges.
  for (NodeId n = 1; n <= 4; ++n) cluster.network().SetOneWayDown(n, false);
  const uint64_t seq2 = prober->Put(0, "k", "v2");
  cluster.RunFor(2 * kSecond);
  EXPECT_NE(prober->FindReply(seq2), nullptr);
  EXPECT_EQ(CheckLogConsistency(cluster, 9), "");
}

// ---------------------------------------------------------------------------
// Relay choice per burst. The leader picks each group's relay once per
// Env::burst() and every FanOut of that burst reuses it; a new burst, a
// suspicion, or a regrouping forces a fresh pick, and burst 0 means the
// driver does not say, so every FanOut picks afresh. A scripted Env
// makes the burst, the clock and the timers the test's to drive.

class ScriptedEnv final : public Env {
 public:
  NodeId self() const override { return 0; }
  TimeNs Now() const override { return now; }
  void Send(NodeId to, MessagePtr msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  TimerId SetTimer(TimeNs delay, std::function<void()> cb) override {
    const TimerId id = next_timer_++;
    timers_.emplace(id, Timer{now + delay, std::move(cb)});
    return id;
  }
  void CancelTimer(TimerId id) override { timers_.erase(id); }
  Rng& rng() override { return rng_; }
  uint64_t burst() const override { return burst_no; }

  /// Runs every timer due by `now`, in arm order.
  void FireDue() {
    for (auto it = timers_.begin(); it != timers_.end();) {
      if (it->second.when > now) {
        ++it;
        continue;
      }
      std::function<void()> cb = std::move(it->second.cb);
      it = timers_.erase(it);
      cb();
    }
  }

  TimeNs now = 0;
  uint64_t burst_no = 1;
  std::vector<std::pair<NodeId, MessagePtr>> sent;

 private:
  struct Timer {
    TimeNs when;
    std::function<void()> cb;
  };
  std::map<TimerId, Timer> timers_;
  TimerId next_timer_ = 1;
  Rng rng_{7};
};

// Exposes the protected FanOut so a test can propose rounds directly.
class FanOutProbe final : public PigPaxosReplica {
 public:
  using PigPaxosReplica::FanOut;
  using PigPaxosReplica::PigPaxosReplica;
};

struct FanOutResult {
  std::vector<NodeId> relays;  // one per group, in group order
  std::vector<uint64_t> relay_ids;
};

class BurstRelayTest : public ::testing::Test {
 protected:
  BurstRelayTest() : replica_(0, Options()) { replica_.Bind(&env_); }

  static PigPaxosOptions Options() {
    PigPaxosOptions opt;
    opt.paxos.num_replicas = 9;
    opt.num_relay_groups = 3;
    return opt;
  }

  // One relay round; checks every envelope's relay and member list
  // against the planner's current groups.
  FanOutResult FanOut() {
    env_.sent.clear();
    auto p2a = std::make_shared<paxos::P2a>();
    p2a->slot = next_slot_++;
    replica_.FanOut(std::move(p2a), /*expects_response=*/true);
    const auto& groups = replica_.planner().groups();
    FanOutResult out;
    EXPECT_EQ(env_.sent.size(), groups.size());
    for (size_t g = 0; g < env_.sent.size() && g < groups.size(); ++g) {
      const auto& [to, msg] = env_.sent[g];
      EXPECT_EQ(msg->type(), MsgType::kRelayRequest);
      const auto& req = static_cast<const RelayRequest&>(*msg);
      std::multiset<NodeId> covered(req.members.begin(), req.members.end());
      covered.insert(to);
      EXPECT_EQ(covered,
                std::multiset<NodeId>(groups[g].begin(), groups[g].end()))
          << "group " << g << " sent to relay " << to;
      out.relays.push_back(to);
      out.relay_ids.push_back(req.relay_id);
    }
    return out;
  }

  ScriptedEnv env_;
  FanOutProbe replica_;
  SlotId next_slot_ = 0;
};

TEST_F(BurstRelayTest, FanOutsInOneBurstShareEachGroupsRelay) {
  for (uint64_t burst = 1; burst <= 20; ++burst) {
    env_.burst_no = burst;
    const FanOutResult a = FanOut();
    const FanOutResult b = FanOut();
    EXPECT_EQ(a.relays, b.relays) << "burst " << burst;
    // Only the relay is shared: each round keeps its own relay ids.
    for (uint64_t id : a.relay_ids) {
      EXPECT_EQ(std::count(b.relay_ids.begin(), b.relay_ids.end(), id), 0);
    }
  }
  EXPECT_EQ(replica_.relay_metrics().fan_outs, 40u);
}

TEST_F(BurstRelayTest, EveryGroupMemberServesAsRelayOverManyBursts) {
  const auto groups = replica_.planner().groups();
  std::vector<std::set<NodeId>> served(groups.size());
  for (uint64_t burst = 1; burst <= 200; ++burst) {
    env_.burst_no = burst;
    for (int round = 0; round < 2; ++round) {
      const FanOutResult r = FanOut();
      for (size_t g = 0; g < r.relays.size(); ++g) {
        served[g].insert(r.relays[g]);
      }
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(served[g], std::set<NodeId>(groups[g].begin(), groups[g].end()))
        << "group " << g;
  }
}

TEST_F(BurstRelayTest, BurstZeroPicksPerCall) {
  env_.burst_no = 0;
  size_t changed = 0;
  FanOutResult prev = FanOut();
  for (int i = 0; i < 50; ++i) {
    FanOutResult next = FanOut();
    if (next.relays != prev.relays) changed++;
    prev = std::move(next);
  }
  // Per-call picks over groups of 3, 3 and 2 repeat all three relays
  // with probability 1/18, so nearly every call changes some relay.
  EXPECT_GT(changed, 40u);
}

TEST_F(BurstRelayTest, RelaySuspectedMidBurstIsNotReused) {
  env_.burst_no = 5;
  const FanOutResult first = FanOut();
  // Nobody answers: the relay-ack watch suspects all three relays while
  // the burst is still open (timers fire in the same wake-up as mail).
  env_.now += replica_.DefaultRelayAckTimeout();
  env_.FireDue();
  ASSERT_EQ(replica_.relay_metrics().relays_suspected, 3u);
  const FanOutResult second = FanOut();
  for (size_t g = 0; g < first.relays.size(); ++g) {
    EXPECT_NE(second.relays[g], first.relays[g]) << "group " << g;
  }
}

TEST_F(BurstRelayTest, ReshuffleMidBurstPicksFromTheNewGroups) {
  for (uint64_t burst = 1; burst <= 30; ++burst) {
    env_.burst_no = burst;
    FanOut();
    replica_.ReshuffleGroups();
    FanOut();  // checks each relay against the reshuffled groups
  }
  EXPECT_EQ(replica_.relay_metrics().reshuffles, 30u);
}

}  // namespace
}  // namespace pig::test
