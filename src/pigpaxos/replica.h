// PigPaxos replica.
//
// Inherits the complete Multi-Paxos decision logic from PaxosReplica and
// replaces only the communication implementation (paper §3.3): fan-out
// goes through one random relay per relay group; relays forward to their
// group peers and aggregate the responses back to the leader, with a
// tight timeout guarding against sluggish or crashed followers (§3.4).
//
// The paper draws the relay per communication round. Here a round is one
// burst (Env::burst), one wake-up of the driver's event loop: the leader
// caches its pick per group with the burst number, and every FanOut of
// that burst reuses it unless the relay has been suspected since. Each
// FanOut still has its own relay_id, relay-ack watch entry and
// RelayRequest; only the choice of relay is shared, so the slots one
// wake-up proposes leave as one coalesced write per relay. Retries and
// the next wake-up draw afresh, so relay duty still rotates. The cache
// is dropped on regrouping, step-down and restart. A driver whose
// burst() is 0 gets a fresh pick per FanOut.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "paxos/replica.h"
#include "pigpaxos/messages.h"
#include "pigpaxos/relay_groups.h"

namespace pig::pigpaxos {

using pig::paxos::PaxosOptions;
using pig::paxos::PaxosReplica;
using pig::TimeNs;
using pig::TimerId;

struct PigPaxosOptions {
  PaxosOptions paxos;

  /// Number of relay groups (the paper's main tuning knob; Fig. 7).
  size_t num_relay_groups = 3;

  GroupingStrategy grouping = GroupingStrategy::kContiguous;

  /// Region lookup for GroupingStrategy::kRegion (§6.4 WAN grouping).
  std::function<int(NodeId)> region_of;

  /// Relays stop waiting for group members after this long and forward
  /// whatever they collected (§3.4; Fig. 13 uses 50 ms).
  TimeNs relay_timeout = 50 * kMillisecond;

  /// Partial response collection (§4.2): if > 0, a relay sends its first
  /// aggregate once it has this many responses (including its own),
  /// forwarding stragglers in a final batch. 0 = wait for the full group.
  size_t group_response_threshold = 0;

  /// Relay tree depth (§6.3). 1 = single relay layer (the paper's
  /// default); >1 splits groups into nested subgroups.
  uint32_t relay_layers = 1;

  /// Subgroups per nested layer when relay_layers > 1.
  uint32_t sub_groups = 2;

  /// Overlapping relay groups (§3.3/§4.1): extra members borrowed from
  /// the neighbouring group, adding redundant paths at the cost of some
  /// duplicate traffic. 0 = disjoint groups (the paper's default).
  size_t group_overlap = 0;

  /// Dynamic regrouping period (§4.1): when > 0, the leader reshuffles
  /// group membership this often. 0 = static groups.
  TimeNs reshuffle_interval = 0;

  /// Relay liveness: if no response (not even partial) arrives from a
  /// relay within this long, the leader suspects it and avoids choosing
  /// it as relay for `suspicion_duration`. Models the connection-level
  /// failure detection a TCP transport gets for free. 0 derives a
  /// deadline from the tree depth and uplink coalescing slack (see
  /// PigPaxosReplica::DefaultRelayAckTimeout): a multi-layer tree
  /// legitimately takes relay_timeout * (1 + sub_layers) to aggregate,
  /// and every hop may hold its uplink for uplink_flush_delay, so a
  /// fixed 2 * relay_timeout would suspect healthy relays in deep-tree
  /// or coalescing configurations.
  TimeNs relay_ack_timeout = 0;
  TimeNs suspicion_duration = 2 * kSecond;

  /// Uplink coalescing: with commit pipelining several slots' relay
  /// rounds complete close together, so a relay may hold a finished
  /// RelayResponse for up to `uplink_flush_delay`, sending up to
  /// `uplink_coalesce_max` responses (for different slots) as one
  /// RelayBundle. 1 = off: every response departs immediately, exactly
  /// the paper's behavior.
  size_t uplink_coalesce_max = 1;
  TimeNs uplink_flush_delay = 100 * kMicrosecond;
};

/// Counters specific to the relay layer.
struct RelayMetrics {
  uint64_t fan_outs = 0;          ///< Relay rounds initiated as leader.
  uint64_t relays_served = 0;     ///< Rounds this node acted as relay.
  uint64_t relay_timeouts = 0;    ///< Aggregations cut short by timeout.
  uint64_t aggregates_sent = 0;   ///< RelayResponses sent upward.
  /// Uplink messages that carried a threshold-triggered partial batch.
  /// Counted per departing uplink, not per aggregation flush, so several
  /// coalesced multi-slot partials count once.
  uint64_t early_batches = 0;
  uint64_t rejects_fast_tracked = 0;
  uint64_t reshuffles = 0;
  uint64_t relays_suspected = 0;  ///< Unresponsive relays blacklisted.
  uint64_t uplink_bundles = 0;    ///< Coalesced RelayBundles sent.
  uint64_t uplink_coalesced = 0;  ///< Responses that shared a bundle.
};

class PigPaxosReplica : public PaxosReplica {
 public:
  PigPaxosReplica(NodeId id, PigPaxosOptions options);
  ~PigPaxosReplica() override;

  void OnStart() override;
  void OnMessage(NodeId from, const MessagePtr& msg) override;

  const RelayMetrics& relay_metrics() const { return relay_metrics_; }
  const RelayGroupPlanner& planner() const { return planner_; }
  const PigPaxosOptions& pig_options() const { return pig_options_; }

  /// Admin hook: force a dynamic regrouping now (§4.1).
  void ReshuffleGroups();

  /// The derived relay-ack watch deadline used when
  /// relay_ack_timeout == 0: one relay_timeout window per aggregation
  /// level plus one for network/scheduling slack, plus one
  /// uplink_flush_delay per hop when coalescing can hold responses.
  /// Equals the historical 2 * relay_timeout for a single-layer tree
  /// without coalescing.
  TimeNs DefaultRelayAckTimeout() const;

  // --- Introspection (tests) -------------------------------------------
  /// Nodes currently carrying a (possibly expired, not yet swept)
  /// suspicion entry.
  size_t suspected_entries() const { return suspected_until_.size(); }
  bool reshuffle_timer_armed() const {
    return reshuffle_timer_ != kInvalidTimer;
  }

 protected:
  /// Relay-tree fan-out replacing direct broadcast.
  void FanOut(MessagePtr msg, bool expects_response) override;

  /// Arms the dynamic-regrouping timer on leadership acquisition and
  /// cancels it on step-down: reshuffling is leader work, and a timer
  /// ticking forever on every follower is pure churn.
  void OnLeadershipChange(bool is_leader) override;

 private:
  struct Aggregation {
    NodeId requester = kInvalidNode;
    size_t expected = 0;        ///< Responses still owed by the subtree.
    size_t threshold = 0;       ///< Early-batch trigger (0 = disabled).
    bool first_sent = false;
    // Same inline-capacity type as RelayResponse::responses, so the
    // collected batch moves into the outgoing envelope without copying.
    RelayResponse::ResponseVec buffer;
    size_t collected = 0;       ///< Total responses seen (sent + buffered).
    TimerId timer = kInvalidTimer;
  };

  void ReshuffleTick();
  void HandleRelayRequest(NodeId from, const RelayRequest& req);
  void HandleRelayResponse(NodeId from, const RelayResponse& resp);
  void HandleRelayBundle(NodeId from, const RelayBundle& bundle);
  void ForwardToMembers(const RelayRequest& req,
                        std::span<const NodeId> members);
  void AddResponse(Aggregation& agg, uint64_t relay_id, MessagePtr resp);
  void FlushAggregation(uint64_t relay_id, Aggregation& agg,
                        bool final_batch);
  void OnRelayTimeout(uint64_t relay_id);
  static bool IsReject(const Message& msg);

  // Per-destination uplink coalescing buffers. An entry exists only
  // while responses are held: flushing sends and erases it, so the map
  // never accumulates one empty buffer per peer. `early` marks responses
  // that count toward early_batches.
  struct UplinkBuffer {
    struct Held {
      std::shared_ptr<RelayResponse> resp;
      bool early = false;
    };
    std::vector<Held> held;
    TimerId timer = kInvalidTimer;
  };
  using UplinkMap = std::unordered_map<NodeId, UplinkBuffer>;

  // Uplink coalescing: every outbound RelayResponse funnels through here.
  // `counts_as_early` marks threshold-triggered partial batches for the
  // early_batches metric (fast-tracked rejects and final batches do not
  // count).
  void SendUplink(NodeId to, std::shared_ptr<RelayResponse> resp,
                  bool counts_as_early);
  void FlushUplink(UplinkMap::iterator it);

  // Relay liveness tracking (leader side).
  NodeId PickLiveRelay(const std::vector<NodeId>& group);
  void WatchRelay(uint64_t relay_id, NodeId relay);
  void MarkResponsive(NodeId node);
  void RelayWatchTick();
  bool IsSuspected(NodeId node) const;

  PigPaxosOptions pig_options_;
  RelayGroupPlanner planner_;
  RelayMetrics relay_metrics_;
  uint64_t next_relay_id_;
  std::unordered_map<uint64_t, Aggregation> aggregations_;
  TimerId reshuffle_timer_ = kInvalidTimer;

  // relay_id -> relay node awaiting any response (leader side).
  std::unordered_map<uint64_t, NodeId> outstanding_relays_;
  std::deque<std::pair<TimeNs, uint64_t>> relay_watch_;  // (deadline, id)
  std::unordered_map<NodeId, TimeNs> suspected_until_;
  TimerId relay_watch_timer_ = kInvalidTimer;

  // The relay picked for each group in burst `relay_burst_` (indexed
  // like planner_.groups(); kInvalidNode = not picked yet). Setting
  // relay_burst_ to 0 drops them: on regrouping, step-down and restart.
  uint64_t relay_burst_ = 0;
  std::vector<NodeId> burst_relays_;

  UplinkMap uplink_;
};

}  // namespace pig::pigpaxos
