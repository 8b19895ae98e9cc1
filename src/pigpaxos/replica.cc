#include "pigpaxos/replica.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "paxos/messages.h"

namespace pig::pigpaxos {

using pig::paxos::P1b;
using pig::paxos::P2b;

namespace {
std::vector<NodeId> FollowersOf(NodeId self, size_t n) {
  std::vector<NodeId> out;
  out.reserve(n - 1);
  for (NodeId i = 0; i < n; ++i) {
    if (i != self) out.push_back(i);
  }
  return out;
}
}  // namespace

PigPaxosReplica::PigPaxosReplica(NodeId id, PigPaxosOptions options)
    : PaxosReplica(id, options.paxos),
      pig_options_(std::move(options)),
      // pig_options_ is declared (and thus initialized) before planner_,
      // so read the moved-into member, never the moved-from parameter.
      planner_(FollowersOf(id, pig_options_.paxos.num_replicas),
               RelayGroupConfig{pig_options_.num_relay_groups,
                                pig_options_.grouping,
                                pig_options_.region_of,
                                pig_options_.group_overlap}),
      // Disambiguate relay ids between leaders: high bits carry the id.
      next_relay_id_((static_cast<uint64_t>(id) << 40) + 1) {}

PigPaxosReplica::~PigPaxosReplica() = default;

void PigPaxosReplica::OnStart() {
  // Post-crash recovery: all our timers died with the crash, so every
  // piece of relay-layer state tied to one is stale. Held uplink
  // responses, open aggregations, and the leader-side relay watch are
  // all dropped; peers recover via the origin's propose retry. The
  // reset runs before PaxosReplica::OnStart() because the base call can
  // win an instant election (single-node quorum) and re-arm leader-side
  // machinery through OnLeadershipChange.
  for (auto& [to, buf] : uplink_) {
    if (buf.timer != kInvalidTimer) env_->CancelTimer(buf.timer);
  }
  uplink_.clear();
  for (auto& [id, agg] : aggregations_) {
    if (agg.timer != kInvalidTimer) env_->CancelTimer(agg.timer);
  }
  aggregations_.clear();
  outstanding_relays_.clear();
  relay_watch_.clear();
  suspected_until_.clear();
  relay_burst_ = 0;  // drops the cached relay picks
  if (relay_watch_timer_ != kInvalidTimer) {
    env_->CancelTimer(relay_watch_timer_);
    relay_watch_timer_ = kInvalidTimer;
  }
  if (reshuffle_timer_ != kInvalidTimer) {
    env_->CancelTimer(reshuffle_timer_);
    reshuffle_timer_ = kInvalidTimer;
  }
  PaxosReplica::OnStart();
}

void PigPaxosReplica::OnLeadershipChange(bool is_leader) {
  if (is_leader) {
    if (pig_options_.reshuffle_interval > 0 &&
        reshuffle_timer_ == kInvalidTimer) {
      reshuffle_timer_ = env_->SetTimer(pig_options_.reshuffle_interval,
                                        [this]() { ReshuffleTick(); });
    }
    return;
  }
  // Step-down (also fired for failed candidacies): reshuffling and the
  // relay-ack watch are leader work. Outstanding rounds of the deposed
  // leadership can never complete normally, so letting the watch run
  // them out would blacklist healthy relays for the next term.
  if (reshuffle_timer_ != kInvalidTimer) {
    env_->CancelTimer(reshuffle_timer_);
    reshuffle_timer_ = kInvalidTimer;
  }
  outstanding_relays_.clear();
  relay_watch_.clear();
  relay_burst_ = 0;
  if (relay_watch_timer_ != kInvalidTimer) {
    env_->CancelTimer(relay_watch_timer_);
    relay_watch_timer_ = kInvalidTimer;
  }
}

void PigPaxosReplica::ReshuffleTick() {
  reshuffle_timer_ = kInvalidTimer;
  // Armed only while leading, but a step-down can race the queued tick.
  if (!IsLeader()) return;
  ReshuffleGroups();
  if (pig_options_.reshuffle_interval > 0) {
    reshuffle_timer_ = env_->SetTimer(pig_options_.reshuffle_interval,
                                      [this]() { ReshuffleTick(); });
  }
}

void PigPaxosReplica::ReshuffleGroups() {
  planner_.Reshuffle(env_->rng());
  relay_metrics_.reshuffles++;
  relay_burst_ = 0;  // the cached picks came from the old groups
}

// ---------------------------------------------------------------------------
// Fan-out through the relay tree

void PigPaxosReplica::FanOut(MessagePtr msg, bool expects_response) {
  relay_metrics_.fan_outs++;
  const auto& groups = planner_.groups();
  const uint64_t burst = env_->burst();
  if (burst != relay_burst_) {
    relay_burst_ = burst;
    burst_relays_.assign(groups.size(), kInvalidNode);
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<NodeId>& group = groups[g];
    // burst 0 (the driver does not say) picks per call.
    NodeId relay = burst != 0 ? burst_relays_[g] : kInvalidNode;
    if (relay == kInvalidNode || IsSuspected(relay)) {
      relay = PickLiveRelay(group);
      if (burst != 0) burst_relays_[g] = relay;
    }
    auto req = MessagePool::Make<RelayRequest>();
    req->relay_id = next_relay_id_++;
    req->origin = id();
    req->expects_response = expects_response;
    req->members.reserve(group.size() - 1);
    for (NodeId n : group) {
      if (n != relay) req->members.push_back(n);
    }
    req->sub_layers = pig_options_.relay_layers > 0
                          ? pig_options_.relay_layers - 1
                          : 0;
    req->sub_groups = pig_options_.sub_groups;
    req->inner = msg;
    if (expects_response) WatchRelay(req->relay_id, relay);
    env_->Send(relay, std::move(req));
  }
}

// ---------------------------------------------------------------------------
// Relay liveness (connection-level failure detection at the leader)

bool PigPaxosReplica::IsSuspected(NodeId node) const {
  auto it = suspected_until_.find(node);
  return it != suspected_until_.end() && it->second > env_->Now();
}

NodeId PigPaxosReplica::PickLiveRelay(const std::vector<NodeId>& group) {
  // Reservoir-sample among non-suspected members; fall back to a fully
  // random pick when the whole group is suspected (Fig. 5b retries).
  NodeId choice = kInvalidNode;
  size_t live = 0;
  for (NodeId n : group) {
    if (IsSuspected(n)) continue;
    live++;
    if (env_->rng().NextBounded(live) == 0) choice = n;
  }
  if (choice != kInvalidNode) return choice;
  return group[env_->rng().NextBounded(group.size())];
}

TimeNs PigPaxosReplica::DefaultRelayAckTimeout() const {
  // A relay at the top of a `relay_layers`-deep tree arms its own
  // aggregation timer at relay_timeout * (1 + sub_layers) so its window
  // covers its children's (see HandleRelayRequest) — i.e. the leader can
  // legitimately hear nothing for relay_timeout * relay_layers before
  // the relay's timeout flush even departs. Budget one extra
  // relay_timeout for delivery/scheduling slack (for a 1-layer tree
  // this reproduces the historical 2 * relay_timeout), and when uplink
  // coalescing is on, every hop of the response path — leaf, sub-relays,
  // top relay — may additionally hold its uplink for uplink_flush_delay.
  const auto layers =
      static_cast<TimeNs>(std::max<uint32_t>(1, pig_options_.relay_layers));
  TimeNs deadline = pig_options_.relay_timeout * (layers + 1);
  if (pig_options_.uplink_coalesce_max > 1) {
    deadline += (layers + 1) * pig_options_.uplink_flush_delay;
  }
  return deadline;
}

void PigPaxosReplica::WatchRelay(uint64_t relay_id, NodeId relay) {
  const TimeNs ack_timeout = pig_options_.relay_ack_timeout > 0
                                 ? pig_options_.relay_ack_timeout
                                 : DefaultRelayAckTimeout();
  outstanding_relays_.emplace(relay_id, relay);
  relay_watch_.emplace_back(env_->Now() + ack_timeout, relay_id);
  if (relay_watch_timer_ == kInvalidTimer) {
    relay_watch_timer_ =
        env_->SetTimer(ack_timeout, [this]() { RelayWatchTick(); });
  }
}

void PigPaxosReplica::RelayWatchTick() {
  relay_watch_timer_ = kInvalidTimer;
  const TimeNs now = env_->Now();
  // Sweep expired suspicions: IsSuspected already ignores them, but
  // without pruning a long chaos run grows the map one dead NodeId at a
  // time and re-suspicions keep resurrecting stale entries forever.
  for (auto it = suspected_until_.begin(); it != suspected_until_.end();) {
    if (it->second <= now) {
      it = suspected_until_.erase(it);
    } else {
      ++it;
    }
  }
  while (!relay_watch_.empty() && relay_watch_.front().first <= now) {
    uint64_t relay_id = relay_watch_.front().second;
    relay_watch_.pop_front();
    auto it = outstanding_relays_.find(relay_id);
    if (it == outstanding_relays_.end()) continue;  // answered in time
    suspected_until_[it->second] = now + pig_options_.suspicion_duration;
    relay_metrics_.relays_suspected++;
    outstanding_relays_.erase(it);
  }
  if (!relay_watch_.empty()) {
    relay_watch_timer_ = env_->SetTimer(
        relay_watch_.front().first - now, [this]() { RelayWatchTick(); });
  }
}

void PigPaxosReplica::MarkResponsive(NodeId node) {
  suspected_until_.erase(node);
}

// ---------------------------------------------------------------------------
// Dispatch

void PigPaxosReplica::OnMessage(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kRelayRequest:
      HandleRelayRequest(from, static_cast<const RelayRequest&>(*msg));
      return;
    case MsgType::kRelayResponse:
      HandleRelayResponse(from, static_cast<const RelayResponse&>(*msg));
      return;
    case MsgType::kRelayBundle:
      HandleRelayBundle(from, static_cast<const RelayBundle&>(*msg));
      return;
    default:
      PaxosReplica::OnMessage(from, msg);
  }
}

bool PigPaxosReplica::IsReject(const Message& msg) {
  switch (msg.type()) {
    case MsgType::kP1b:
      return !static_cast<const P1b&>(msg).ok;
    case MsgType::kP2b:
      return !static_cast<const P2b&>(msg).ok;
    default:
      return false;
  }
}

void PigPaxosReplica::HandleRelayRequest(NodeId from,
                                         const RelayRequest& req) {
  // Step 2 (paper §3.2): the relay processes the message as a regular
  // follower first.
  MessagePtr own_response = HandleFanOutMessage(*req.inner);

  if (req.members.empty()) {
    // Leaf member: respond straight to whoever relayed to us.
    if (req.expects_response && own_response != nullptr) {
      auto resp = MessagePool::Make<RelayResponse>();
      resp->relay_id = req.relay_id;
      resp->sender = id();
      resp->responses.push_back(std::move(own_response));
      SendUplink(from, std::move(resp), /*counts_as_early=*/false);
    }
    return;
  }

  relay_metrics_.relays_served++;

  if (!req.expects_response) {
    // One-way traffic (heartbeats/P3): just forward.
    ForwardToMembers(req, req.members);
    return;
  }

  // Set up aggregation state, seeded with our own response. The buffer
  // can never outgrow the group, so one up-front reservation covers the
  // whole round.
  Aggregation agg;
  agg.requester = from;
  agg.expected = req.members.size() + 1;  // members + self
  agg.threshold = pig_options_.group_response_threshold;
  agg.buffer.reserve(agg.expected);
  if (own_response != nullptr) {
    if (IsReject(*own_response)) {
      // Rejections bypass aggregation (§4.2 footnote).
      relay_metrics_.rejects_fast_tracked++;
      auto resp = MessagePool::Make<RelayResponse>();
      resp->relay_id = req.relay_id;
      resp->sender = id();
      // The aggregation stays open for the group members' responses, so
      // this early reject is not the round's final batch.
      resp->final_batch = false;
      resp->responses.push_back(std::move(own_response));
      SendUplink(from, std::move(resp), /*counts_as_early=*/false);
      agg.collected = 1;
    } else {
      agg.buffer.push_back(std::move(own_response));
      agg.collected = 1;
    }
  }
  const uint64_t relay_id = req.relay_id;
  // Duplicate round (leader retry routed to the same relay): drop the old
  // aggregation before starting fresh.
  auto old = aggregations_.find(relay_id);
  if (old != aggregations_.end()) {
    env_->CancelTimer(old->second.timer);
    aggregations_.erase(old);
  }
  // Multi-level trees use progressively larger timeouts at higher levels
  // so a parent's window covers its children's (paper footnote 1).
  const TimeNs timeout =
      pig_options_.relay_timeout * static_cast<TimeNs>(1 + req.sub_layers);
  agg.timer = env_->SetTimer(timeout,
                             [this, relay_id]() { OnRelayTimeout(relay_id); });
  aggregations_.emplace(relay_id, std::move(agg));

  ForwardToMembers(req, req.members);

  // Degenerate group of one node: we already have every response.
  Aggregation& live = aggregations_[relay_id];
  if (live.collected >= live.expected) {
    FlushAggregation(relay_id, live, /*final_batch=*/true);
    env_->CancelTimer(live.timer);
    aggregations_.erase(relay_id);
  } else if (live.threshold > 0 && !live.first_sent &&
             live.collected >= live.threshold) {
    FlushAggregation(relay_id, live, /*final_batch=*/false);
  }
}

void PigPaxosReplica::ForwardToMembers(const RelayRequest& req,
                                       std::span<const NodeId> members) {
  if (req.sub_layers > 0 && members.size() > req.sub_groups &&
      req.sub_groups > 1) {
    // Multi-layer tree (§6.3): split members into subgroups, pick a
    // random sub-relay for each.
    const size_t g = req.sub_groups;
    std::vector<std::vector<NodeId>> subgroups(g);
    for (size_t i = 0; i < members.size(); ++i) {
      subgroups[i % g].push_back(members[i]);
    }
    for (auto& sub : subgroups) {
      if (sub.empty()) continue;
      size_t pick = static_cast<size_t>(env_->rng().NextBounded(sub.size()));
      NodeId sub_relay = sub[pick];
      auto fwd = MessagePool::Make<RelayRequest>();
      fwd->relay_id = req.relay_id;
      fwd->origin = req.origin;
      fwd->expects_response = req.expects_response;
      fwd->members.reserve(sub.size() - 1);
      for (size_t i = 0; i < sub.size(); ++i) {
        if (i != pick) fwd->members.push_back(sub[i]);
      }
      fwd->sub_layers = req.sub_layers - 1;
      fwd->sub_groups = req.sub_groups;
      fwd->inner = req.inner;
      env_->Send(sub_relay, std::move(fwd));
    }
    return;
  }
  // Single layer: every leaf gets an identical envelope (same round,
  // empty member list, same inner payload), and MessagePtr is a
  // shared_ptr-to-const — so build the envelope once and fan the same
  // immutable message out to all members instead of N copies.
  auto fwd = MessagePool::Make<RelayRequest>();
  fwd->relay_id = req.relay_id;
  fwd->origin = req.origin;
  fwd->expects_response = req.expects_response;
  fwd->sub_layers = 0;
  fwd->sub_groups = req.sub_groups;
  fwd->inner = req.inner;
  const MessagePtr shared = std::move(fwd);
  for (NodeId m : members) {
    env_->Send(m, shared);
  }
}

void PigPaxosReplica::HandleRelayResponse(NodeId from,
                                          const RelayResponse& resp) {
  (void)from;
  MarkResponsive(resp.sender);
  outstanding_relays_.erase(resp.relay_id);
  auto it = aggregations_.find(resp.relay_id);
  if (it == aggregations_.end()) {
    // Not one of our aggregations: we are the origin (leader/candidate),
    // or the aggregation already timed out — feed responses into the
    // Paxos decision logic either way (late votes are harmless and the
    // paper's timeout design counts on them sometimes arriving).
    for (const MessagePtr& r : resp.responses) {
      if (r->type() == MsgType::kP1b) {
        MarkResponsive(static_cast<const paxos::P1b&>(*r).sender);
      } else if (r->type() == MsgType::kP2b) {
        MarkResponsive(static_cast<const paxos::P2b&>(*r).sender);
      }
      HandleResponse(*r);
    }
    return;
  }
  Aggregation& agg = it->second;
  for (const MessagePtr& r : resp.responses) {
    AddResponse(agg, resp.relay_id, r);
  }
  if (agg.collected >= agg.expected) {
    FlushAggregation(resp.relay_id, agg, /*final_batch=*/true);
    env_->CancelTimer(agg.timer);
    aggregations_.erase(it);
  } else if (agg.threshold > 0 && !agg.first_sent &&
             agg.collected >= agg.threshold) {
    FlushAggregation(resp.relay_id, agg, /*final_batch=*/false);
  }
}

void PigPaxosReplica::AddResponse(Aggregation& agg, uint64_t relay_id,
                                  MessagePtr resp) {
  agg.collected++;
  if (IsReject(*resp)) {
    // Forward rejections immediately, without waiting for the rest.
    relay_metrics_.rejects_fast_tracked++;
    auto out = MessagePool::Make<RelayResponse>();
    out->relay_id = relay_id;
    out->sender = id();
    out->final_batch = false;
    out->responses.push_back(std::move(resp));
    SendUplink(agg.requester, std::move(out), /*counts_as_early=*/false);
    return;
  }
  agg.buffer.push_back(std::move(resp));
}

void PigPaxosReplica::FlushAggregation(uint64_t relay_id, Aggregation& agg,
                                       bool final_batch) {
  // An early (non-final) flush with nothing buffered is a no-op, but a
  // final flush must always send — even an empty RelayResponse with
  // final_batch=true — so a timed-out relay that collected nothing still
  // tells the origin the round is over instead of leaving it to discover
  // the silence via its own (longer) relay-ack watch timeout.
  if (agg.buffer.empty() && !final_batch) return;
  auto out = MessagePool::Make<RelayResponse>();
  out->relay_id = relay_id;
  out->sender = id();
  out->final_batch = final_batch;
  out->responses = std::move(agg.buffer);
  agg.buffer.clear();
  relay_metrics_.aggregates_sent++;
  // early_batches is counted when the uplink message actually departs
  // (SendUplink/FlushUplink): coalescing can fold several rounds' partial
  // flushes into one physical uplink, which must count once.
  SendUplink(agg.requester, std::move(out),
             /*counts_as_early=*/!final_batch);
  agg.first_sent = true;
}

// ---------------------------------------------------------------------------
// Uplink coalescing

void PigPaxosReplica::SendUplink(NodeId to,
                                 std::shared_ptr<RelayResponse> resp,
                                 bool counts_as_early) {
  if (pig_options_.uplink_coalesce_max <= 1) {
    if (counts_as_early) relay_metrics_.early_batches++;
    env_->Send(to, std::move(resp));
    return;
  }
  // One lookup covers both the append and a possible size-triggered
  // flush (which consumes the iterator and erases the entry).
  auto [it, inserted] = uplink_.try_emplace(to);
  UplinkBuffer& buf = it->second;
  if (inserted) buf.held.reserve(pig_options_.uplink_coalesce_max);
  buf.held.push_back(UplinkBuffer::Held{std::move(resp), counts_as_early});
  if (buf.held.size() >= pig_options_.uplink_coalesce_max) {
    FlushUplink(it);
    return;
  }
  if (buf.timer == kInvalidTimer) {
    // The lambda captures the key, never an iterator or buffer
    // reference: by the time it fires the entry may have been flushed
    // away (size trigger) or the map rehashed, so it must re-find.
    buf.timer = env_->SetTimer(pig_options_.uplink_flush_delay, [this, to]() {
      auto timer_it = uplink_.find(to);
      if (timer_it == uplink_.end()) return;
      timer_it->second.timer = kInvalidTimer;
      FlushUplink(timer_it);
    });
  }
}

void PigPaxosReplica::FlushUplink(UplinkMap::iterator it) {
  UplinkBuffer& buf = it->second;
  if (buf.timer != kInvalidTimer) {
    env_->CancelTimer(buf.timer);
    buf.timer = kInvalidTimer;
  }
  const NodeId to = it->first;
  if (buf.held.empty()) {
    uplink_.erase(it);
    return;
  }
  bool any_early = false;
  for (const UplinkBuffer::Held& h : buf.held) any_early |= h.early;
  if (any_early) relay_metrics_.early_batches++;
  if (buf.held.size() == 1) {
    std::shared_ptr<RelayResponse> resp = std::move(buf.held[0].resp);
    uplink_.erase(it);
    env_->Send(to, std::move(resp));
    return;
  }
  auto bundle = MessagePool::Make<RelayBundle>();
  bundle->sender = id();
  bundle->responses.reserve(buf.held.size());
  for (UplinkBuffer::Held& h : buf.held) {
    bundle->responses.push_back(std::move(h.resp));
  }
  relay_metrics_.uplink_bundles++;
  relay_metrics_.uplink_coalesced += bundle->responses.size();
  uplink_.erase(it);
  env_->Send(to, std::move(bundle));
}

void PigPaxosReplica::HandleRelayBundle(NodeId from,
                                        const RelayBundle& bundle) {
  MarkResponsive(bundle.sender);
  for (const MessagePtr& r : bundle.responses) {
    if (r->type() != MsgType::kRelayResponse) continue;
    HandleRelayResponse(from, static_cast<const RelayResponse&>(*r));
  }
}

void PigPaxosReplica::OnRelayTimeout(uint64_t relay_id) {
  auto it = aggregations_.find(relay_id);
  if (it == aggregations_.end()) return;
  relay_metrics_.relay_timeouts++;
  // Forward whatever was collected so far (§3.4: partial responses reach
  // the leader in the hope the majority quorum is still satisfied).
  FlushAggregation(relay_id, it->second, /*final_batch=*/true);
  aggregations_.erase(it);
}

}  // namespace pig::pigpaxos
