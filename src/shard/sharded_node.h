// Multi-group node host.
//
// A ShardedNode is one Actor that hosts G independent consensus-group
// replicas on the same node — the runtime (sim, threads, or TCP) still
// sees exactly one actor per node, so every driver gets sharding for
// free. Each hosted replica runs against a GroupEnv facade that
// delegates clock/timers/CPU charging to the node's real Env, forks a
// deterministic per-group random stream, and transparently wraps every
// outgoing message in a ShardEnvelope so the peer node (or client) can
// dispatch it back to the same group. Inbound envelopes are unwrapped
// and delivered to the matching group's replica with the sender id
// preserved.
//
// The groups share the node's single (simulated or real) CPU and
// network links — which is the honest model for "N consensus groups on
// the same boxes" and exactly what bounds the scaling curve measured in
// bench_sharded_scaling.cc.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "consensus/env.h"
#include "shard/messages.h"

namespace pig::shard {

using pig::Actor;
using pig::Env;
using pig::MessagePtr;
using pig::NodeId;
using pig::Rng;
using pig::TimeNs;
using pig::TimerId;

class ShardedNode final : public Actor {
 public:
  explicit ShardedNode(size_t num_groups);
  ~ShardedNode() override;

  /// Registers group g's replica, in group order; call exactly
  /// num_groups times before the cluster starts.
  void AddGroup(std::unique_ptr<Actor> replica);

  size_t num_groups() const { return groups_.size(); }

  /// The hosted replica for group `g` (for metrics and tests).
  Actor* group_actor(size_t g) { return groups_[g].replica.get(); }
  const Actor* group_actor(size_t g) const { return groups_[g].replica.get(); }

  void OnStart() override;
  void OnMessage(NodeId from, const MessagePtr& msg) override;

 private:
  /// Env facade handed to one hosted group replica.
  class GroupEnv final : public Env {
   public:
    GroupEnv(ShardedNode* node, uint32_t group) : node_(node), group_(group) {}

    NodeId self() const override { return node_->env()->self(); }
    TimeNs Now() const override { return node_->env()->Now(); }
    void Send(NodeId to, MessagePtr msg) override {
      node_->env()->Send(
          to, MessagePool::Make<ShardEnvelope>(group_, std::move(msg)));
    }
    TimerId SetTimer(TimeNs delay, std::function<void()> cb) override {
      return node_->env()->SetTimer(delay, std::move(cb));
    }
    void CancelTimer(TimerId id) override { node_->env()->CancelTimer(id); }
    Rng& rng() override { return rng_; }
    void ChargeCpu(TimeNs cost) override { node_->env()->ChargeCpu(cost); }
    uint64_t burst() const override { return node_->env()->burst(); }

    void SeedRng(Rng rng) { rng_ = rng; }

   private:
    ShardedNode* node_;
    uint32_t group_;
    Rng rng_{0};
  };

  struct Group {
    std::unique_ptr<Actor> replica;
    std::unique_ptr<GroupEnv> env;
  };

  std::vector<Group> groups_;
};

}  // namespace pig::shard
