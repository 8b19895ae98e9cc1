#include "sim/cluster.h"

#include <cassert>

#include "common/logging.h"

namespace pig::sim {

// Calibration. The paper measured ~2000 req/s for a saturated 25-node
// Multi-Paxos leader on m5a.large (2 vCPU). Per its own §6.1 model the
// leader handles M_l = 2(N-1) + 2 = 50 messages per request, so a
// saturated leader spends ~1/2000 s = 500 us per request, i.e. ~10 us of
// CPU per message — a plausible per-message cost for the Go/JSON Paxi
// stack. 8 us base per message sent or received plus ~3 us of vote
// tallying (PaxosOptions::vote_process_cost) lands 25-node Paxos near the
// paper's 2k req/s; the per-byte cost models serialization + NIC
// bandwidth. All other results (relay-group scaling, protocol ratios,
// crossover points) are emergent. EPaxos adds its own dependency-work
// costs on top (EPaxosOptions::attr_cost and friends).
CpuModel DefaultReplicaCpu() {
  CpuModel cpu;
  cpu.send_base = 8 * kMicrosecond;
  cpu.recv_base = 8 * kMicrosecond;
  cpu.send_per_byte = 2.0;  // ns/byte  (~0.5 GB/s effective)
  cpu.recv_per_byte = 2.0;
  return cpu;
}

// ---------------------------------------------------------------------------

struct PendingDelivery {
  NodeId from;
  MessagePtr msg;
};

struct Cluster::Node {
  NodeId id = kInvalidNode;
  std::unique_ptr<Actor> actor;
  std::unique_ptr<NodeEnv> env;
  CpuModel cpu;
  bool is_client = false;
  bool alive = true;

  TimeNs busy_until = 0;
  TimeNs busy_accum = 0;  // total busy time, for utilization reporting
  double clock_skew = 1.0;  // multiplies timer delays (see SetClockSkew)
  std::deque<PendingDelivery> inbox;
  bool drain_scheduled = false;
  bool rebuild_pending = false;  // CrashWithDisk/-LosingDisk was used
  bool lose_disk = false;        // rebuild must wipe storage first
  // Live timers, few per node: a flat list beats a hash map here.
  std::vector<std::pair<TimerId, EventId>> timers;

  /// Drops `tid` from the live list; returns its scheduler event id, or
  /// 0 (never a valid EventId) when the timer is unknown.
  EventId ForgetTimer(TimerId tid) {
    for (auto& entry : timers) {
      if (entry.first == tid) {
        const EventId eid = entry.second;
        entry = timers.back();
        timers.pop_back();
        return eid;
      }
    }
    return 0;
  }
};

class Cluster::NodeEnv final : public Env {
 public:
  NodeEnv(Cluster* cluster, Node* node, Rng rng)
      : cluster_(cluster), node_(node), rng_(rng) {}

  NodeId self() const override { return node_->id; }
  TimeNs Now() const override { return cluster_->scheduler_.now(); }

  void Send(NodeId to, MessagePtr msg) override {
    if (!node_->alive) return;
    cluster_->SendFrom(*node_, to, std::move(msg));
  }

  TimerId SetTimer(TimeNs delay, std::function<void()> cb) override {
    TimerId tid = next_timer_id_++;
    Node* node = node_;
    if (node->clock_skew != 1.0) {
      delay = static_cast<TimeNs>(static_cast<double>(delay) *
                                  node->clock_skew);
    }
    EventId eid = cluster_->scheduler_.ScheduleAfter(
        delay, [node, tid, cb = std::move(cb)]() {
          node->ForgetTimer(tid);
          if (!node->alive) return;
          cb();
        });
    node_->timers.emplace_back(tid, eid);
    return tid;
  }

  void CancelTimer(TimerId id) override {
    if (EventId eid = node_->ForgetTimer(id)) {
      cluster_->scheduler_.Cancel(eid);
    }
  }

  Rng& rng() override { return rng_; }

  void ChargeCpu(TimeNs cost) override {
    if (cost <= 0) return;
    TimeNs now = Now();
    TimeNs start = std::max(node_->busy_until, now);
    node_->busy_until = start + cost;
    node_->busy_accum += cost;
  }

  // Every scheduler event is its own burst. The scheduler counts an
  // event before running it, so +1 keeps Start() (count 0) apart from
  // the first event.
  uint64_t burst() const override {
    return cluster_->scheduler_.executed_count() + 1;
  }

 private:
  Cluster* cluster_;
  Node* node_;
  Rng rng_;
  TimerId next_timer_id_ = 1;
};

// ---------------------------------------------------------------------------

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      network_(std::make_unique<net::Network>(options.network,
                                              options.seed ^ 0x6e657477ull)),
      master_rng_(options.seed) {}

Cluster::~Cluster() = default;

void Cluster::AddActor(NodeId id, std::unique_ptr<Actor> actor,
                       bool is_client) {
  assert(!started_);
  assert(FindNode(id) == nullptr);
  auto node = std::make_unique<Node>();
  node->id = id;
  node->actor = std::move(actor);
  node->cpu = is_client ? options_.client_cpu : options_.replica_cpu;
  node->is_client = is_client;
  node->env = std::make_unique<NodeEnv>(this, node.get(), master_rng_.Fork());
  node->actor->Bind(node->env.get());
  (is_client ? client_ids_ : replica_ids_).push_back(id);
  std::vector<std::unique_ptr<Node>>& table =
      is_client ? clients_ : replicas_;
  const size_t index = DenseNodeIndex(id);
  if (index >= table.size()) table.resize(index + 1);
  table[index] = std::move(node);
}

void Cluster::AddReplica(NodeId id, std::unique_ptr<Actor> actor) {
  assert(!IsClientId(id));
  AddActor(id, std::move(actor), /*is_client=*/false);
}

void Cluster::AddClient(NodeId id, std::unique_ptr<Actor> actor) {
  assert(IsClientId(id));
  AddActor(id, std::move(actor), /*is_client=*/true);
}

void Cluster::Start() {
  assert(!started_);
  started_ = true;
  for (NodeId id : replica_ids_) FindNode(id)->actor->OnStart();
  for (NodeId id : client_ids_) FindNode(id)->actor->OnStart();
}

Cluster::Node* Cluster::FindNode(NodeId id) {
  const std::vector<std::unique_ptr<Node>>& table =
      IsClientId(id) ? clients_ : replicas_;
  const size_t index = DenseNodeIndex(id);
  return index < table.size() ? table[index].get() : nullptr;
}

const Cluster::Node* Cluster::FindNode(NodeId id) const {
  return const_cast<Cluster*>(this)->FindNode(id);
}

void Cluster::SendFrom(Node& from, NodeId to, MessagePtr msg) {
  assert(msg != nullptr);
  const size_t bytes = msg->WireSize();

  // Charge the sender's CPU; the message departs when the CPU reaches it.
  TimeNs now = scheduler_.now();
  TimeNs cost = from.cpu.SendCost(bytes);
  TimeNs start = std::max(from.busy_until, now);
  from.busy_until = start + cost;
  from.busy_accum += cost;
  TimeNs departure = from.busy_until;

  TimeNs duplicate_latency = -1;
  std::optional<TimeNs> latency =
      network_->Transfer(from.id, to, bytes, &duplicate_latency);
  if (!latency.has_value()) return;  // dropped / partitioned

  NodeId from_id = from.id;
  auto deliver_at = [this, from_id, to, bytes](TimeNs arrival,
                                               MessagePtr copy) {
    scheduler_.ScheduleAt(
        arrival, [this, from_id, to, bytes, msg = std::move(copy)]() mutable {
          Node* dest = FindNode(to);
          if (dest == nullptr || !dest->alive) return;
          network_->RecordDelivery(to, bytes);
          EnqueueDelivery(*dest, from_id, std::move(msg));
        });
  };
  if (duplicate_latency >= 0) {
    // A duplicated delivery shares the message object, exactly like a
    // broadcast fan-out does: handlers treat inbound messages as
    // immutable.
    deliver_at(departure + duplicate_latency, msg);
  }
  deliver_at(departure + *latency, std::move(msg));
}

void Cluster::EnqueueDelivery(Node& node, NodeId from, MessagePtr msg) {
  node.inbox.push_back(PendingDelivery{from, std::move(msg)});
  if (!node.drain_scheduled) {
    node.drain_scheduled = true;
    TimeNs at = std::max(scheduler_.now(), node.busy_until);
    NodeId id = node.id;
    scheduler_.ScheduleAt(at, [this, id]() { Drain(id); });
  }
}

void Cluster::Drain(NodeId id) {
  Node* node = FindNode(id);
  if (node == nullptr) return;
  node->drain_scheduled = false;
  if (!node->alive || node->inbox.empty()) return;

  PendingDelivery item = std::move(node->inbox.front());
  node->inbox.pop_front();

  // Charge parse/dispatch cost, then run the handler. Sends inside the
  // handler stack further CPU time onto busy_until.
  TimeNs now = scheduler_.now();
  TimeNs cost = node->cpu.RecvCost(item.msg->WireSize());
  TimeNs start = std::max(node->busy_until, now);
  node->busy_until = start + cost;
  node->busy_accum += cost;

  node->actor->OnMessage(item.from, item.msg);

  if (!node->inbox.empty() && !node->drain_scheduled) {
    node->drain_scheduled = true;
    TimeNs at = std::max(scheduler_.now(), node->busy_until);
    scheduler_.ScheduleAt(at, [this, id]() { Drain(id); });
  }
}

void Cluster::Crash(NodeId id) {
  CrashImpl(id, /*rebuild=*/false, /*lose_disk=*/false);
}

void Cluster::CrashWithDisk(NodeId id) {
  CrashImpl(id, /*rebuild=*/true, /*lose_disk=*/false);
}

void Cluster::CrashLosingDisk(NodeId id) {
  CrashImpl(id, /*rebuild=*/true, /*lose_disk=*/true);
}

void Cluster::CrashImpl(NodeId id, bool rebuild, bool lose_disk) {
  Node* node = FindNode(id);
  if (node == nullptr || !node->alive) return;
  PIG_LOG(kInfo) << "crash node " << id << " at t=" << ToMillis(Now())
                 << "ms"
                 << (rebuild ? (lose_disk ? " (losing disk)" : " (with disk)")
                             : "");
  node->alive = false;
  node->inbox.clear();
  for (const auto& [tid, eid] : node->timers) scheduler_.Cancel(eid);
  node->timers.clear();
  node->rebuild_pending = node->rebuild_pending || rebuild;
  node->lose_disk = node->lose_disk || lose_disk;
}

void Cluster::Recover(NodeId id) {
  Node* node = FindNode(id);
  if (node == nullptr || node->alive) return;
  PIG_LOG(kInfo) << "recover node " << id << " at t=" << ToMillis(Now())
                 << "ms";
  if (node->rebuild_pending) {
    if (rebuild_hook_) {
      // Tear down the dead incarnation before building the new one: both
      // would otherwise hold the same Storage at once.
      node->actor.reset();
      node->actor = rebuild_hook_(id, node->lose_disk);
      assert(node->actor != nullptr);
      node->actor->Bind(node->env.get());
    } else {
      PIG_LOG(kWarn) << "recover node " << id
                     << ": no rebuild hook, state retained despite "
                        "crash-with-disk semantics";
    }
    node->rebuild_pending = false;
    node->lose_disk = false;
  }
  node->alive = true;
  node->busy_until = scheduler_.now();
  node->actor->OnStart();
}

void Cluster::SetClockSkew(NodeId id, double factor) {
  assert(factor > 0);
  Node* node = FindNode(id);
  if (node == nullptr) return;
  if (factor != node->clock_skew) {
    PIG_LOG(kInfo) << "clock skew node " << id << " x" << factor
                   << " at t=" << ToMillis(Now()) << "ms";
  }
  node->clock_skew = factor;
}

double Cluster::ClockSkewOf(NodeId id) const {
  const Node* node = FindNode(id);
  return node == nullptr ? 1.0 : node->clock_skew;
}

bool Cluster::IsAlive(NodeId id) const {
  const Node* node = FindNode(id);
  return node != nullptr && node->alive;
}

void Cluster::CrashAt(TimeNs when, NodeId id) {
  scheduler_.ScheduleAt(when, [this, id]() { Crash(id); });
}

void Cluster::RecoverAt(TimeNs when, NodeId id) {
  scheduler_.ScheduleAt(when, [this, id]() { Recover(id); });
}

Actor* Cluster::actor(NodeId id) {
  Node* node = FindNode(id);
  return node == nullptr ? nullptr : node->actor.get();
}

double Cluster::CpuUtilization(NodeId id, TimeNs window) const {
  const Node* node = FindNode(id);
  if (node == nullptr || window <= 0) return 0.0;
  return static_cast<double>(node->busy_accum) /
         static_cast<double>(window);
}

void Cluster::ResetCpuStats() {
  for (const std::vector<std::unique_ptr<Node>>* table :
       {&replicas_, &clients_}) {
    for (const std::unique_ptr<Node>& node : *table) {
      if (node) node->busy_accum = 0;
    }
  }
}

}  // namespace pig::sim
