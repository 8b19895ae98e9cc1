#include "conformance.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "baselines/ring_replica.h"
#include "harness/scenario.h"
#include "history_client.h"
#include "linearizability.h"
#include "shard/router.h"
#include "shard/sharded_node.h"
#include "statemachine/batch.h"
#include "storage/mem_storage.h"
#include "test_util.h"

namespace pig::test {
namespace {

// ---------------------------------------------------------------------------
// Cluster construction

paxos::PaxosOptions MakePaxosOptions(const ConformanceConfig& cfg,
                                     bool inject_fault) {
  paxos::PaxosOptions popt;
  popt.num_replicas = cfg.num_replicas;
  popt.batch_size = cfg.batch_size;
  popt.pipeline_depth = cfg.pipeline_depth;
  // Default: never compact, so invariant checking scans the whole log
  // (and the snapshot path stays out of the per-key version accounting).
  // Durability rows override to exercise snapshot + state transfer; the
  // full-prefix checks gate themselves on first_slot() then.
  popt.compaction_window =
      cfg.compaction_window > 0 ? cfg.compaction_window : (1u << 30);
  popt.snapshot_interval = cfg.snapshot_interval;
  popt.test_fault_count_duplicate_votes = inject_fault;
  if (cfg.flexible_q1 > 0 && cfg.flexible_q2 > 0) {
    popt.quorum = std::make_shared<FlexibleQuorum>(
        cfg.num_replicas, cfg.flexible_q1, cfg.flexible_q2);
  }
  return popt;
}

pigpaxos::PigPaxosOptions MakePigOptions(const ConformanceConfig& cfg,
                                         bool inject_fault) {
  pigpaxos::PigPaxosOptions opt;
  opt.paxos = MakePaxosOptions(cfg, inject_fault);
  opt.num_relay_groups = cfg.relay_groups;
  opt.group_overlap = cfg.group_overlap;
  opt.relay_timeout = 20 * kMillisecond;
  opt.uplink_coalesce_max = cfg.uplink_coalesce_max;
  opt.relay_layers = static_cast<uint32_t>(cfg.relay_layers);
  opt.reshuffle_interval = cfg.reshuffle_interval;
  if (cfg.scenario.topology == harness::Topology::kWanVaCaOr) {
    // One relay group per region (§6.4), as the harness does for WAN.
    opt.grouping = pigpaxos::GroupingStrategy::kRegion;
    const size_t n = cfg.num_replicas;
    opt.region_of = [n](NodeId node) {
      return harness::WanRegionOfNode(node, n);
    };
  }
  return opt;
}

/// Per-(node, group) in-memory fault-injecting storage for durability
/// runs. Owned by RunConformance, shared by initial construction and
/// every crash-with-disk rebuild of the same node.
struct StorageBank {
  std::vector<std::vector<std::unique_ptr<storage::MemStorage>>> stores;

  void Init(size_t nodes, uint32_t groups) {
    stores.clear();
    stores.resize(nodes);
    for (auto& per_node : stores) {
      for (uint32_t g = 0; g < groups; ++g) {
        per_node.push_back(std::make_unique<storage::MemStorage>());
      }
    }
  }
  storage::MemStorage* at(NodeId i, uint32_t g) {
    return stores[i][g].get();
  }
};

/// Builds node `i`'s actor (ring / sharded / pig / flat paxos). With a
/// bank, each hosted replica gets its persistent MemStorage and recovers
/// from it in its constructor — the same path a rebuilt node takes after
/// CrashWithDisk.
std::unique_ptr<Actor> BuildNodeActor(const ConformanceConfig& cfg,
                                      bool inject_fault, NodeId i,
                                      StorageBank* bank) {
  if (cfg.use_epaxos) {
    epaxos::EPaxosOptions opt;
    opt.num_replicas = cfg.num_replicas;
    opt.retry_interval = cfg.epaxos_retry_interval;
    opt.commit_rebroadcasts = cfg.epaxos_commit_rebroadcasts;
    return std::make_unique<epaxos::EPaxosReplica>(i, opt);
  }
  if (cfg.use_ring) {
    baselines::RingOptions opt;
    opt.paxos = MakePaxosOptions(cfg, inject_fault);
    if (bank != nullptr) opt.paxos.storage = bank->at(i, 0);
    return std::make_unique<baselines::RingReplica>(i, opt);
  }
  if (cfg.num_groups > 1) {
    // Sharded: every node hosts one replica per consensus group; group g
    // bootstraps its leader on node g % n so leader load spreads.
    auto node = std::make_unique<shard::ShardedNode>(cfg.num_groups);
    for (uint32_t g = 0; g < cfg.num_groups; ++g) {
      const NodeId bootstrap = static_cast<NodeId>(g % cfg.num_replicas);
      if (cfg.use_pig) {
        pigpaxos::PigPaxosOptions opt = MakePigOptions(cfg, inject_fault);
        opt.paxos.bootstrap_leader = bootstrap;
        if (bank != nullptr) opt.paxos.storage = bank->at(i, g);
        node->AddGroup(std::make_unique<pigpaxos::PigPaxosReplica>(i, opt));
      } else {
        paxos::PaxosOptions opt = MakePaxosOptions(cfg, inject_fault);
        opt.bootstrap_leader = bootstrap;
        if (bank != nullptr) opt.storage = bank->at(i, g);
        node->AddGroup(std::make_unique<paxos::PaxosReplica>(i, opt));
      }
    }
    return node;
  }
  if (cfg.use_pig) {
    pigpaxos::PigPaxosOptions opt = MakePigOptions(cfg, inject_fault);
    if (bank != nullptr) opt.paxos.storage = bank->at(i, 0);
    return std::make_unique<pigpaxos::PigPaxosReplica>(i, opt);
  }
  paxos::PaxosOptions opt = MakePaxosOptions(cfg, inject_fault);
  if (bank != nullptr) opt.storage = bank->at(i, 0);
  return std::make_unique<paxos::PaxosReplica>(i, opt);
}

void AddReplicas(sim::Cluster& cluster, const ConformanceConfig& cfg,
                 bool inject_fault, StorageBank* bank = nullptr) {
  for (NodeId i = 0; i < cfg.num_replicas; ++i) {
    cluster.AddReplica(i, BuildNodeActor(cfg, inject_fault, i, bank));
  }
}

std::vector<HistoryClient*> AddClients(sim::Cluster& cluster,
                                       const ConformanceConfig& cfg) {
  std::vector<HistoryClient*> clients;
  for (uint32_t i = 0; i < cfg.num_clients; ++i) {
    HistoryClient::Config ccfg;
    ccfg.num_replicas = cfg.num_replicas;
    ccfg.num_keys = cfg.num_keys;
    ccfg.read_ratio = cfg.read_ratio;
    ccfg.index = i;
    ccfg.num_groups = cfg.num_groups;
    ccfg.targeting = cfg.use_epaxos ? HistoryClient::Targeting::kFixedSpread
                                    : HistoryClient::Targeting::kLeader;
    auto owner = std::make_unique<HistoryClient>(ccfg);
    clients.push_back(owner.get());
    cluster.AddClient(sim::Cluster::MakeClientId(i), std::move(owner));
  }
  return clients;
}

// ---------------------------------------------------------------------------
// Invariant checking (shared by the randomized runs and the scripted
// fault scenario).

/// The group-g Paxos view of node `id`: the actor itself in classic
/// runs, the hosted group replica in sharded ones.
const paxos::PaxosReplica* GroupPaxosAt(sim::Cluster& cluster,
                                        const ConformanceConfig& cfg,
                                        NodeId id, uint32_t g) {
  if (cfg.num_groups <= 1) return PaxosAt(cluster, id);
  return static_cast<const paxos::PaxosReplica*>(
      static_cast<shard::ShardedNode*>(cluster.actor(id))->group_actor(g));
}

/// Leaderless invariant set (EPaxos). There is no log or leader;
/// agreement is per *instance*: two replicas that both committed an
/// instance must agree on its command and final attributes, dependency
/// execution must have drained everywhere, and all stores must converge.
/// Exactly-once and no-lost-ack run against the union of committed
/// instances across replicas.
std::string CheckEPaxosInvariants(sim::Cluster& cluster,
                                  const ConformanceConfig& cfg,
                                  const std::vector<HistoryClient*>& clients,
                                  ConformanceResult* result) {
  const size_t n = cfg.num_replicas;
  for (auto* c : clients) {
    result->completed_ops += c->history.size();
    result->acked_writes += c->acked_write_seqs.size();
  }

  using epaxos::DepSet;
  using epaxos::EPaxosReplica;
  using epaxos::InstanceId;
  struct Committed {
    Command cmd;
    uint64_t seq = 0;
    DepSet deps;
    NodeId first_seen = kInvalidNode;
  };
  // (owner replica, instance index) -> first-seen committed value.
  std::map<std::pair<NodeId, uint64_t>, Committed> canon;
  std::string violation;
  for (NodeId i = 0; i < n; ++i) {
    EPaxosAt(cluster, i)->ForEachCommitted(
        [&](const InstanceId& id, const EPaxosReplica::Instance& inst) {
          if (!violation.empty()) return;
          DepSet deps = inst.deps;
          std::sort(deps.begin(), deps.end());
          auto [it, fresh] = canon.try_emplace(
              std::make_pair(id.replica, id.index),
              Committed{inst.cmd, inst.seq, deps, i});
          if (fresh) return;
          const Committed& c = it->second;
          if (!(c.cmd == inst.cmd) || c.seq != inst.seq ||
              c.deps != deps) {
            std::ostringstream msg;
            msg << "instance disagreement: " << id.replica << "."
                << id.index << ": replica " << c.first_seen
                << " committed " << c.cmd.DebugString() << " seq " << c.seq
                << " but replica " << i << " committed "
                << inst.cmd.DebugString() << " seq " << inst.seq;
            violation = msg.str();
          }
        });
  }
  if (!violation.empty()) return violation;

  // Dependency execution drained: nothing committed may still be
  // waiting on an uncommitted dependency after the healed quiesce.
  for (NodeId i = 0; i < n; ++i) {
    const size_t stuck = EPaxosAt(cluster, i)->committed_unexecuted();
    if (stuck > 0) {
      return "replica " + std::to_string(i) + " still has " +
             std::to_string(stuck) +
             " committed-unexecuted instances after quiesce";
    }
  }

  // Store convergence across ALL replicas (leaderless: no reference
  // node is special, so replica 0's store is the arbitrary baseline).
  const auto reference = EPaxosAt(cluster, 0)->store().Dump();
  for (NodeId i = 1; i < n; ++i) {
    if (EPaxosAt(cluster, i)->store().Dump() != reference) {
      return "stores diverged at replica " + std::to_string(i);
    }
  }

  // Exactly-once: per key, the store version must equal the number of
  // distinct committed (client, seq) writes — a client resend that
  // committed in TWO instances must still apply once (dup_exec_skips).
  std::map<std::pair<NodeId, uint64_t>, int> committed;
  std::map<std::string, uint64_t> distinct_writes_per_key;
  for (const auto& [id, c] : canon) {
    (void)id;
    if (c.cmd.IsNoop() || c.cmd.client == kInvalidNode) continue;
    int& count = committed[{c.cmd.client, c.cmd.seq}];
    count++;
    if (count == 1 && c.cmd.IsWrite()) distinct_writes_per_key[c.cmd.key]++;
  }
  result->committed_commands = committed.size();
  for (const auto& [key, writes] : distinct_writes_per_key) {
    const uint64_t version = EPaxosAt(cluster, 0)->store().VersionOf(key);
    if (version != writes) {
      std::ostringstream msg;
      msg << "key " << key << ": " << writes
          << " distinct committed writes but store version " << version
          << " (duplicate or lost apply)";
      return msg.str();
    }
  }

  // Linearizability of the merged client-visible history.
  std::vector<HistoryOp> history;
  for (auto* c : clients) {
    history.insert(history.end(), c->history.begin(), c->history.end());
  }
  std::string lin = CheckLinearizability(history);
  if (!lin.empty()) return "linearizability: " + lin;

  // No lost command: every acknowledged write committed in SOME instance.
  for (auto* c : clients) {
    for (uint64_t seq : c->acked_write_seqs) {
      NodeId id = c->history.empty() ? kInvalidNode : c->history[0].client;
      if (id == kInvalidNode) continue;
      if (committed.find({id, seq}) == committed.end()) {
        return "acknowledged write c" + std::to_string(id) + "#" +
               std::to_string(seq) + " missing from committed instances";
      }
    }
  }
  return "";
}

std::string CheckInvariants(sim::Cluster& cluster,
                            const ConformanceConfig& cfg,
                            const std::vector<HistoryClient*>& clients,
                            ConformanceResult* result) {
  if (cfg.use_epaxos) {
    return CheckEPaxosInvariants(cluster, cfg, clients, result);
  }
  const size_t n = cfg.num_replicas;
  const uint32_t groups = cfg.num_groups > 0 ? cfg.num_groups : 1;
  for (auto* c : clients) {
    result->completed_ops += c->history.size();
    result->acked_writes += c->acked_write_seqs.size();
  }

  // The group-scoped invariants, once per consensus group (the classic
  // run is the one-group special case). (client,seq) commit counts
  // accumulate across groups: a command must commit in exactly one.
  std::map<std::pair<NodeId, uint64_t>, int> committed;
  // Set when any group leader's log starts above slot 0 (compaction or a
  // snapshot install): the prefix scan is partial then, so the version
  // and lost-ack accounting below would undercount and must be skipped.
  bool any_compacted = false;
  for (uint32_t g = 0; g < groups; ++g) {
    const std::string tag =
        groups > 1 ? " (group " + std::to_string(g) + ")" : "";

    NodeId leader = kInvalidNode;
    for (NodeId i = 0; i < n; ++i) {
      if (cluster.IsAlive(i) &&
          GroupPaxosAt(cluster, cfg, i, g)->IsLeader()) {
        leader = i;
        break;
      }
    }
    if (leader == kInvalidNode) return "no leader after quiesce" + tag;

    // Log-prefix agreement: no slot committed differently anywhere.
    for (NodeId a = 0; a < n; ++a) {
      const auto& la = GroupPaxosAt(cluster, cfg, a, g)->log();
      for (NodeId b = a + 1; b < n; ++b) {
        const auto& lb = GroupPaxosAt(cluster, cfg, b, g)->log();
        const SlotId lo = std::max(la.first_slot(), lb.first_slot());
        const SlotId hi = std::min(la.last_slot(), lb.last_slot());
        for (SlotId s = lo; s <= hi; ++s) {
          const LogEntry* ea = la.Get(s);
          const LogEntry* eb = lb.Get(s);
          if (ea == nullptr || eb == nullptr) continue;
          if (ea->committed && eb->committed &&
              !(ea->command == eb->command)) {
            std::ostringstream msg;
            msg << "log disagreement" << tag << ": slot " << s
                << ": replica " << a << " committed "
                << ea->command.DebugString() << " but replica " << b
                << " committed " << eb->command.DebugString();
            return msg.str();
          }
        }
      }
    }

    // Convergence: after the quiesce every live store matches the
    // leader's (crashed replicas legitimately lag — but their *logs*
    // are still held to the agreement check above).
    auto reference = GroupPaxosAt(cluster, cfg, leader, g)->store().Dump();
    for (NodeId i = 0; i < n; ++i) {
      if (!cluster.IsAlive(i) || i == leader) continue;
      if (GroupPaxosAt(cluster, cfg, i, g)->store().Dump() != reference) {
        return "stores diverged at replica " + std::to_string(i) + tag;
      }
    }

    // Committed-prefix holes must never survive compaction + sync, on
    // ANY live replica: a new leader that compacted below a settled slot
    // must close the gap via state transfer, not leave it (or worse,
    // noop-plug it — that shows up as log disagreement above).
    for (NodeId i = 0; i < n; ++i) {
      if (!cluster.IsAlive(i)) continue;
      const auto& li = GroupPaxosAt(cluster, cfg, i, g)->log();
      const SlotId lci = li.ContiguousCommitIndex();
      for (SlotId s = li.first_slot(); s <= lci; ++s) {
        const LogEntry* e = li.Get(s);
        if (e == nullptr || !e->committed) {
          return "hole at slot " + std::to_string(s) +
                 " inside replica " + std::to_string(i) +
                 "'s committed prefix" + tag;
        }
      }
    }

    // Scan the group leader's contiguous committed prefix.
    const auto* lead = GroupPaxosAt(cluster, cfg, leader, g);
    const ReplicatedLog& log = lead->log();
    const SlotId ci = log.ContiguousCommitIndex();
    any_compacted = any_compacted || log.first_slot() > 0;
    std::map<std::string, uint64_t> distinct_writes_per_key;
    std::string membership;
    for (SlotId s = log.first_slot(); s <= ci; ++s) {
      const LogEntry* e = log.Get(s);
      if (e == nullptr || !e->committed) {
        return "hole at slot " + std::to_string(s) +
               " inside the committed prefix" + tag;
      }
      ForEachCommand(e->command, [&](const Command& c) {
        if (c.IsNoop() || c.client == kInvalidNode) return;
        // Membership: every committed command — batch sub-commands
        // included — must belong to the group its key hashes to.
        if (groups > 1 && membership.empty() &&
            shard::GroupOfKey(c.key, groups) != g) {
          membership = "key " + c.key + " committed in group " +
                       std::to_string(g) + " but hashes to group " +
                       std::to_string(shard::GroupOfKey(c.key, groups));
        }
        int& count = committed[{c.client, c.seq}];
        count++;
        if (count == 1 && c.IsWrite()) distinct_writes_per_key[c.key]++;
      });
    }
    if (!membership.empty()) return membership;
    for (NodeId i = 0; i < n; ++i) {
      result->batches_proposed +=
          GroupPaxosAt(cluster, cfg, i, g)->metrics().batches_proposed;
    }

    // No duplicated command: a write applied twice bumps the key's
    // version past the number of distinct committed writes; one skipped
    // falls short. (The log may legally hold a (client,seq) in two
    // slots after failover; execution must still be exactly-once.)
    // Vacuous once the prefix scan is partial: compacted writes are
    // counted in the version but invisible to the scan.
    if (log.first_slot() == 0) {
      for (const auto& [key, writes] : distinct_writes_per_key) {
        const uint64_t version = lead->store().VersionOf(key);
        if (version != writes) {
          std::ostringstream msg;
          msg << "key " << key << ": " << writes
              << " distinct committed writes but store version " << version
              << " (duplicate or lost apply)" << tag;
          return msg.str();
        }
      }
    }
  }
  result->committed_commands = committed.size();

  // Linearizability of the merged client-visible history (sound across
  // groups too: the keyspace partition is disjoint and every checker
  // axiom is per-key).
  std::vector<HistoryOp> history;
  for (auto* c : clients) {
    history.insert(history.end(), c->history.begin(), c->history.end());
  }
  std::string lin = CheckLinearizability(history);
  if (!lin.empty()) return "linearizability: " + lin;

  // No lost command: every acknowledged write is in the committed prefix.
  // Skipped when a scan was partial — a compacted ack is not a lost ack
  // (store convergence and linearizability still cover those runs).
  if (any_compacted) return "";
  for (auto* c : clients) {
    for (uint64_t seq : c->acked_write_seqs) {
      // HistoryClient i registered as MakeClientId(i); recover the id
      // from its recorded history (all ops share one client id).
      NodeId id = c->history.empty() ? kInvalidNode : c->history[0].client;
      if (id == kInvalidNode) continue;
      if (committed.find({id, seq}) == committed.end()) {
        return "acknowledged write c" + std::to_string(id) + "#" +
               std::to_string(seq) + " missing from the committed prefix";
      }
    }
  }
  return "";
}

}  // namespace

// ---------------------------------------------------------------------------

ConformanceResult RunConformance(const ConformanceConfig& cfg,
                                 uint64_t seed) {
  sim::ClusterOptions copt;
  copt.seed = seed;
  copt.network.drop_probability = cfg.drop_probability;
  harness::ScenarioRuntime scenario_rt;
  if (cfg.scripted()) {
    scenario_rt = harness::PrepareScenario(cfg.scenario, cfg.num_replicas);
    if (scenario_rt.latency) copt.network.latency = scenario_rt.latency;
  }
  // The bank outlives the cluster: replicas (including rebuilt ones)
  // hold raw pointers into it.
  StorageBank bank;
  const bool with_disk = cfg.disk != DiskMode::kNone;
  sim::Cluster cluster(copt);
  if (with_disk) {
    bank.Init(cfg.num_replicas, cfg.num_groups > 0 ? cfg.num_groups : 1);
    cluster.SetRebuildHook([&cfg, &bank](NodeId id, bool lose_disk) {
      const uint32_t groups = cfg.num_groups > 0 ? cfg.num_groups : 1;
      for (uint32_t g = 0; g < groups; ++g) {
        // kill -9 semantics: appends after the last Sync barrier never
        // reached disk; a lost disk loses everything.
        if (lose_disk) {
          bank.at(id, g)->WipeAll();
        } else {
          bank.at(id, g)->DropUnsynced();
        }
      }
      return BuildNodeActor(cfg, /*inject_fault=*/false, id, &bank);
    });
  }
  AddReplicas(cluster, cfg, /*inject_fault=*/false,
              with_disk ? &bank : nullptr);
  std::vector<HistoryClient*> clients = AddClients(cluster, cfg);
  cluster.Start();

  // Let the bootstrap leader settle before the abuse starts.
  cluster.RunFor(150 * kMillisecond);

  const size_t n = cfg.num_replicas;
  if (cfg.scripted()) {
    // Scripted scenario: the spec's fault events, offset by the settle
    // phase, replace the randomized chaos rounds. HealScenario then
    // undoes every scripted condition (crashes, partitions, links, gray
    // slowdowns) so the common quiesce below starts clean.
    harness::ScenarioSpec shifted = cfg.scenario;
    const TimeNs base = cluster.Now();
    TimeNs last = base;
    for (harness::FaultEvent& e : shifted.schedule) {
      e.at += base;
      last = std::max(last, e.at);
    }
    harness::ScheduleScenario(shifted, scenario_rt, cluster);
    cluster.RunUntil(last + cfg.scripted_tail);
    harness::HealScenario(shifted, scenario_rt, cluster, n);
  } else {
    const size_t max_down = (n - 1) / 2;  // a majority always stays up
    Rng chaos(seed * 7919 + 0x5bd1e995);
    std::vector<bool> down(n, false);
    size_t num_down = 0;
    bool disk_lost = false;  // kLosingDisk's one-replacement budget
    for (int round = 0; round < cfg.chaos_rounds; ++round) {
      const uint64_t dice = chaos.NextBounded(100);
      // EPaxos rows take partitions and heals only: crash recovery needs
      // explicit prepare (not implemented) and there are no elections.
      if (dice < 30) {
        if (!cfg.use_epaxos && num_down < max_down) {
          NodeId victim = static_cast<NodeId>(chaos.NextBounded(n));
          if (!down[victim]) {
            switch (cfg.disk) {
              case DiskMode::kNone:
                cluster.Crash(victim);
                break;
              case DiskMode::kWithDisk:
                cluster.CrashWithDisk(victim);
                break;
              case DiskMode::kLosingDisk:
                if (!disk_lost) {
                  cluster.CrashLosingDisk(victim);
                  disk_lost = true;
                } else {
                  cluster.CrashWithDisk(victim);
                }
                break;
            }
            down[victim] = true;
            num_down++;
          }
        }
      } else if (dice < 50) {
        if (num_down > 0) {
          NodeId pick = static_cast<NodeId>(chaos.NextBounded(n));
          for (size_t step = 0; step < n; ++step) {
            NodeId i = static_cast<NodeId>((pick + step) % n);
            if (down[i]) {
              cluster.Recover(i);
              down[i] = false;
              num_down--;
              break;
            }
          }
        }
      } else if (dice < 65) {
        for (NodeId i = 0; i < n; ++i) {
          cluster.network().SetPartitionGroup(
              i, static_cast<int>(chaos.NextBounded(2)));
        }
      } else if (dice < 75) {
        cluster.network().HealPartitions();
      } else if (dice < 85) {
        NodeId who = static_cast<NodeId>(chaos.NextBounded(n));
        if (!cfg.use_epaxos && !down[who]) {
          if (cfg.num_groups > 1) {
            // Churn one random group's leadership; the others must ride
            // through untouched.
            auto* node =
                static_cast<shard::ShardedNode*>(cluster.actor(who));
            const size_t g = chaos.NextBounded(cfg.num_groups);
            static_cast<paxos::PaxosReplica*>(node->group_actor(g))
                ->TriggerElection();
          } else {
            static_cast<paxos::PaxosReplica*>(cluster.actor(who))
                ->TriggerElection();
          }
        }
      }  // else: a calm round
      cluster.RunFor(cfg.round_length);
    }
    for (NodeId i = 0; i < n; ++i) {
      if (down[i]) cluster.Recover(i);
    }
  }

  // Heal everything and quiesce: drop partitions and message loss, let
  // traffic flow cleanly for a while, then stop the clients and drain so
  // replicas converge with no in-flight tail.
  cluster.network().HealPartitions();
  cluster.network().set_drop_probability(0);
  cluster.RunFor(cfg.quiesce / 2);
  for (HistoryClient* c : clients) c->Stop();
  cluster.RunFor(cfg.quiesce / 2);

  ConformanceResult result;
  result.violation = CheckInvariants(cluster, cfg, clients, &result);
  if (result.violation.empty() && result.completed_ops == 0) {
    result.violation = "no client operation completed (liveness)";
  }
  return result;
}

ConformanceResult RunDuplicateVoteFaultScenario(uint64_t seed,
                                                bool inject_fault) {
  // 5 nodes, contiguous groups {1,2} / {3,4}, overlap 1 -> {1,2,3} and
  // {3,4,1}: node 1 sits in both groups, so with 2,3,4 crashed every
  // retried fan-out eventually reaches node 1 twice. Leader + node 1 is
  // only 2 of the 3 votes quorum needs — unless the reverted dedup
  // counts the duplicate, fabricating a commit that phase 2 then loses.
  ConformanceConfig cfg;
  cfg.name = "duplicate-vote-fault";
  cfg.use_pig = true;
  cfg.num_replicas = 5;
  cfg.num_clients = 1;
  cfg.num_keys = 1;
  cfg.read_ratio = 0.0;  // writes only: every ack must survive

  sim::ClusterOptions copt;
  copt.seed = seed;
  sim::Cluster cluster(copt);
  {
    pigpaxos::PigPaxosOptions opt;
    opt.paxos = MakePaxosOptions(cfg, inject_fault);
    // Keep follower 1 from starting elections while the majority is
    // down (2 live nodes can elect nobody), and retry proposals fast so
    // the duplicate-vote path gets exercised quickly.
    opt.paxos.election_timeout_min = 600 * kMillisecond;
    opt.paxos.election_timeout_max = 900 * kMillisecond;
    opt.paxos.propose_retry_timeout = 100 * kMillisecond;
    opt.num_relay_groups = cfg.relay_groups;
    opt.group_overlap = 1;
    opt.relay_timeout = 20 * kMillisecond;
    for (NodeId i = 0; i < cfg.num_replicas; ++i) {
      cluster.AddReplica(
          i, std::make_unique<pigpaxos::PigPaxosReplica>(i, opt));
    }
  }
  std::vector<HistoryClient*> clients = AddClients(cluster, cfg);
  cluster.Start();
  cluster.RunFor(150 * kMillisecond);

  // Phase 1: majority down; only duplicate votes could commit anything
  // beyond the pre-crash baseline.
  cluster.Crash(2);
  cluster.Crash(3);
  cluster.Crash(4);
  const size_t baseline_acked = clients[0]->acked_write_seqs.size();
  for (int i = 0;
       i < 15 && clients[0]->acked_write_seqs.size() == baseline_acked;
       ++i) {
    cluster.RunFor(200 * kMillisecond);
  }

  // Phase 2: lose the fake-quorum participants for good and recover the
  // rest. {2,3,4} is a legitimate quorum that never saw any phase-1
  // commit, so it elects a leader and commits fresh commands into the
  // same slots: with the fault, node 0's fabricated committed history
  // now conflicts (log disagreement) and its acknowledged writes are
  // gone from the surviving prefix. (Recovering 0/1 instead would let
  // the new leader *adopt* the fabricated-but-committed entries in
  // phase 1 of its election — Paxos legitimizes what it cannot
  // distinguish — which is exactly why the write had to be durable on a
  // real quorum in the first place.)
  cluster.Recover(2);
  cluster.Recover(3);
  cluster.Recover(4);
  cluster.Crash(0);
  cluster.Crash(1);
  cluster.RunFor(4 * kSecond);  // elections among {2,3,4}, fresh commits
  for (HistoryClient* c : clients) c->Stop();
  cluster.RunFor(1500 * kMillisecond);

  ConformanceResult result;
  result.violation = CheckInvariants(cluster, cfg, clients, &result);
  return result;
}

ConformanceResult RunDuplicationFaultScenario(uint64_t seed,
                                              DedupFault fault) {
  // Flat Paxos under 100% network duplication: every message on every
  // link (client requests included) is delivered twice. Three layers of
  // dedup keep that harmless — P2b vote masks, client-request admission,
  // apply-time exactly-once — and this scenario proves the harness
  // notices when either client-side layer is reverted:
  //   * kClientRecords: a duplicated ClientRequest is proposed twice and
  //     each commit is applied, so the key's version overshoots the
  //     distinct committed writes.
  //   * kVoteCount: with the majority down, the lone follower's
  //     duplicated P2b fakes a quorum (leader + follower + echo = "3");
  //     a later legitimate quorum that never saw those commits rewrites
  //     the slots, exposing log disagreement / lost acks.
  ConformanceConfig cfg;
  cfg.name = "duplication-fault";
  cfg.use_pig = false;
  cfg.num_replicas = 5;
  cfg.num_clients = 1;
  cfg.num_keys = 1;
  cfg.read_ratio = 0.0;  // writes only: every ack must survive

  sim::ClusterOptions copt;
  copt.seed = seed;
  sim::Cluster cluster(copt);
  {
    paxos::PaxosOptions opt =
        MakePaxosOptions(cfg, fault == DedupFault::kVoteCount);
    opt.test_fault_no_client_dedup = fault == DedupFault::kClientRecords;
    // Keep follower 1 from starting elections while the majority is
    // down, and retry proposals fast so duplicated votes get exercised.
    opt.election_timeout_min = 600 * kMillisecond;
    opt.election_timeout_max = 900 * kMillisecond;
    opt.propose_retry_timeout = 100 * kMillisecond;
    for (NodeId i = 0; i < cfg.num_replicas; ++i) {
      cluster.AddReplica(i,
                         std::make_unique<paxos::PaxosReplica>(i, opt));
    }
  }
  std::vector<HistoryClient*> clients = AddClients(cluster, cfg);
  cluster.network().SetLinkDuplicate(kInvalidNode, kInvalidNode, 1.0);
  cluster.Start();
  // Settle + duplicated clean traffic: with kClientRecords the double
  // applies already accumulate here, on a full healthy quorum.
  cluster.RunFor(400 * kMillisecond);

  // Phase 1: majority down. Only a duplicated vote counted twice could
  // commit (and ack) anything beyond the pre-crash baseline.
  cluster.Crash(2);
  cluster.Crash(3);
  cluster.Crash(4);
  const size_t baseline_acked = clients[0]->acked_write_seqs.size();
  for (int i = 0;
       i < 15 && clients[0]->acked_write_seqs.size() == baseline_acked;
       ++i) {
    cluster.RunFor(200 * kMillisecond);
  }

  // Phase 2: lose the fake-quorum participants, recover the rest.
  // {2,3,4} is a legitimate quorum that never saw any phase-1 commit;
  // it elects a leader and commits fresh commands into the same slots.
  cluster.Recover(2);
  cluster.Recover(3);
  cluster.Recover(4);
  cluster.Crash(0);
  cluster.Crash(1);
  cluster.RunFor(4 * kSecond);
  for (HistoryClient* c : clients) c->Stop();
  cluster.RunFor(1500 * kMillisecond);

  ConformanceResult result;
  result.violation = CheckInvariants(cluster, cfg, clients, &result);
  return result;
}

}  // namespace pig::test
