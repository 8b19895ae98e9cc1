#include "harness/scenario.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"
#include "shard/sharded_node.h"

namespace pig::harness {

bool ScenarioSpec::HasGrayEvents() const {
  for (const FaultEvent& e : schedule) {
    if (e.kind == FaultKind::kGraySlowStart ||
        e.kind == FaultKind::kGraySlowEnd) {
      return true;
    }
  }
  return false;
}

ScenarioRuntime PrepareScenario(const ScenarioSpec& spec,
                                size_t num_replicas) {
  ScenarioRuntime rt;
  if (spec.topology == Topology::kWanVaCaOr) {
    auto topo = net::MakeVaCaOrTopology();
    for (NodeId n = 0; n < num_replicas; ++n) {
      topo->AssignRegion(n, WanRegionOfNode(n, num_replicas));
    }
    rt.latency = std::move(topo);
  }
  if (spec.HasGrayEvents()) {
    std::shared_ptr<net::LatencyModel> base = rt.latency;
    if (!base) base = std::make_shared<net::LanLatency>();
    rt.sluggish = std::make_shared<net::SluggishNodeLatency>(
        std::move(base), spec.gray_extra_latency);
    rt.latency = rt.sluggish;
  }
  return rt;
}

void ScheduleScenario(const ScenarioSpec& spec, const ScenarioRuntime& rt,
                      sim::Cluster& cluster) {
  sim::Cluster* c = &cluster;
  for (const FaultEvent& e : spec.schedule) {
    switch (e.kind) {
      case FaultKind::kCrash:
        cluster.CrashAt(e.at, e.node);
        break;
      case FaultKind::kCrashWithDisk:
        cluster.scheduler().ScheduleAt(
            e.at, [c, node = e.node] { c->CrashWithDisk(node); });
        break;
      case FaultKind::kCrashLosingDisk:
        cluster.scheduler().ScheduleAt(
            e.at, [c, node = e.node] { c->CrashLosingDisk(node); });
        break;
      case FaultKind::kRecover:
        cluster.RecoverAt(e.at, e.node);
        break;
      case FaultKind::kPartition:
        cluster.scheduler().ScheduleAt(e.at, [c, groups = e.partition_groups] {
          for (NodeId i = 0; i < groups.size(); ++i) {
            c->network().SetPartitionGroup(i, groups[i]);
          }
        });
        break;
      case FaultKind::kHeal:
        cluster.scheduler().ScheduleAt(
            e.at, [c] { c->network().HealPartitions(); });
        break;
      case FaultKind::kGraySlowStart:
      case FaultKind::kGraySlowEnd: {
        if (!rt.sluggish) {
          PIG_LOG(kWarn) << "scenario '" << spec.name
                         << "': gray event without a sluggish model";
          break;
        }
        auto sluggish = rt.sluggish;
        const bool start = e.kind == FaultKind::kGraySlowStart;
        cluster.scheduler().ScheduleAt(e.at, [sluggish, start,
                                              node = e.node] {
          if (start) {
            sluggish->MarkSluggish(node);
          } else {
            sluggish->ClearSluggish(node);
          }
        });
        break;
      }
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp: {
        const bool down = e.kind == FaultKind::kLinkDown;
        cluster.scheduler().ScheduleAt(
            e.at, [c, down, from = e.node, to = e.peer] {
              c->network().SetLinkDown(from, to, down);
            });
        break;
      }
      case FaultKind::kReshuffle:
        cluster.scheduler().ScheduleAt(e.at, [c] {
          for (NodeId i : c->replica_ids()) {
            if (!c->IsAlive(i)) continue;
            auto* pig =
                dynamic_cast<pigpaxos::PigPaxosReplica*>(c->actor(i));
            if (pig != nullptr && pig->IsLeader()) {
              pig->ReshuffleGroups();
              return;
            }
          }
        });
        break;
      case FaultKind::kOneWayDown:
      case FaultKind::kOneWayRestore: {
        const bool down = e.kind == FaultKind::kOneWayDown;
        cluster.scheduler().ScheduleAt(
            e.at, [c, down, from = e.node, to = e.peer] {
              if (to == kInvalidNode) {
                c->network().SetOneWayDown(from, down);
              } else {
                c->network().SetLinkDown(from, to, down);
              }
            });
        break;
      }
      case FaultKind::kDuplicateLink:
        cluster.scheduler().ScheduleAt(
            e.at, [c, from = e.node, to = e.peer, p = e.value] {
              c->network().SetLinkDuplicate(from, to, p);
            });
        break;
      case FaultKind::kReorderLink:
        cluster.scheduler().ScheduleAt(
            e.at, [c, from = e.node, to = e.peer, w = e.extra_latency] {
              c->network().SetLinkReorder(from, to, w);
            });
        break;
      case FaultKind::kClockSkew:
        cluster.scheduler().ScheduleAt(
            e.at, [c, node = e.node, factor = e.value] {
              c->SetClockSkew(node, factor);
            });
        break;
      case FaultKind::kCrashGroupLeader:
        // The leader is resolved at fire time, not schedule time: by the
        // time the event fires, elections may have moved the group's
        // leadership off its bootstrap node.
        cluster.scheduler().ScheduleAt(e.at, [c, group = e.group] {
          for (NodeId i : c->replica_ids()) {
            if (!c->IsAlive(i)) continue;
            const paxos::PaxosReplica* rep = nullptr;
            if (auto* node = dynamic_cast<shard::ShardedNode*>(c->actor(i))) {
              if (group >= node->num_groups()) return;
              rep = dynamic_cast<const paxos::PaxosReplica*>(
                  node->group_actor(group));
            } else if (group == 0) {
              rep = dynamic_cast<const paxos::PaxosReplica*>(c->actor(i));
            }
            if (rep != nullptr && rep->IsLeader()) {
              c->Crash(i);
              return;
            }
          }
        });
        break;
    }
  }
}

void HealScenario(const ScenarioSpec& spec, const ScenarioRuntime& rt,
                  sim::Cluster& cluster, size_t num_replicas) {
  for (NodeId i = 0; i < num_replicas; ++i) {
    if (!cluster.IsAlive(i)) cluster.Recover(i);
  }
  cluster.network().HealPartitions();
  for (const FaultEvent& e : spec.schedule) {
    switch (e.kind) {
      case FaultKind::kLinkDown:
        cluster.network().SetLinkDown(e.node, e.peer, false);
        break;
      case FaultKind::kOneWayDown:
        if (e.peer == kInvalidNode) {
          cluster.network().SetOneWayDown(e.node, false);
        } else {
          cluster.network().SetLinkDown(e.node, e.peer, false);
        }
        break;
      case FaultKind::kDuplicateLink:
      case FaultKind::kReorderLink:
        // A per-link slot snapshots the global defaults when created, so
        // per-event zeroing can leave residue; wipe the whole table.
        cluster.network().ClearLinkFaults();
        break;
      case FaultKind::kClockSkew:
        cluster.SetClockSkew(e.node, 1.0);
        break;
      case FaultKind::kGraySlowStart:
        if (rt.sluggish) rt.sluggish->ClearSluggish(e.node);
        break;
      default:
        break;
    }
  }
}

void ApplyScenario(const ScenarioSpec& spec, ExperimentConfig& config) {
  config.topology = spec.topology;
  ScenarioRuntime rt = PrepareScenario(spec, config.num_replicas);
  if (rt.latency) config.latency_override = rt.latency;
  auto prev = std::move(config.customize);
  config.customize = [spec, rt, prev = std::move(prev)](sim::Cluster& cl) {
    if (prev) prev(cl);
    ScheduleScenario(spec, rt, cl);
  };
}

RunResult RunScenario(const ScenarioSpec& spec, ExperimentConfig config) {
  ApplyScenario(spec, config);
  return RunExperiment(config);
}

// ---------------------------------------------------------------------------
// Sweeps

namespace {

std::string RowLabel(const SweepRow& row) {
  char buf[96];
  if (row.protocol == Protocol::kPigPaxos) {
    std::snprintf(buf, sizeof(buf), "%s.q%zu-%zu.g%zu.ov%zu.co%zu",
                  ProtocolName(row.protocol).c_str(), row.q1, row.q2,
                  row.relay_groups, row.overlap, row.coalesce);
  } else {
    std::snprintf(buf, sizeof(buf), "%s.q%zu-%zu",
                  ProtocolName(row.protocol).c_str(), row.q1, row.q2);
  }
  return buf;
}

SweepRow RunOneRow(const ScenarioSpec& spec, const ExperimentConfig& base,
                   Protocol protocol, std::pair<size_t, size_t> quorum,
                   size_t groups, size_t overlap, size_t coalesce) {
  SweepRow row;
  row.protocol = protocol;
  row.q1 = quorum.first;
  row.q2 = quorum.second;
  row.relay_groups = protocol == Protocol::kPigPaxos ? groups : 0;
  row.overlap = protocol == Protocol::kPigPaxos ? overlap : 0;
  row.coalesce = protocol == Protocol::kPigPaxos ? coalesce : 1;
  row.label = RowLabel(row);

  ExperimentConfig cfg = base;
  cfg.protocol = protocol;
  cfg.flexible_q1 = quorum.first;
  cfg.flexible_q2 = quorum.second;
  if (protocol == Protocol::kPigPaxos) {
    cfg.relay_groups = groups;
    cfg.group_overlap = overlap;
    cfg.uplink_coalesce_max = coalesce;
    // On WAN, only a group count matching the region count can be
    // region-aligned; other counts sweep region-oblivious contiguous
    // trees so the axis actually varies the tree shape.
    cfg.region_grouping = groups == 3;
  }
  row.result = RunScenario(spec, std::move(cfg));
  return row;
}

}  // namespace

SweepReport RunScenarioSweep(const ScenarioSpec& spec, const SweepAxes& axes,
                             const ExperimentConfig& base) {
  SweepReport report;
  report.scenario = spec.name;
  report.seed = base.seed;
  report.num_replicas = base.num_replicas;
  for (Protocol protocol : axes.protocols) {
    for (const auto& quorum : axes.quorums) {
      if (protocol != Protocol::kPigPaxos) {
        // The relay axes are meaningless here: one row per quorum.
        report.rows.push_back(RunOneRow(spec, base, protocol, quorum,
                                        /*groups=*/0, /*overlap=*/0,
                                        /*coalesce=*/1));
        continue;
      }
      for (size_t groups : axes.relay_groups) {
        for (size_t overlap : axes.overlaps) {
          for (size_t coalesce : axes.coalesce) {
            report.rows.push_back(RunOneRow(spec, base, protocol, quorum,
                                            groups, overlap, coalesce));
          }
        }
      }
    }
  }
  return report;
}


std::string SweepReportJson(const SweepReport& report) {
  std::string out;
  out.reserve(1024 + report.rows.size() * 512);
  AppendF(out, "{\n  \"scenario\": \"%s\",\n",
          JsonEscape(report.scenario).c_str());
  AppendF(out, "  \"seed\": %llu,\n",
          static_cast<unsigned long long>(report.seed));
  AppendF(out, "  \"num_replicas\": %zu,\n", report.num_replicas);
  AppendF(out, "  \"configs\": %zu,\n  \"rows\": [\n", report.rows.size());
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const SweepRow& row = report.rows[i];
    const RunResult& r = row.result;
    AppendF(out, "    {\"label\": \"%s\", ", JsonEscape(row.label).c_str());
    AppendF(out, "\"protocol\": \"%s\", ",
            ProtocolName(row.protocol).c_str());
    AppendF(out, "\"q1\": %zu, \"q2\": %zu, ", row.q1, row.q2);
    AppendF(out, "\"relay_groups\": %zu, \"overlap\": %zu, ",
            row.relay_groups, row.overlap);
    AppendF(out, "\"coalesce\": %zu,\n     ", row.coalesce);
    AppendF(out, "\"throughput_req_s\": %.4f, ", r.throughput);
    AppendF(out, "\"mean_ms\": %.4f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, ",
            r.mean_ms, r.p50_ms, r.p99_ms);
    AppendF(out, "\"completed\": %llu, \"timeouts\": %llu,\n     ",
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.timeouts));
    AppendF(out, "\"elections_started\": %llu, ",
            static_cast<unsigned long long>(r.elections_started));
    AppendF(out, "\"relay_timeouts\": %llu, ",
            static_cast<unsigned long long>(r.relay_timeouts));
    AppendF(out, "\"relays_suspected\": %llu, ",
            static_cast<unsigned long long>(r.relays_suspected));
    AppendF(out, "\"reshuffles\": %llu,\n     ",
            static_cast<unsigned long long>(r.reshuffles));
    AppendF(out, "\"ring_timeouts\": %llu, ",
            static_cast<unsigned long long>(r.ring_timeouts));
    AppendF(out, "\"ring_fallback_fanouts\": %llu, ",
            static_cast<unsigned long long>(r.ring_fallback_fanouts));
    AppendF(out, "\"cross_region_msgs\": %llu, ",
            static_cast<unsigned long long>(r.cross_region_msgs));
    AppendF(out, "\"total_events\": %llu}%s\n",
            static_cast<unsigned long long>(r.total_events),
            i + 1 < report.rows.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

Status WriteSweepReportJson(const std::string& path,
                            const SweepReport& report) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const std::string json = SweepReportJson(report);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace pig::harness
