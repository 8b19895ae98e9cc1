#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "shard/sharded_node.h"

namespace pig::harness {

namespace {

std::shared_ptr<net::RegionalLatency> BuildWanTopology(
    const ExperimentConfig& config) {
  auto topo = net::MakeVaCaOrTopology();
  for (NodeId n = 0; n < config.num_replicas; ++n) {
    topo->AssignRegion(n, WanRegionOfNode(n, config.num_replicas));
  }
  // Clients are colocated with the leader's region (default region 0 =
  // Virginia), matching the paper's setup.
  return topo;
}

}  // namespace

RunResult RunExperiment(const ExperimentConfig& config) {
  const size_t num_groups = std::max<size_t>(1, config.num_groups);

  sim::ClusterOptions copt;
  copt.seed = config.seed;
  copt.replica_cpu = config.replica_cpu;
  copt.network.drop_probability = config.drop_probability;
  if (config.topology == Topology::kWanVaCaOr) {
    copt.network.latency = BuildWanTopology(config);
  }
  // A scenario-supplied model (e.g. WAN wrapped in a gray-slowdown
  // decorator) wins over the plain topology default.
  if (config.latency_override) copt.network.latency = config.latency_override;

  sim::Cluster cluster(copt);

  for (NodeId id = 0; id < config.num_replicas; ++id) {
    Result<std::unique_ptr<Actor>> node = BuildNode(config, id);
    if (!node.ok()) {
      std::fprintf(stderr, "RunExperiment: %s\n",
                   node.status().ToString().c_str());
      std::abort();
    }
    cluster.AddReplica(id, node.MoveValue());
  }

  // --- Clients ------------------------------------------------------------
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(config.warmup, config.warmup + config.measure);
  for (size_t i = 0; i < config.num_clients; ++i) {
    client::ClientConfig ccfg;
    ccfg.workload = config.workload;
    ccfg.num_replicas = config.num_replicas;
    ccfg.target_policy = config.protocol == Protocol::kEPaxos
                             ? client::TargetPolicy::kRandomReplica
                             : client::TargetPolicy::kFixedLeader;
    ccfg.num_groups = static_cast<uint32_t>(num_groups);
    if (config.shard_affine_clients && num_groups > 1) {
      ccfg.affine_group = static_cast<int>(i % num_groups);
    }
    cluster.AddClient(
        sim::Cluster::MakeClientId(static_cast<uint32_t>(i)),
        std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
  }

  if (config.customize) config.customize(cluster);

  cluster.Start();

  // Warmup, then measure with fresh traffic/CPU counters.
  cluster.RunUntil(config.warmup);
  cluster.network().ResetStats();
  cluster.ResetCpuStats();
  cluster.RunUntil(config.warmup + config.measure);

  RunResult result;
  result.throughput = recorder->Throughput();
  result.mean_ms = recorder->latency().MeanMillis();
  result.p50_ms = recorder->latency().QuantileMillis(0.50);
  result.p99_ms = recorder->latency().QuantileMillis(0.99);
  result.completed = recorder->completed();
  result.timeouts = recorder->timeouts();
  result.redirects = recorder->redirects();
  result.timeline = recorder->timeline();
  result.cross_region_msgs = cluster.network().cross_region_msgs();
  result.total_events = cluster.scheduler().executed_count();

  const double requests = std::max<double>(1.0, (double)recorder->completed());
  // Sums one hosted replica's protocol counters into the result; in
  // sharded runs this runs once per (node, group).
  auto accumulate_counters = [&result, &config](const pig::Actor* actor) {
    const auto* rep = static_cast<const paxos::PaxosReplica*>(actor);
    result.elections_started += rep->metrics().elections_started;
    result.propose_retries += rep->metrics().propose_retries;
    result.log_syncs += rep->metrics().log_syncs;
    result.batches_proposed += rep->metrics().batches_proposed;
    result.batched_commands += rep->metrics().batched_commands;
    result.batch_timeout_flushes += rep->metrics().batch_timeout_flushes;
    result.pipeline_stalls += rep->metrics().pipeline_stalls;
    if (config.protocol == Protocol::kPigPaxos) {
      const auto* pig =
          static_cast<const pigpaxos::PigPaxosReplica*>(actor);
      result.relay_timeouts += pig->relay_metrics().relay_timeouts;
      result.relay_early_batches += pig->relay_metrics().early_batches;
      result.relays_suspected += pig->relay_metrics().relays_suspected;
      result.reshuffles += pig->relay_metrics().reshuffles;
      result.uplink_bundles += pig->relay_metrics().uplink_bundles;
      result.uplink_coalesced += pig->relay_metrics().uplink_coalesced;
    } else if (config.protocol == Protocol::kRing) {
      const auto* ring = static_cast<const baselines::RingReplica*>(actor);
      result.ring_rounds_completed += ring->ring_metrics().rounds_completed;
      result.ring_timeouts += ring->ring_metrics().ring_timeouts;
      result.ring_fallback_fanouts += ring->ring_metrics().fallback_fanouts;
    }
  };
  for (NodeId id = 0; id < config.num_replicas; ++id) {
    const net::TrafficStats& s = cluster.network().StatsFor(id);
    result.msgs_per_request.push_back(
        static_cast<double>(s.msgs_sent + s.msgs_received) / requests);
    result.cpu_utilization.push_back(
        cluster.CpuUtilization(id, config.measure));
    if (config.protocol != Protocol::kEPaxos) {
      if (num_groups > 1) {
        const auto* node =
            static_cast<const shard::ShardedNode*>(cluster.actor(id));
        for (size_t g = 0; g < node->num_groups(); ++g) {
          accumulate_counters(node->group_actor(g));
        }
      } else {
        accumulate_counters(cluster.actor(id));
      }
    }
  }
  result.per_group_completed = recorder->per_group_completed();
  result.per_group_completed.resize(num_groups, 0);
  result.stale_replies = recorder->stale_replies();
  if (result.batches_proposed > 0) {
    result.mean_batch_size =
        static_cast<double>(result.batched_commands) /
        static_cast<double>(result.batches_proposed);
  }
  return result;
}

std::vector<LoadPoint> LatencyThroughputSweep(
    ExperimentConfig config, const std::vector<size_t>& client_counts) {
  std::vector<LoadPoint> points;
  for (size_t clients : client_counts) {
    config.num_clients = clients;
    RunResult r = RunExperiment(config);
    points.push_back(LoadPoint{clients, r.throughput, r.mean_ms, r.p50_ms,
                               r.p99_ms});
  }
  return points;
}

double MaxThroughput(ExperimentConfig config, size_t start_clients,
                     size_t max_clients) {
  double best = 0;
  for (size_t clients = start_clients; clients <= max_clients;
       clients *= 2) {
    config.num_clients = clients;
    RunResult r = RunExperiment(config);
    if (r.throughput <= best * 1.05) {
      return std::max(best, r.throughput);
    }
    best = r.throughput;
  }
  return best;
}

std::string FormatSweep(const std::string& title,
                        const std::vector<LoadPoint>& points) {
  std::string out = title + "\n";
  out +=
      "  clients |  tput(req/s) | mean(ms) |  p50(ms) |  p99(ms)\n"
      "  --------+--------------+----------+----------+---------\n";
  char line[160];
  for (const LoadPoint& p : points) {
    std::snprintf(line, sizeof(line),
                  "  %7zu | %12.1f | %8.3f | %8.3f | %8.3f\n", p.clients,
                  p.throughput, p.mean_ms, p.p50_ms, p.p99_ms);
    out += line;
  }
  return out;
}

}  // namespace pig::harness
