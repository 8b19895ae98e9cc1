// Experiment harness: builds a simulated cluster for a protocol + workload
// configuration, runs it with warmup exclusion, and reports throughput,
// latency percentiles, per-node traffic and CPU utilization.
//
// Every bench binary in bench/ is a thin wrapper around this harness.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ring_replica.h"
#include "client/closed_loop_client.h"
#include "epaxos/replica.h"
#include "harness/node_builder.h"
#include "net/latency.h"
#include "paxos/replica.h"
#include "pigpaxos/replica.h"
#include "sim/cluster.h"

namespace pig::harness {

using pig::TimeNs;

/// One simulated run: the replicas' protocol knobs (ReplicaConfig, built
/// into nodes by BuildNode) plus the clients, environment and
/// measurement window around them.
struct ExperimentConfig : ReplicaConfig {
  size_t num_clients = 20;
  client::WorkloadConfig workload;

  /// Pin client i's whole workload to group i % num_groups (sharded
  /// runs only). Isolation experiments use this: closed-loop clients
  /// with mixed keys head-of-line block on a crashed group's election,
  /// which would mask the per-group independence being measured.
  bool shard_affine_clients = false;

  // --- Environment -------------------------------------------------------
  /// When set, used as the network latency model instead of the one the
  /// `topology` field implies. The topology field keeps steering
  /// region-aware behavior (relay grouping, client placement), so a
  /// scenario can e.g. wrap the WAN matrix in a gray-slowdown decorator
  /// without losing region grouping.
  std::shared_ptr<net::LatencyModel> latency_override;

  uint64_t seed = 1;
  double drop_probability = 0.0;
  sim::CpuModel replica_cpu = sim::DefaultReplicaCpu();

  // --- Measurement --------------------------------------------------------
  TimeNs warmup = 1 * kSecond;
  TimeNs measure = 3 * kSecond;

  /// Optional hook invoked after the cluster is built, before Start().
  /// Scripted faults (crashes, recoveries, partitions) are scheduled
  /// through it by harness::ApplyScenario.
  std::function<void(sim::Cluster&)> customize;
};

struct RunResult {
  double throughput = 0;        ///< req/s in the measurement window.
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t completed = 0;
  uint64_t timeouts = 0;
  uint64_t redirects = 0;

  /// Per-second completion counts over the whole run (Fig. 13).
  std::vector<uint64_t> timeline;

  /// In-window completions per consensus group (one entry for unsharded
  /// runs; indexed by group id otherwise). Isolation tests compare these
  /// across fault scenarios.
  std::vector<uint64_t> per_group_completed;

  /// Messages handled (sent + received) per replica per committed
  /// request, for Table 1/2 cross-checks. Index = replica id.
  std::vector<double> msgs_per_request;

  /// Simulated CPU utilization per replica over the measured window.
  std::vector<double> cpu_utilization;

  uint64_t cross_region_msgs = 0;  ///< §6.4 WAN traffic accounting.
  uint64_t total_events = 0;       ///< Simulator events executed.

  // Aggregated protocol counters (Paxos/PigPaxos runs; zero otherwise).
  uint64_t elections_started = 0;
  uint64_t propose_retries = 0;
  uint64_t log_syncs = 0;
  uint64_t relay_timeouts = 0;   ///< PigPaxos only.
  uint64_t relay_early_batches = 0;
  uint64_t relays_suspected = 0; ///< PigPaxos relay liveness blacklists.
  uint64_t reshuffles = 0;       ///< PigPaxos dynamic regroupings.
  uint64_t stale_replies = 0;    ///< Duplicate replies clients discarded.

  // Ring baseline counters (zero for other protocols).
  uint64_t ring_rounds_completed = 0;
  uint64_t ring_timeouts = 0;        ///< Broken-ring fallbacks triggered.
  uint64_t ring_fallback_fanouts = 0;

  // Batching/pipelining counters (zero while the engine is off).
  uint64_t batches_proposed = 0;
  uint64_t batched_commands = 0;
  uint64_t batch_timeout_flushes = 0;
  uint64_t pipeline_stalls = 0;
  uint64_t uplink_bundles = 0;       ///< PigPaxos relay uplink coalescing.
  uint64_t uplink_coalesced = 0;

  /// Mean commands per proposed slot over the whole run (1.0 when the
  /// batching engine is off or nothing was proposed through it).
  double mean_batch_size = 1.0;
};

/// Builds the cluster, runs warmup + measurement, and collects results.
/// A configuration BuildNode rejects (e.g. a sharded Ring run) aborts
/// with the builder's message instead of running some other protocol.
RunResult RunExperiment(const ExperimentConfig& config);

/// One point of a latency/throughput curve.
struct LoadPoint {
  size_t clients = 0;
  double throughput = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// Runs the experiment at each client count (the paper's offered-load
/// sweep) and returns one point per count.
std::vector<LoadPoint> LatencyThroughputSweep(
    ExperimentConfig config, const std::vector<size_t>& client_counts);

/// Doubles the client count until throughput stops improving by more than
/// 5%, then returns the best observed throughput (paper's "maximum
/// throughput" metric).
double MaxThroughput(ExperimentConfig config, size_t start_clients = 32,
                     size_t max_clients = 1024);

/// Formats a latency/throughput table for console output.
std::string FormatSweep(const std::string& title,
                        const std::vector<LoadPoint>& points);

}  // namespace pig::harness
