#include "workload.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},  {"cpu_us_per_op", "us"},
      {"setup_s", "s"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"runtime.leader_loop_cpu_us_per_op", "us"},
      {"runtime.replica_loop_cpu_us_per_op", "us"},
      {"runtime.leader_runq_wait_share", "ratio"},
      {"runtime.runq_wait_share", "ratio"},
      {"runtime.msgs_delivered_per_op", "count"},
      {"consensus.leader_send_us_per_op", "us"},
      {"consensus.leader_bytes_out_per_op", "B"},
      {"consensus.bytes_out_per_op", "B"},
      {"paxos.leader_handler_us_per_op", "us"},
      {"paxos.replica_handler_us_per_op", "us"},
      {"paxos.leader_msgs_in_per_op", "count"},
      {"paxos.leader_msgs_out_per_op", "count"},
      {"paxos.cmds_per_slot", "count"},
      {"paxos.pipeline_stalls_per_kop", "count"},
      {"paxos.elections", "count"},
      {"paxos.propose_retries", "count"},
      {"pigpaxos.relay_handler_us_per_op", "us"},
      {"pigpaxos.relay_timeouts", "count"},
      {"pigpaxos.relays_suspected", "count"},
      {"storage.records_per_sync", "count"},
      {"storage.leader_append_us_per_op", "us"},
      {"storage.leader_sync_us_per_op", "us"},
      {"storage.snapshot_ms", "ms"},
      {"process.allocs_per_op", "count"},
      {"process.peak_rss_mb", "MB"},
      {"client.redirects", "count"},
      {"client.stale_replies", "count"},
      {"sim.events_per_op", "count"},
      {"sim.cpu_ns_per_event", "ns"},
      {"sim.allocs_per_op", "count"},
      {"sim.leader_msgs_per_op", "count"},
      {"sim.leader_cpu_util", "ratio"},
      {"trace_overhead", "us"},
      {"host.steal_share", "ratio"},
      {"host.nproc", "count"},
      {"host.threads", "count"},
      {"model.leader_msgs_per_op", "count"},
      {"model.leader_msgs_ratio", "ratio"},
  };
  return kDefs;
}

std::vector<Metric> MetricsFrom(const std::vector<MetricDef>& defs,
                                const std::map<std::string, double>& values,
                                std::vector<std::string>* missing) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end() && missing != nullptr) missing->push_back(d.name);
    out.push_back({d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
  return out;
}

}  // namespace perfbench
