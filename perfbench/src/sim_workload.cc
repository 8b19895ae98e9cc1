// sim-pig25: the fig8 simulator configuration run through
// harness::RunExperiment, repeated with one seed for the run's duration.
// The virtual-time results and work counts repeat exactly per seed; the
// repetitions time how fast the simulator reproduces one figure point.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "harness/experiment.h"
#include "host.h"
#include "model/bottleneck_model.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr size_t kReplicas = 25;
constexpr size_t kRelayGroups = 3;
constexpr size_t kMinReps = 5;

pig::harness::ExperimentConfig Fig8Config(uint64_t seed) {
  pig::harness::ExperimentConfig cfg;
  cfg.protocol = pig::harness::Protocol::kPigPaxos;
  cfg.num_replicas = kReplicas;
  cfg.relay_groups = kRelayGroups;
  cfg.num_clients = 32;
  cfg.workload.read_ratio = 0.5;
  cfg.topology = pig::harness::Topology::kLan;
  cfg.replica_cpu = pig::sim::DefaultReplicaCpu();
  cfg.warmup = 100 * pig::kMillisecond;
  cfg.measure = 400 * pig::kMillisecond;
  cfg.seed = seed;
  return cfg;
}

/// Everything about a run that must repeat exactly for one seed.
struct ExactCounts {
  uint64_t completed = 0;
  uint64_t timeouts = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
  double req_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double leader_msgs = 0;
  double leader_cpu = 0;

  bool operator==(const ExactCounts&) const = default;
};

struct Rep {
  ExactCounts exact;
  pig::harness::RunResult result;
  double wall_ms = 0;
  double cpu_ns = 0;
  double setup_s = 0;
};

/// One RunExperiment call, timed from outside. With `trace` set, records
/// a span for the call and one for its set-up (call to customize hook).
Rep RunOnce(uint64_t seed, NodeTrace* trace) {
  pig::harness::ExperimentConfig cfg = Fig8Config(seed);
  int64_t customized_at = 0;
  cfg.customize = [&customized_at](pig::sim::Cluster&) {
    customized_at = NowNs();
  };
  Rep rep;
  const uint64_t allocs0 = AllocCount();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(trace, Layer::kSimRun, SpanKey{});
    rep.result = pig::harness::RunExperiment(cfg);
  }
  const int64_t t1 = NowNs();
  const int64_t cpu1 = ProcessCpuNs();
  const uint64_t allocs1 = AllocCount();
  if (trace != nullptr) trace->AddAsync(Layer::kSimSetup, t0, customized_at, {});
  const pig::harness::RunResult& r = rep.result;
  rep.exact.completed = r.completed;
  rep.exact.timeouts = r.timeouts;
  rep.exact.events = r.total_events;
  rep.exact.allocs = allocs1 - allocs0;
  rep.exact.req_s = r.throughput;
  rep.exact.p50_ms = r.p50_ms;
  rep.exact.p99_ms = r.p99_ms;
  rep.exact.leader_msgs = r.msgs_per_request.empty() ? 0 : r.msgs_per_request[0];
  rep.exact.leader_cpu = r.cpu_utilization.empty() ? 0 : r.cpu_utilization[0];
  rep.wall_ms = (t1 - t0) / 1e6;
  rep.cpu_ns = static_cast<double>(cpu1 - cpu0);
  rep.setup_s = (customized_at - t0) / 1e9;
  return rep;
}

/// Repeats RunOnce for `seconds` (at least kMinReps times).
std::vector<Rep> RunReps(uint64_t seed, double seconds, NodeTrace* trace) {
  std::vector<Rep> reps;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (reps.size() < kMinReps || NowNs() < deadline) {
    reps.push_back(RunOnce(seed, trace));
  }
  return reps;
}

/// Each call as one measured slice: its wall time is the sample. Every call
/// does identical work (RunSimWorkload checks its counts), so the CPU time
/// a call took measures how much the host slowed it.
std::vector<Interval> AsIntervals(const std::vector<Rep>& reps) {
  std::vector<Interval> out;
  for (const Rep& r : reps) {
    Interval iv;
    iv.seconds = r.wall_ms / 1e3;
    iv.noise = r.cpu_ns;
    iv.cpu_ns = r.cpu_ns;
    iv.commits = r.exact.completed;
    iv.latencies_ns.push_back(static_cast<int64_t>(r.wall_ms * 1e6));
    out.push_back(std::move(iv));
  }
  return out;
}


}  // namespace

WorkloadResult RunSimWorkload(const RunArgs& args) {
  WorkloadResult result;
  std::filesystem::create_directories(args.out_dir);
  const CpuJiffies jiffies0 = ReadCpuJiffies();

  // The first call fills the message pools and other lazily built state;
  // from the second call on, every count repeats exactly.
  RunOnce(args.seed, nullptr);
  // A traced run splits its time between untraced and traced calls.
  const double measured = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Rep> reps = RunReps(args.seed, measured, nullptr);
  const ExactCounts& exact = reps.front().exact;
  for (const Rep& r : reps) {
    result.Check(r.exact == exact,
                 "same-seed simulator runs differ (events " +
                     std::to_string(r.exact.events) + " vs " +
                     std::to_string(exact.events) + ", allocs " +
                     std::to_string(r.exact.allocs) + " vs " +
                     std::to_string(exact.allocs) + ")");
    result.attempted += r.exact.completed + r.exact.timeouts;
    result.failed += r.exact.timeouts;
  }
  result.Check(exact.completed > 0, "the simulator committed nothing");

  // Timings come from the tenth of the calls the host slowed least (see
  // SummarizeQuietest); the exact counts are the same in every call.
  const QuietSummary quiet = SummarizeQuietest(AsIntervals(reps), kQuietShare);
  std::vector<double> setup_s;
  for (const Rep& r : reps) setup_s.push_back(r.setup_s);
  const double cpu_plain = quiet.cpu_us_per_op;
  const double ops = std::max<double>(1, static_cast<double>(exact.completed));

  result.detail = {
      {"reps", static_cast<double>(reps.size()), "count"},
      {"reps_kept", static_cast<double>(quiet.kept), "count"},

      {"sim_req_s", exact.req_s, "1/s"},
      {"sim_p50_ms", exact.p50_ms, "ms"},
      {"sim_p99_ms", exact.p99_ms, "ms"},
      {"sim_ops_per_cpu_s", cpu_plain > 0 ? 1e6 / cpu_plain : 0, "1/s"},
      {"sim.completed", static_cast<double>(exact.completed), "count"},
      {"sim.events", static_cast<double>(exact.events), "count"},
      {"sim.allocs", static_cast<double>(exact.allocs), "count"},
      {"error_rate",
       static_cast<double>(exact.timeouts) /
           std::max<double>(1, static_cast<double>(exact.completed +
                                                   exact.timeouts)),
       "ratio"},
      {"host.nproc", static_cast<double>(NumCpus()), "count"},
      {"host.threads", static_cast<double>(ThreadCount()), "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  if (!args.trace) {
    result.detail.push_back(
        {"host.steal_share", StealShare(jiffies0, ReadCpuJiffies()),
         "ratio"});
    // The virtual p50/p99 are histogram bucket bounds that read the same
    // for every seed, so the user-visible latency here is the wall time of
    // one figure point (one RunExperiment call).
    result.values = {
        {"throughput_rps", exact.req_s},
        {"latency_p50_ms", quiet.latency.p50_ms},
        {"latency_p99_ms", quiet.latency.p99_ms},
        {"cpu_us_per_op", cpu_plain},
        {"setup_s", Median(setup_s)},
    };
    return result;
  }

  // Traced repetitions must reproduce the untraced counts exactly, and a
  // different seed must change them.
  std::atomic<bool> armed{true};
  NodeTrace trace(0, &armed, 4096);
  const int64_t origin = NowNs();
  std::vector<Rep> traced = RunReps(args.seed, measured, &trace);
  for (const Rep& r : traced) {
    result.Check(r.exact == exact,
                 "a traced simulator run differs from the untraced runs");
  }
  const ExactCounts other = RunOnce(args.seed + 1, nullptr).exact;
  result.Check(!(other == exact),
               "a different seed reproduced the same simulator counts");
  const double cpu_traced =
      SummarizeQuietest(AsIntervals(traced), kQuietShare).cpu_us_per_op;
  const std::string path =
      (std::filesystem::path(args.out_dir) /
       ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
        ".json"))
          .string();
  result.Check(WriteChromeTrace(path, {&trace}, origin),
               "cannot write trace file " + path);
  result.trace_file = path;

  const pig::harness::RunResult& r = reps.front().result;
  const double model_leader =
      pig::model::PigPaxosLoad(kReplicas, kRelayGroups).leader;
  const double allocs_per_op = static_cast<double>(exact.allocs) / ops;
  const double events_per_op = static_cast<double>(exact.events) / ops;
  // The runtime, consensus-send and storage layers do not run here and
  // read 0.
  const double steal = StealShare(jiffies0, ReadCpuJiffies());
  result.detail.push_back({"host.steal_share", steal, "ratio"});
  result.values = {
      {"paxos.cmds_per_slot", r.mean_batch_size},
      {"paxos.pipeline_stalls_per_kop",
       1e3 * static_cast<double>(r.pipeline_stalls) / ops},
      {"paxos.elections", static_cast<double>(r.elections_started)},
      {"paxos.propose_retries", static_cast<double>(r.propose_retries)},
      {"pigpaxos.relay_timeouts", static_cast<double>(r.relay_timeouts)},
      {"pigpaxos.relays_suspected", static_cast<double>(r.relays_suspected)},
      {"process.allocs_per_op", allocs_per_op},
      {"process.peak_rss_mb", PeakRssMb()},
      {"client.redirects", static_cast<double>(r.redirects)},
      {"client.stale_replies", static_cast<double>(r.stale_replies)},
      {"sim.events_per_op", events_per_op},
      {"sim.cpu_ns_per_event", cpu_plain * 1e3 / events_per_op},
      {"sim.allocs_per_op", allocs_per_op},
      {"sim.leader_msgs_per_op", exact.leader_msgs},
      {"sim.leader_cpu_util", exact.leader_cpu},
      {"trace_overhead", cpu_traced - cpu_plain},
      {"host.steal_share", steal},
      {"host.nproc", static_cast<double>(NumCpus())},
      {"host.threads", static_cast<double>(ThreadCount())},
      {"model.leader_msgs_per_op", model_leader},
      {"model.leader_msgs_ratio", exact.leader_msgs / model_leader},
  };
  return result;
}

}  // namespace perfbench
