// The two TCP workloads: nine replicas as epoll event loops in this
// process, talking over real loopback sockets, loaded by two pipelined
// LoadClients. A run is split into rounds, each a fresh cluster with its
// own set-up, warm-up and measurement window. Each window is cut into
// slices with the host's steal share over each; the end-to-end figures
// come from the quietest tenth of all slices (SummarizeQuietest).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "host.h"
#include "load_client.h"
#include "model/bottleneck_model.h"
#include "paxos/replica.h"
#include "pigpaxos/messages.h"
#include "pigpaxos/replica.h"
#include "runtime/tcp_cluster.h"
#include "storage/mem_storage.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct TcpSpec {
  const char* name;
  bool pig;                  ///< PigPaxos (else Multi-Paxos).
  size_t relay_groups;
  size_t batch_size;
  size_t pipeline_depth;
  size_t window;             ///< Requests in flight per client.
  double read_ratio;
  size_t value_size;
  bool wal;                  ///< A write-ahead log per replica.
};

constexpr size_t kNodes = 9;
constexpr size_t kClients = 2;
constexpr size_t kSnapshotInterval = 4096;  // as pig_node --data-dir sets it
constexpr int64_t kWarmupNs = 500'000'000;
constexpr int64_t kSettleNs = 300'000'000;
constexpr int64_t kSetupTimeoutNs = 20'000'000'000;
constexpr size_t kRounds = 5;
constexpr int64_t kIntervalNs = 200'000'000;
constexpr size_t kSpanCap = 1u << 15;  // spans kept per node

// The WAL workload keeps its log in storage::MemStorage: the same framed,
// checksummed records and snapshots as FileStorage, through the same
// codec, without the device. The benchmark may write only inside its
// checkout, and a FileStorage on that disk measured fdatasync on a shared
// virtual disk (a 54% spread between runs), not the code.
const TcpSpec kSpecs[] = {
    {"pig9-small", true, 3, 1, 1, 16, 0.5, 8, false},
    {"paxos9-batch-wal", false, 0, 8, 8, 32, 0.0, 1024, true},
};

void SleepUntil(int64_t t_ns) {
  const int64_t d = t_ns - NowNs();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Per-layer sums over the traced rounds (window-only unless noted).
struct LayerTotals {
  uint64_t rounds = 0;
  double committed = 0;
  // Leader thread.
  double leader_run_ns = 0, leader_wait_ns = 0, leader_top_ns = 0;
  double leader_handler_ns = 0, leader_send_ns = 0;
  double leader_append_ns = 0, leader_sync_ns = 0;
  double leader_msgs_in = 0, leader_msgs_out = 0, leader_bytes_out = 0;
  // Non-leader replica threads, summed.
  double other_run_ns = 0, other_wait_ns = 0, other_top_ns = 0;
  double other_handler_ns = 0, other_relay_ns = 0;
  // All replicas.
  double msgs_in = 0, bytes_out = 0, appends = 0, syncs = 0;
  double snapshot_ns = 0, snapshots = 0;
  double allocs = 0;
  // Whole-round program counters (leader / summed over replicas).
  double leader_cmds = 0, leader_slots = 0, leader_stalls = 0;
  double leader_proposals = 0;
  double elections = 0, propose_retries = 0;
  double relay_timeouts = 0, relays_suspected = 0;
  double redirects = 0, stale_replies = 0;
};

struct RoundOutcome {
  double setup_s = 0;
  std::vector<Interval> intervals;  ///< The window in kIntervalNs slices.
  uint64_t committed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int threads = 0;
};

int64_t HandlerSelfNs(const NodeTrace& t) {
  return t.stat(Layer::kHandler).self_ns +
         t.stat(Layer::kRelayHandler).self_ns + t.stat(Layer::kTimer).self_ns;
}

/// Output checks after the cluster has stopped.
void CheckOutputs(const std::vector<pig::paxos::PaxosReplica*>& replicas,
                  size_t leader, const std::vector<LoadClient*>& clients,
                  int round, WorkloadResult* result) {
  const std::string at = " (round " + std::to_string(round) + ")";
  const auto reference = replicas[0]->store().Dump();
  for (size_t i = 1; i < replicas.size(); ++i) {
    result->Check(replicas[i]->store().Dump() == reference,
                  "store of replica " + std::to_string(i) +
                      " differs from replica 0 after drain" + at);
  }
  uint64_t acked = 0;
  uint64_t bad_reads = 0;
  for (const LoadClient* c : clients) {
    const ClientTotals& t = c->totals();
    acked += t.acked;
    result->Check(t.unknown_replies == 0,
                  std::to_string(t.unknown_replies) +
                      " replies for seqs never sent" + at);
    bad_reads += t.malformed_reads;
    for (const ObservedRead& r : c->reads()) {
      if (r.empty) continue;
      const bool ours =
          r.writer < clients.size() &&
          r.writer_seq < clients[r.writer]->put_keys().size() &&
          clients[r.writer]->put_keys()[r.writer_seq] ==
              static_cast<int32_t>(r.key);
      if (!ours) ++bad_reads;
    }
  }
  result->Check(bad_reads == 0, std::to_string(bad_reads) +
                                    " reads returned a value the benchmark "
                                    "never wrote to that key" + at);
  const uint64_t executions = replicas[leader]->metrics().executions;
  result->Check(acked <= executions,
                "acknowledged ops " + std::to_string(acked) +
                    " exceed the leader's executions " +
                    std::to_string(executions) + at);
}

RoundOutcome RunRound(const TcpSpec& spec, const RunArgs& args, int round,
                      double window_s, bool traced, WorkloadResult* result,
                      LayerTotals* layers) {
  RoundOutcome out;
  const uint64_t seed = args.seed * 1000 + static_cast<uint64_t>(round);
  // Everything the cluster's actors point at is declared before the
  // cluster, so it outlives the cluster's threads.
  std::atomic<bool> armed{false};
  std::vector<std::unique_ptr<NodeTrace>> traces;
  std::vector<std::unique_ptr<pig::storage::MemStorage>> wals;
  std::vector<std::unique_ptr<TracedStorage>> traced_wals;
  std::vector<pig::paxos::PaxosReplica*> replicas;
  std::vector<LoadClient*> clients;

  const int64_t t_construct = NowNs();
  auto cluster = std::make_unique<pig::runtime::TcpCluster>(seed);
  for (NodeId i = 0; i < kNodes; ++i) {
    NodeTrace* trace = nullptr;
    if (traced) {
      traces.push_back(std::make_unique<NodeTrace>(i, &armed, kSpanCap));
      trace = traces.back().get();
    }
    pig::paxos::PaxosOptions opt;
    opt.num_replicas = kNodes;
    opt.batch_size = spec.batch_size;
    opt.pipeline_depth = spec.pipeline_depth;
    if (spec.wal) {
      wals.push_back(std::make_unique<pig::storage::MemStorage>());
      pig::storage::Storage* storage = wals.back().get();
      if (traced) {
        traced_wals.push_back(
            std::make_unique<TracedStorage>(storage, trace));
        storage = traced_wals.back().get();
      }
      opt.storage = storage;
      opt.snapshot_interval = kSnapshotInterval;
    }
    std::unique_ptr<pig::paxos::PaxosReplica> replica;
    if (spec.pig) {
      pig::pigpaxos::PigPaxosOptions popt;
      popt.paxos = opt;
      popt.num_relay_groups = spec.relay_groups;
      replica = std::make_unique<pig::pigpaxos::PigPaxosReplica>(i, popt);
    } else {
      replica = std::make_unique<pig::paxos::PaxosReplica>(i, opt);
    }
    replicas.push_back(replica.get());
    std::unique_ptr<Actor> actor = std::move(replica);
    if (traced) actor = std::make_unique<TracedActor>(std::move(actor), trace);
    cluster->AddActor(i, std::move(actor));
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    NodeTrace* trace = nullptr;
    if (traced) {
      traces.push_back(std::make_unique<NodeTrace>(LoadClient::IdFor(c),
                                                   &armed, kSpanCap));
      trace = traces.back().get();
    }
    LoadClientConfig cfg;
    cfg.index = c;
    cfg.num_replicas = kNodes;
    cfg.window = spec.window;
    cfg.value_size = spec.value_size;
    cfg.read_ratio = spec.read_ratio;
    cfg.seed = seed;
    auto client = std::make_unique<LoadClient>(cfg, trace);
    clients.push_back(client.get());
    cluster->AddActor(LoadClient::IdFor(c), std::move(client));
  }
  cluster->Start();

  // Set-up ends at the first committed op (either client's probe).
  int64_t first = 0;
  while (first == 0 && NowNs() - t_construct < kSetupTimeoutNs) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (const LoadClient* c : clients) {
      const int64_t f = c->first_commit_ns();
      if (f != 0 && (first == 0 || f < first)) first = f;
    }
  }
  result->Check(first != 0, "no op committed within the set-up timeout");
  if (first == 0) {
    cluster->Stop();
    return out;
  }
  out.setup_s = (first - t_construct) / 1e9;

  const int64_t slices = std::max<int64_t>(
      1, std::llround(window_s * 1e9 / static_cast<double>(kIntervalNs)));
  MeasureWindow window;
  window.start_ns = NowNs() + kWarmupNs;
  window.end_ns = window.start_ns + slices * kIntervalNs;
  for (LoadClient* c : clients) c->StartLoad(window);

  std::vector<SchedStat> sched0(traces.size());
  SleepUntil(window.start_ns);
  const uint64_t allocs0 = AllocCount();
  for (size_t i = 0; i < traces.size(); ++i) {
    sched0[i] = ReadSchedStat(traces[i]->tid());
  }
  armed.store(true, std::memory_order_relaxed);

  // Host readings at every slice boundary.
  std::vector<int64_t> bounds;
  int64_t cpu_prev = ProcessCpuNs();
  CpuJiffies jiffies_prev = ReadCpuJiffies();
  bounds.push_back(window.start_ns);
  for (int64_t k = 1; k <= slices; ++k) {
    bounds.push_back(window.start_ns + k * kIntervalNs);
    SleepUntil(bounds.back());
    const int64_t cpu = ProcessCpuNs();
    const CpuJiffies jiffies = ReadCpuJiffies();
    Interval iv;
    iv.seconds = kIntervalNs / 1e9;
    iv.cpu_ns = static_cast<double>(cpu - cpu_prev);
    iv.noise = StealShare(jiffies_prev, jiffies);
    out.intervals.push_back(std::move(iv));
    cpu_prev = cpu;
    jiffies_prev = jiffies;
  }
  armed.store(false, std::memory_order_relaxed);
  const uint64_t allocs1 = AllocCount();
  std::vector<SchedStat> sched1(traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    sched1[i] = ReadSchedStat(traces[i]->tid());
  }
  out.threads = ThreadCount();

  // Drain: no new requests; wait for every reply or timeout, then give
  // followers time to learn and apply the last commits.
  for (LoadClient* c : clients) c->Stop();
  const int64_t drain_deadline = NowNs() + 4'000'000'000;
  for (;;) {
    size_t in_flight = 0;
    for (const LoadClient* c : clients) in_flight += c->in_flight();
    if (in_flight == 0 || NowNs() > drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SleepUntil(NowNs() + kSettleNs);
  cluster->Stop();

  size_t leader = 0;
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i]->IsLeader()) leader = i;
  }
  CheckOutputs(replicas, leader, clients, round, result);

  for (LoadClient* c : clients) {
    const WindowTally& t = c->tally();
    out.committed += t.committed();
    out.attempted += t.attempted();
    out.failed += t.failed();
    AssignSamples(bounds, t.samples(), &out.intervals);
  }

  if (traced) {
    LayerTotals& L = *layers;
    ++L.rounds;
    L.committed += static_cast<double>(out.committed);
    L.allocs += static_cast<double>(allocs1 - allocs0);
    for (size_t i = 0; i < kNodes; ++i) {
      const NodeTrace& t = *traces[i];
      const double run = static_cast<double>(sched1[i].run_ns -
                                             sched0[i].run_ns);
      const double wait = static_cast<double>(sched1[i].wait_ns -
                                              sched0[i].wait_ns);
      // Spans are wall time and include any preemption inside them. The
      // thread's CPU share of its runnable time converts them to CPU
      // time, assuming preemption fell evenly over that time.
      const double cpu = run + wait > 0 ? run / (run + wait) : 1.0;
      auto cpu_ns = [cpu](int64_t wall_ns) {
        return cpu * static_cast<double>(wall_ns);
      };
      L.msgs_in += static_cast<double>(t.msgs_in());
      L.bytes_out += static_cast<double>(t.bytes_out());
      L.appends += static_cast<double>(t.appends());
      L.syncs += static_cast<double>(t.syncs());
      L.snapshot_ns += static_cast<double>(t.stat(Layer::kSnapshot).total_ns);
      L.snapshots += static_cast<double>(t.stat(Layer::kSnapshot).calls);
      if (i == leader) {
        L.leader_run_ns += run;
        L.leader_wait_ns += wait;
        L.leader_top_ns += cpu_ns(t.top_level_ns());
        L.leader_handler_ns += cpu_ns(HandlerSelfNs(t));
        L.leader_send_ns += cpu_ns(t.stat(Layer::kSend).total_ns);
        L.leader_append_ns += cpu_ns(t.stat(Layer::kAppend).total_ns);
        L.leader_sync_ns += cpu_ns(t.stat(Layer::kSync).total_ns);
        L.leader_msgs_in += static_cast<double>(t.msgs_in());
        L.leader_msgs_out += static_cast<double>(t.msgs_out());
        L.leader_bytes_out += static_cast<double>(t.bytes_out());
      } else {
        L.other_run_ns += run;
        L.other_wait_ns += wait;
        L.other_top_ns += cpu_ns(t.top_level_ns());
        L.other_handler_ns += cpu_ns(HandlerSelfNs(t));
        L.other_relay_ns += cpu_ns(t.stat(Layer::kRelayHandler).self_ns);
      }
    }
    for (size_t i = 0; i < replicas.size(); ++i) {
      const pig::paxos::ReplicaMetrics& m = replicas[i]->metrics();
      L.elections += static_cast<double>(m.elections_started);
      L.propose_retries += static_cast<double>(m.propose_retries);
      if (i == leader) {
        L.leader_cmds += static_cast<double>(m.batched_commands);
        L.leader_slots += static_cast<double>(m.batches_proposed);
        L.leader_stalls += static_cast<double>(m.pipeline_stalls);
        L.leader_proposals += static_cast<double>(m.proposals);
      }
      if (spec.pig) {
        const auto* pig_replica =
            static_cast<const pig::pigpaxos::PigPaxosReplica*>(replicas[i]);
        L.relay_timeouts +=
            static_cast<double>(pig_replica->relay_metrics().relay_timeouts);
        L.relays_suspected +=
            static_cast<double>(pig_replica->relay_metrics().relays_suspected);
      }
    }
    for (const LoadClient* c : clients) {
      L.redirects += static_cast<double>(c->totals().redirects);
      L.stale_replies += static_cast<double>(c->totals().stale_replies);
    }
    if (round == 0) {
      std::vector<const NodeTrace*> nodes;
      for (const auto& t : traces) nodes.push_back(t.get());
      const std::string path =
          (fs::path(args.out_dir) /
           ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
            ".json"))
              .string();
      result->Check(WriteChromeTrace(path, nodes, window.start_ns),
                    "cannot write trace file " + path);
      result->trace_file = path;
    }
  }

  return out;
}

double PerOp(double total, double committed) {
  return committed > 0 ? total / committed : 0;
}

}  // namespace

WorkloadResult RunTcpWorkload(const RunArgs& args) {
  WorkloadResult result;
  const TcpSpec* spec = nullptr;
  for (const TcpSpec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    result.Check(false, "unknown TCP workload " + args.workload);
    return result;
  }
  pig::pigpaxos::RegisterPigPaxosMessages();
  fs::create_directories(args.out_dir);

  const size_t rounds = kRounds;
  // A traced run splits its time between an untraced and a traced pass.
  const double measured = args.trace ? args.seconds / 2 : args.seconds;
  const double window_s = measured / static_cast<double>(rounds);
  const CpuJiffies jiffies0 = ReadCpuJiffies();

  std::vector<RoundOutcome> plain;
  for (size_t r = 0; r < rounds; ++r) {
    plain.push_back(RunRound(*spec, args, static_cast<int>(r), window_s,
                             /*traced=*/false, &result, nullptr));
  }
  LayerTotals layers;
  std::vector<RoundOutcome> traced;
  if (args.trace) {
    for (size_t r = 0; r < rounds; ++r) {
      traced.push_back(RunRound(*spec, args, static_cast<int>(r), window_s,
                                /*traced=*/true, &result, &layers));
    }
  }
  const CpuJiffies jiffies1 = ReadCpuJiffies();

  // End-to-end figures come from the quietest tenth of all untraced
  // slices (see SummarizeQuietest); set-up is the median over rounds.
  auto pooled = [](const std::vector<RoundOutcome>& v) {
    std::vector<Interval> all;
    for (const RoundOutcome& o : v) {
      all.insert(all.end(), o.intervals.begin(), o.intervals.end());
    }
    return all;
  };
  const std::vector<Interval> plain_intervals = pooled(plain);
  const QuietSummary quiet = SummarizeQuietest(plain_intervals, kQuietShare);
  const QuietSummary whole = SummarizeQuietest(plain_intervals, 1.0);
  std::vector<double> setups;
  int threads = 0;
  for (const RoundOutcome& o : plain) setups.push_back(o.setup_s);
  for (const auto* set : {&plain, &traced}) {
    for (const RoundOutcome& o : *set) {
      result.attempted += o.attempted;
      result.failed += o.failed;
      threads = std::max(threads, o.threads);
    }
  }
  const double cpu_plain = quiet.cpu_us_per_op;

  const double steal = StealShare(jiffies0, jiffies1);
  result.detail = {
      {"rounds", static_cast<double>(rounds), "count"},
      {"window_s_per_round", window_s, "s"},
      {"intervals_kept", static_cast<double>(quiet.kept), "count"},
      {"intervals_total", static_cast<double>(quiet.total), "count"},
      {"intervals_kept_steal_share", quiet.noise, "ratio"},
      {"latency_samples", static_cast<double>(quiet.latency.samples),
       "count"},
      {"latency_p99_supported", quiet.latency.p99_supported ? 1.0 : 0.0,
       "bool"},
      {"error_rate",
       result.attempted == 0
           ? 0
           : static_cast<double>(result.failed) / result.attempted,
       "ratio"},
      {"whole_window.throughput_rps", whole.throughput, "1/s"},
      {"whole_window.latency_p50_ms", whole.latency.p50_ms, "ms"},
      {"whole_window.latency_p99_ms", whole.latency.p99_ms, "ms"},
      {"whole_window.cpu_us_per_op", whole.cpu_us_per_op, "us"},
      {"host.steal_share", steal, "ratio"},
      {"host.nproc", static_cast<double>(NumCpus()), "count"},
      {"host.threads", static_cast<double>(threads), "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  if (!args.trace) {
    result.values = {
        {"throughput_rps", quiet.throughput},
        {"latency_p50_ms", quiet.latency.p50_ms},
        {"latency_p99_ms", quiet.latency.p99_ms},
        {"cpu_us_per_op", cpu_plain},
        {"setup_s", Median(setups)},
    };
    return result;
  }

  const LayerTotals& L = layers;
  const double ops = L.committed;
  const double n_rounds = std::max<double>(1, static_cast<double>(L.rounds));
  const double cpu_traced =
      SummarizeQuietest(pooled(traced), kQuietShare).cpu_us_per_op;
  const double model_leader =
      spec->pig ? pig::model::PigPaxosLoad(kNodes, spec->relay_groups).leader
                : pig::model::PaxosLoad(kNodes).leader;
  const double leader_msgs =
      PerOp(L.leader_msgs_in + L.leader_msgs_out, ops);
  auto share = [](double wait, double run) {
    return wait + run > 0 ? wait / (wait + run) : 0;
  };

  // Layers this workload does not exercise (the simulator's) read 0.
  result.values = {
      {"runtime.leader_loop_cpu_us_per_op",
       PerOp(L.leader_run_ns - L.leader_top_ns, ops) / 1e3},
      {"runtime.replica_loop_cpu_us_per_op",
       PerOp(L.other_run_ns - L.other_top_ns, ops) / 1e3},
      {"runtime.leader_runq_wait_share",
       share(L.leader_wait_ns, L.leader_run_ns)},
      {"runtime.runq_wait_share", share(L.leader_wait_ns + L.other_wait_ns,
                                        L.leader_run_ns + L.other_run_ns)},
      {"runtime.msgs_delivered_per_op", PerOp(L.msgs_in, ops)},
      {"consensus.leader_send_us_per_op", PerOp(L.leader_send_ns, ops) / 1e3},
      {"consensus.leader_bytes_out_per_op", PerOp(L.leader_bytes_out, ops)},
      {"consensus.bytes_out_per_op", PerOp(L.bytes_out, ops)},
      {"paxos.leader_handler_us_per_op", PerOp(L.leader_handler_ns, ops) / 1e3},
      {"paxos.replica_handler_us_per_op", PerOp(L.other_handler_ns, ops) / 1e3},
      {"paxos.leader_msgs_in_per_op", PerOp(L.leader_msgs_in, ops)},
      {"paxos.leader_msgs_out_per_op", PerOp(L.leader_msgs_out, ops)},
      {"paxos.cmds_per_slot",
       L.leader_slots > 0 ? L.leader_cmds / L.leader_slots : 1.0},
      {"paxos.pipeline_stalls_per_kop",
       L.leader_proposals > 0 ? 1e3 * L.leader_stalls / L.leader_proposals
                              : 0},
      {"paxos.elections", L.elections / n_rounds},
      {"paxos.propose_retries", L.propose_retries / n_rounds},
      {"pigpaxos.relay_handler_us_per_op", PerOp(L.other_relay_ns, ops) / 1e3},
      {"pigpaxos.relay_timeouts", L.relay_timeouts / n_rounds},
      {"pigpaxos.relays_suspected", L.relays_suspected / n_rounds},
      {"storage.records_per_sync", L.syncs > 0 ? L.appends / L.syncs : 0},
      {"storage.leader_append_us_per_op", PerOp(L.leader_append_ns, ops) / 1e3},
      {"storage.leader_sync_us_per_op", PerOp(L.leader_sync_ns, ops) / 1e3},
      {"storage.snapshot_ms",
       L.snapshots > 0 ? L.snapshot_ns / L.snapshots / 1e6 : 0},
      {"process.allocs_per_op", PerOp(L.allocs, ops)},
      {"process.peak_rss_mb", PeakRssMb()},
      {"client.redirects", L.redirects / n_rounds},
      {"client.stale_replies", L.stale_replies / n_rounds},
      {"trace_overhead", cpu_traced - cpu_plain},
      {"host.steal_share", steal},
      {"host.nproc", static_cast<double>(NumCpus())},
      {"host.threads", static_cast<double>(threads)},
      {"model.leader_msgs_per_op", model_leader},
      {"model.leader_msgs_ratio", leader_msgs / model_leader},
  };
  result.detail.push_back({"cpu_us_per_op.untraced", cpu_plain, "us"});
  result.detail.push_back({"cpu_us_per_op.traced", cpu_traced, "us"});
  result.detail.push_back({"snapshots", L.snapshots, "count"});
  return result;
}

}  // namespace perfbench
