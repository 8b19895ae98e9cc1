// pig_node — one replica (or benchmark client) as a real OS process on
// the TCP runtime. A shell script (scripts/run_tcp_cluster.sh) launches
// one process per node:
//
//   pig_node --node-id=3 --peers=127.0.0.1:42100,...,127.0.0.1:42108
//            --protocol=pigpaxos --relay-groups=3
//   pig_node --client --peers=... --ops=200        # blocking workload
//
// The i-th --peers entry is node i's listen address; a replica binds its
// own entry and dials the rest. The client joins with an ephemeral port
// (replies return over its dialed connections), runs `--ops` sequential
// puts plus a read-back check, prints "committed=N failed=M", and exits
// nonzero on any failure. Replicas run until SIGTERM/SIGINT.
//
// With --data-dir=PATH the replica runs durably: each consensus group
// gets a segmented WAL + snapshot subtree at PATH/group-<g>
// (storage/file_storage.h), and a kill -9'd process restarted with the
// same --data-dir recovers its committed prefix from disk before
// rejoining — peers only supply the delta via LogSync.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "epaxos/messages.h"
#include "harness/node_builder.h"
#include "harness/scenario_config.h"
#include "pigpaxos/messages.h"
#include "runtime/sync_client.h"
#include "runtime/tcp_cluster.h"
#include "shard/messages.h"
#include "storage/file_storage.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

struct Args {
  pig::NodeId node_id = pig::kInvalidNode;
  bool client = false;
  std::vector<std::pair<std::string, uint16_t>> peers;
  /// Replica knobs; num_groups (1 = unsharded) also steers the client.
  pig::harness::ReplicaConfig replica = [] {
    pig::harness::ReplicaConfig cfg;
    cfg.protocol = pig::harness::Protocol::kPigPaxos;
    cfg.relay_groups = 3;
    // Executed slots between durable snapshots when --data-dir is set.
    cfg.snapshot_interval = 4096;
    return cfg;
  }();
  int ops = 100;
  /// Client-only: pause between commands. Fault-injection runs use this
  /// to stretch the workload across a scripted kill/restart window.
  int op_delay_ms = 0;
  uint64_t seed = 1;
  /// Replica-only: durable WAL + snapshot root (empty = memory only).
  std::string data_dir;
  /// Scenario pack (scenarios/*.json) to load and validate at startup.
  /// The TCP runtime has no virtual-time fault engine, so the schedule
  /// is checked and logged, not executed — the same file drives the
  /// simulator harness and the conformance matrix, and a node that
  /// rejects it fails fast before any process in the pack launches.
  std::string scenario_file;
};

/// Parses a whole decimal string into [min, max]; false on anything
/// else (empty, sign, trailing characters, overflow).
template <typename T>
bool ParseNumber(std::string_view text, T min, T max, T* out) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < static_cast<uint64_t>(min) ||
      v > static_cast<uint64_t>(max)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// --protocol values (the TCP runtime has no ring baseline).
bool ParseProtocol(std::string_view name, pig::harness::Protocol* out) {
  using pig::harness::Protocol;
  static const std::pair<std::string_view, Protocol> kNames[] = {
      {"paxos", Protocol::kPaxos},
      {"pigpaxos", Protocol::kPigPaxos},
      {"epaxos", Protocol::kEPaxos}};
  for (const auto& [known, protocol] : kNames) {
    if (name == known) {
      *out = protocol;
      return true;
    }
  }
  return false;
}

bool ParsePeers(const std::string& csv, Args* args) {
  size_t start = 0;
  while (start < csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string entry = csv.substr(start, comma - start);
    const size_t colon = entry.rfind(':');
    uint16_t port = 0;
    if (colon == std::string::npos ||
        !ParseNumber<uint16_t>(std::string_view(entry).substr(colon + 1), 1,
                               65535, &port)) {
      return false;
    }
    args->peers.emplace_back(entry.substr(0, colon), port);
    start = comma + 1;
  }
  return !args->peers.empty();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    bool ok = true;
    if (const char* v = value("--node-id=")) {
      ok = ParseNumber<pig::NodeId>(v, 0, pig::kInvalidNode - 1,
                                    &args->node_id);
    } else if (arg == "--client") {
      args->client = true;
    } else if (const char* p = value("--peers=")) {
      ok = ParsePeers(p, args);
    } else if (const char* v2 = value("--protocol=")) {
      ok = ParseProtocol(v2, &args->replica.protocol);
    } else if (const char* v3 = value("--relay-groups=")) {
      ok = ParseNumber<size_t>(v3, 1, 1u << 16, &args->replica.relay_groups);
    } else if (const char* vg = value("--num-groups=")) {
      ok = ParseNumber<size_t>(vg, 1, 1u << 16, &args->replica.num_groups);
    } else if (const char* v4 = value("--ops=")) {
      ok = ParseNumber<int>(v4, 0, kIntMax, &args->ops);
    } else if (const char* vd = value("--op-delay-ms=")) {
      ok = ParseNumber<int>(vd, 0, kIntMax, &args->op_delay_ms);
    } else if (const char* v5 = value("--seed=")) {
      ok = ParseNumber<uint64_t>(v5, 0, UINT64_MAX, &args->seed);
    } else if (const char* vdd = value("--data-dir=")) {
      args->data_dir = vdd;
    } else if (const char* vsi = value("--snapshot-interval=")) {
      ok = ParseNumber<size_t>(vsi, 0, SIZE_MAX,
                               &args->replica.snapshot_interval);
    } else if (const char* vsc = value("--scenario=")) {
      args->scenario_file = vsc;
    } else {
      std::fprintf(stderr, "pig_node: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "pig_node: bad value in %s\n", arg.c_str());
      return false;
    }
  }
  if (args->peers.empty()) return false;
  if (!args->client && args->node_id >= args->peers.size()) return false;
  args->replica.num_replicas = args->peers.size();
  return true;
}

/// The per-process FileStorage instances; the replica actors hold
/// non-owning pointers, so RunReplica keeps this alive past cluster
/// teardown.
using StorageList =
    std::vector<std::unique_ptr<pig::storage::FileStorage>>;

/// Builds this process's node. With --data-dir each consensus group
/// opens PATH/group-<g>; `owned` keeps those stores alive.
pig::Result<std::unique_ptr<pig::Actor>> MakeReplica(const Args& args,
                                                     StorageList* owned) {
  pig::harness::GroupStorage group_storage;
  if (!args.data_dir.empty()) {
    group_storage = [&args, owned](uint32_t group)
        -> pig::Result<pig::storage::Storage*> {
      const std::string dir =
          args.data_dir + "/group-" + std::to_string(group);
      auto fsb = std::make_unique<pig::storage::FileStorage>(dir);
      if (!fsb->ok()) {
        return pig::Status::Unavailable("cannot open data dir " + dir +
                                        ": " +
                                        fsb->open_error().ToString());
      }
      owned->push_back(std::move(fsb));
      return owned->back().get();
    };
  }
  return pig::harness::BuildNode(args.replica, args.node_id, group_storage);
}

/// Loads and validates the --scenario pack against this cluster's size.
/// Returns false (after printing the parse or validation error) so a bad
/// pack fails the whole launch before any node starts serving.
bool CheckScenario(const Args& args) {
  if (args.scenario_file.empty()) return true;
  pig::Result<pig::harness::ScenarioSpec> spec =
      pig::harness::LoadScenarioFile(args.scenario_file);
  if (!spec.ok()) {
    std::fprintf(stderr, "pig_node: %s\n",
                 spec.status().ToString().c_str());
    return false;
  }
  pig::Status valid =
      pig::harness::ValidateScenario(spec.value(), args.peers.size());
  if (!valid.ok()) {
    std::fprintf(stderr, "pig_node: %s\n", valid.ToString().c_str());
    return false;
  }
  std::printf("pig_node: scenario-loaded name=%s events=%zu\n",
              spec.value().name.c_str(), spec.value().schedule.size());
  std::fflush(stdout);
  return true;
}

int RunReplica(const Args& args) {
  // A server process wants the cold-path operational log (elections,
  // snapshot installs, wal-recovery) on stderr; the kWarn default exists
  // for the simulator's hot loop, not for a long-running node. The
  // durable restart script greps the wal-recovery line specifically.
  pig::SetLogLevel(pig::LogLevel::kInfo);
  StorageList storages;  // declared first: outlives the replica actors
  pig::runtime::TcpCluster cluster(args.seed);
  for (pig::NodeId i = 0; i < args.peers.size(); ++i) {
    if (i == args.node_id) continue;
    cluster.AddPeer(i, args.peers[i].first, args.peers[i].second);
  }
  pig::Result<std::unique_ptr<pig::Actor>> replica =
      MakeReplica(args, &storages);
  if (!replica.ok()) {
    std::fprintf(stderr, "pig_node: %s\n",
                 replica.status().ToString().c_str());
    return 2;
  }
  cluster.AddActor(args.node_id, replica.MoveValue(),
                   args.peers[args.node_id].second);
  if (cluster.port(args.node_id) != args.peers[args.node_id].second) {
    std::fprintf(stderr, "pig_node: could not bind port %u\n",
                 args.peers[args.node_id].second);
    return 2;
  }
  cluster.Start();
  std::printf("pig_node: node %u listening on %u (%s)\n", args.node_id,
              cluster.port(args.node_id),
              pig::harness::ProtocolName(args.replica.protocol).c_str());
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  cluster.Stop();
  return 0;
}

int RunClient(const Args& args) {
  pig::runtime::TcpCluster cluster(args.seed);
  for (pig::NodeId i = 0; i < args.peers.size(); ++i) {
    cluster.AddPeer(i, args.peers[i].first, args.peers[i].second);
  }
  auto client = std::make_unique<pig::runtime::SyncClient>(
      args.peers.size(), static_cast<uint32_t>(args.replica.num_groups));
  pig::runtime::SyncClient* kv = client.get();
  cluster.AddActor(pig::kFirstClientId, std::move(client), /*port=*/0);
  cluster.Start();

  int committed = 0;
  int failed = 0;
  for (int i = 0; i < args.ops && g_stop == 0; ++i) {
    char key[32];
    char value[32];
    std::snprintf(key, sizeof(key), "tcp-k%05d", i);
    std::snprintf(value, sizeof(value), "v%d", i);
    pig::Result<std::string> r =
        kv->Execute(pig::OpType::kPut, key, value, 15 * pig::kSecond);
    if (r.ok()) {
      ++committed;
    } else {
      ++failed;
      std::fprintf(stderr, "pig_node: put %s failed: %s\n", key,
                   r.status().ToString().c_str());
    }
    if (args.op_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.op_delay_ms));
    }
  }
  // Read-back check: the last write must be visible.
  bool verified = true;
  if (committed > 0) {
    char key[32];
    char want[32];
    std::snprintf(key, sizeof(key), "tcp-k%05d", args.ops - 1);
    std::snprintf(want, sizeof(want), "v%d", args.ops - 1);
    pig::Result<std::string> r =
        kv->Execute(pig::OpType::kGet, key, "", 15 * pig::kSecond);
    verified = r.ok() && r.value() == want;
    if (!verified) {
      std::fprintf(stderr, "pig_node: read-back of %s failed\n", key);
    }
  }
  cluster.Stop();
  std::printf("committed=%d failed=%d\n", committed, failed);
  std::fflush(stdout);
  return (failed == 0 && committed == args.ops && verified) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pig_node --node-id=N --peers=host:port,... "
                 "[--protocol=paxos|pigpaxos|epaxos] [--relay-groups=K] "
                 "[--num-groups=G] [--seed=S] [--data-dir=PATH] "
                 "[--snapshot-interval=I] [--scenario=FILE.json]\n"
                 "       pig_node --client --peers=... [--ops=N] "
                 "[--num-groups=G] [--op-delay-ms=D]\n");
    return 2;
  }
  if (!CheckScenario(args)) return 2;
  pig::pigpaxos::RegisterPigPaxosMessages();
  pig::epaxos::RegisterEPaxosMessages();
  pig::shard::RegisterShardMessages();
  return args.client ? RunClient(args) : RunReplica(args);
}
