// Fig. 8-shaped end-to-end run over the real TCP runtime.
//
// Hosts the paper's 9-node PigPaxos topology (3 relay groups) as nine
// epoll event loops talking over real loopback sockets — full framing,
// partial reads, kernel scheduling — and drives a fixed number of
// sequential client commands through it. This is a *completion* gate,
// not a latency race: scripts/bench_gate.py checks the committed_ops
// counter (every command must commit and the final read-back must
// verify), because wall time on a shared runner says little while a
// hung connect, a lost frame, or a duplicated command says everything.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "pigpaxos/messages.h"
#include "pigpaxos/replica.h"
#include "runtime/sync_client.h"
#include "runtime/tcp_cluster.h"

namespace pig {
namespace {

constexpr int kNodes = 9;
constexpr int kOps = 300;

std::unique_ptr<Actor> MakeReplica(NodeId id) {
  pigpaxos::PigPaxosOptions opt;
  opt.paxos.num_replicas = kNodes;
  opt.num_relay_groups = 3;
  return std::make_unique<pigpaxos::PigPaxosReplica>(id, opt);
}

void BM_TcpFig8Shape(benchmark::State& state) {
  pigpaxos::RegisterPigPaxosMessages();
  int64_t committed = 0;
  int64_t verified = 0;
  for (auto _ : state) {
    runtime::TcpCluster cluster(/*seed=*/42);
    for (NodeId i = 0; i < kNodes; ++i) {
      cluster.AddActor(i, MakeReplica(i));
    }
    auto client = std::make_unique<runtime::SyncClient>(kNodes);
    runtime::SyncClient* kv = client.get();
    cluster.AddActor(kFirstClientId, std::move(client));
    cluster.Start();

    for (int i = 0; i < kOps; ++i) {
      std::string key = "tcp-bench-" + std::to_string(i);
      if (kv->Execute(OpType::kPut, key, "v", 15 * kSecond).ok()) {
        ++committed;
      }
    }
    Result<std::string> last = kv->Execute(
        OpType::kGet, "tcp-bench-" + std::to_string(kOps - 1), "",
        15 * kSecond);
    if (last.ok() && last.value() == "v") ++verified;
    cluster.Stop();
  }
  state.SetItemsProcessed(committed);
  state.counters["committed_ops"] =
      static_cast<double>(committed) / state.iterations();
  state.counters["readback_ok"] =
      static_cast<double>(verified) / state.iterations();
}
BENCHMARK(BM_TcpFig8Shape)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace pig

BENCHMARK_MAIN();
