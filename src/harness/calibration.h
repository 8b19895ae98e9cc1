// Calibration notes for the simulated CPU model, sim::DefaultReplicaCpu()
// (src/sim/cluster.cc). This header holds no code.
//
// The paper measured ~2000 req/s for a saturated 25-node Multi-Paxos
// leader on m5a.large (2 vCPU). Per its own §6.1 model the leader handles
// M_l = 2(N-1) + 2 = 50 messages per request. A saturated leader therefore
// spends ~1/2000 s = 500 us per request, i.e. ~10 us of CPU per message —
// a plausible per-message cost for the Go/JSON Paxi stack.
//
// DefaultReplicaCpu() uses 9 us base per message plus 2 ns/byte, which
// lands 25-node Paxos near the paper's 2k req/s. All other results
// (relay-group scaling, protocol ratios, crossover points) are emergent.
//
// EPaxosOptions carries separate knobs (attr_cost, exec_node_cost,
// exec_edge_cost) modeling dependency bookkeeping; they scale with the
// *actual* graph work the implementation performs, so low-conflict
// workloads are proportionally cheaper.
