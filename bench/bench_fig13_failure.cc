// Reproduces Fig. 13: throughput over time on a 25-node PigPaxos (3 relay
// groups) while one follower is crashed for a third of the run. Relay
// timeout 50 ms (the paper's setting: >40x the normal-case latency),
// throughput sampled over 1-second windows.
//
// Paper result: the faulty relay group times out, but the two healthy
// groups plus the leader still form a majority; max throughput declines
// only ~3% during the failure window.
#include <cstdio>
#include <numeric>

#include "harness/scenario.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Fig. 13: throughput under a single-node failure, 25-node "
      "PigPaxos, 3 groups ===\nRelay timeout 50 ms. Node 20 (in the third "
      "relay group) is down from t=20s to t=40s.\n\n");

  ExperimentConfig cfg;
  cfg.protocol = Protocol::kPigPaxos;
  cfg.num_replicas = 25;
  cfg.relay_groups = 3;
  cfg.relay_timeout = 50 * kMillisecond;
  cfg.num_clients = 512;  // saturating load, as in the paper
  cfg.seed = 42;
  cfg.warmup = 2 * kSecond;
  cfg.measure = 58 * kSecond;
  ScenarioSpec spec;
  spec.schedule = {CrashEvent(20 * kSecond, 20),
                   RecoverEvent(40 * kSecond, 20)};

  RunResult res = RunScenario(spec, cfg);

  std::printf(" t(s) | throughput (req/s)\n");
  std::printf(" -----+-------------------\n");
  for (size_t s = 2; s < res.timeline.size() && s < 60; ++s) {
    const char* marker = (s >= 20 && s < 40) ? "  <- failure" : "";
    std::printf(" %4zu | %18llu%s\n", s,
                static_cast<unsigned long long>(res.timeline[s]), marker);
  }

  auto avg = [&](size_t from, size_t to) {
    double sum = 0;
    size_t n = 0;
    for (size_t s = from; s < to && s < res.timeline.size(); ++s, ++n) {
      sum += static_cast<double>(res.timeline[s]);
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  const double healthy = (avg(5, 20) + avg(42, 58)) / 2.0;
  const double faulty = avg(21, 40);
  const double delta = (faulty / healthy - 1.0) * 100.0;
  std::printf(
      "\nHealthy-period avg: %.0f req/s; failure-period avg: %.0f req/s "
      "(%+.1f%% change).\nPaper: ~3%% decline — the two healthy relay "
      "groups still deliver the majority, so\nthe impact stays within a "
      "few percent either way (see EXPERIMENTS.md on the sign).\n",
      healthy, faulty, delta);
  return 0;
}
