// Scenario-engine tests: scripted WAN chaos schedules driven through the
// conformance harness (against both PigPaxos and the Ring baseline),
// gray slowdowns, the ring baseline's fallback path, and the comparative
// sweep runner's coverage + byte-identical same-seed reports.
#include <gtest/gtest.h>

#include <string>

#include "baselines/ring_replica.h"
#include "conformance.h"
#include "harness/scenario.h"
#include "test_util.h"

namespace pig::test {
namespace {

using harness::Protocol;
using harness::ScenarioSpec;
using harness::SweepAxes;
using harness::Topology;

// ---------------------------------------------------------------------------
// Shared schedules (the ROADMAP's "partitioned-WAN chaos runs" and a
// relay-crash-during-reshuffle run). Event times are offsets from the
// conformance settle phase.

/// 9-node, 3-region WAN: region 2 (nodes 6-8) is partitioned away, a
/// region-1 node crashes while the partition holds, then everything
/// heals. A majority (6 of 9, then 5) stays connected throughout.
ScenarioSpec WanPartitionSpec() {
  ScenarioSpec spec;
  spec.name = "wan-partition";
  spec.topology = Topology::kWanVaCaOr;
  spec.schedule = {
      harness::PartitionEvent(300 * kMillisecond, {0, 0, 0, 0, 0, 0, 1, 1, 1}),
      harness::CrashEvent(600 * kMillisecond, 4),
      harness::HealEvent(1100 * kMillisecond),
      harness::RecoverEvent(1400 * kMillisecond, 4),
  };
  return spec;
}

/// 5-node LAN: dynamic regrouping is active, a forced reshuffle lands
/// while relays keep crashing and recovering around it.
ScenarioSpec RelayCrashDuringReshuffleSpec() {
  ScenarioSpec spec;
  spec.name = "relay-crash-during-reshuffle";
  spec.schedule = {
      harness::CrashEvent(200 * kMillisecond, 2),
      harness::ReshuffleEvent(250 * kMillisecond),
      harness::CrashEvent(500 * kMillisecond, 4),
      harness::ReshuffleEvent(550 * kMillisecond),
      harness::RecoverEvent(800 * kMillisecond, 2),
      harness::RecoverEvent(1100 * kMillisecond, 4),
  };
  return spec;
}

ConformanceResult RunScripted(const ScenarioSpec& spec, bool ring,
                              uint64_t seed, size_t n = 5) {
  ConformanceConfig cfg;
  cfg.name = spec.name + (ring ? "-ring" : "-pig");
  cfg.protocol = ring ? Protocol::kRing : Protocol::kPigPaxos;
  cfg.num_replicas = n;
  cfg.relay_groups = 3;
  cfg.reshuffle_interval = 300 * kMillisecond;
  cfg.scenario = spec;
  return RunConformance(cfg, seed);
}

TEST(ScenarioConformanceTest, PartitionedWanScheduleHoldsInvariants) {
  for (bool ring : {false, true}) {
    ConformanceResult r = RunScripted(WanPartitionSpec(), ring, 11, 9);
    EXPECT_EQ(r.violation, "") << (ring ? "ring: " : "pig: ") << r.violation;
    EXPECT_GT(r.completed_ops, 0u);
  }
}

TEST(ScenarioConformanceTest, RelayCrashDuringReshuffleHoldsInvariants) {
  for (bool ring : {false, true}) {
    ConformanceResult r =
        RunScripted(RelayCrashDuringReshuffleSpec(), ring, 23);
    EXPECT_EQ(r.violation, "") << (ring ? "ring: " : "pig: ") << r.violation;
    EXPECT_GT(r.completed_ops, 0u);
  }
}

TEST(ScenarioConformanceTest, ScriptedRunsAreSameSeedDeterministic) {
  for (bool ring : {false, true}) {
    ConformanceResult a = RunScripted(WanPartitionSpec(), ring, 31, 9);
    ConformanceResult b = RunScripted(WanPartitionSpec(), ring, 31, 9);
    EXPECT_EQ(a.completed_ops, b.completed_ops);
    EXPECT_EQ(a.acked_writes, b.acked_writes);
    EXPECT_EQ(a.committed_commands, b.committed_commands);
    EXPECT_EQ(a.violation, b.violation);
  }
}

// ---------------------------------------------------------------------------
// Gray slowdowns: a sluggish (slow-but-alive) node must flow through the
// latency decorator and back out again when the slowdown ends.

TEST(ScenarioEngineTest, GraySlowdownRunsAndRecovers) {
  ScenarioSpec spec;
  spec.name = "gray-slowdown";
  spec.gray_extra_latency = 30 * kMillisecond;
  spec.schedule = {
      harness::GraySlowEvent(300 * kMillisecond, 1, /*start=*/true),
      harness::GraySlowEvent(1200 * kMillisecond, 1, /*start=*/false),
  };
  harness::ExperimentConfig cfg;
  cfg.protocol = Protocol::kPigPaxos;
  cfg.num_replicas = 5;
  cfg.num_clients = 4;
  cfg.relay_groups = 2;
  cfg.relay_timeout = 20 * kMillisecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 1500 * kMillisecond;
  cfg.seed = 5;
  harness::RunResult r = harness::RunScenario(spec, cfg);
  EXPECT_GT(r.completed, 0u);
  // A 30 ms gray delay pushes the sluggish node's relay rounds past the
  // 40 ms ack deadline: the liveness layer must notice (that is what
  // gray-failure scenarios are for) and traffic must keep committing.
  EXPECT_GT(r.relays_suspected, 0u);
}

// ---------------------------------------------------------------------------
// Ring baseline: healthy rings commit through hop-by-hop forwarding; a
// severed ring trips the round watch and falls back to direct broadcast
// instead of stalling forever.

TEST(ScenarioEngineTest, RingBaselineCommitsAndFallsBackWhenSevered) {
  ScenarioSpec spec;
  spec.name = "ring-severed";
  spec.schedule = {
      harness::CrashEvent(800 * kMillisecond, 2),
  };
  harness::ExperimentConfig cfg;
  cfg.protocol = Protocol::kRing;
  cfg.num_replicas = 5;
  cfg.num_clients = 4;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 2500 * kMillisecond;
  cfg.ring_ack_timeout = 200 * kMillisecond;
  cfg.seed = 3;
  harness::RunResult r = harness::RunScenario(spec, cfg);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.ring_rounds_completed, 0u);   // the ring worked while whole
  EXPECT_GT(r.ring_timeouts, 0u);           // the crash severed it
  EXPECT_GT(r.ring_fallback_fanouts, 0u);   // direct broadcast took over
}

// ---------------------------------------------------------------------------
// Sweep runner: one invocation covers the {protocol x quorum x group}
// cross-product including the ring baseline, and the report serializes
// byte-identically across same-seed reruns.

TEST(ScenarioSweepTest, SweepCoversConfigsAndIsByteIdentical) {
  ScenarioSpec spec = WanPartitionSpec();
  SweepAxes axes;
  axes.protocols = {Protocol::kPaxos, Protocol::kPigPaxos, Protocol::kRing};
  axes.quorums = {{0, 0}, {8, 2}};
  axes.relay_groups = {2, 3};
  axes.overlaps = {0};
  axes.coalesce = {1, 4};
  harness::ExperimentConfig base;
  base.num_replicas = 9;
  base.num_clients = 6;
  base.warmup = 200 * kMillisecond;
  // The schedule heals at 1.4 s; leave every config (including the
  // region-oblivious WAN trees, which barely commit under the
  // partition) a clean tail to complete operations in.
  base.measure = 2 * kSecond;
  base.seed = 77;

  harness::SweepReport r1 = RunScenarioSweep(spec, axes, base);
  // 2 Paxos + 2 Ring + 2*2*1*2 PigPaxos rows.
  ASSERT_EQ(r1.rows.size(), 12u);
  size_t ring_rows = 0;
  for (const harness::SweepRow& row : r1.rows) {
    EXPECT_GT(row.result.completed, 0u) << row.label;
    ring_rows += row.protocol == Protocol::kRing;
  }
  EXPECT_EQ(ring_rows, 2u);

  harness::SweepReport r2 = RunScenarioSweep(spec, axes, base);
  const std::string json1 = harness::SweepReportJson(r1);
  const std::string json2 = harness::SweepReportJson(r2);
  EXPECT_EQ(json1, json2) << "same-seed sweep reports differ";
  EXPECT_NE(json1.find("\"scenario\": \"wan-partition\""), std::string::npos);
  EXPECT_NE(json1.find("\"protocol\": \"Ring\""), std::string::npos);
  EXPECT_NE(json1.find("\"configs\": 12"), std::string::npos);
}

}  // namespace
}  // namespace pig::test
