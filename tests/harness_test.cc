// Tests for the experiment harness: end-to-end runs for all protocols,
// determinism, sweep behavior, WAN topology wiring, failure injection,
// and the Fig. 7 / Table 1 relationships in miniature.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/scenario.h"

namespace pig::harness {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ExperimentConfig SmallConfig(Protocol proto) {
  ExperimentConfig cfg;
  cfg.protocol = proto;
  cfg.num_replicas = 5;
  cfg.relay_groups = 2;
  cfg.num_clients = 8;
  cfg.warmup = 300 * kMillisecond;
  cfg.measure = 700 * kMillisecond;
  cfg.seed = 9;
  return cfg;
}

TEST(HarnessTest, AllProtocolsMakeProgress) {
  for (Protocol proto :
       {Protocol::kPaxos, Protocol::kPigPaxos, Protocol::kEPaxos}) {
    RunResult res = RunExperiment(SmallConfig(proto));
    EXPECT_GT(res.throughput, 100.0) << ProtocolName(proto);
    EXPECT_GT(res.mean_ms, 0.0) << ProtocolName(proto);
    EXPECT_LE(res.p50_ms, res.p99_ms) << ProtocolName(proto);
    EXPECT_EQ(res.msgs_per_request.size(), 5u);
  }
}

TEST(HarnessTest, DeterministicForSameSeed) {
  RunResult a = RunExperiment(SmallConfig(Protocol::kPigPaxos));
  RunResult b = RunExperiment(SmallConfig(Protocol::kPigPaxos));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(HarnessTest, DifferentSeedsDiffer) {
  ExperimentConfig cfg = SmallConfig(Protocol::kPigPaxos);
  RunResult a = RunExperiment(cfg);
  cfg.seed = 10;
  RunResult b = RunExperiment(cfg);
  EXPECT_NE(a.total_events, b.total_events);
}

TEST(HarnessTest, ThroughputSaturatesWithClients) {
  ExperimentConfig cfg = SmallConfig(Protocol::kPaxos);
  auto points = LatencyThroughputSweep(cfg, {1, 8, 64});
  ASSERT_EQ(points.size(), 3u);
  // More clients => more (or equal) throughput and more latency.
  EXPECT_GE(points[1].throughput, points[0].throughput * 0.9);
  EXPECT_GE(points[2].mean_ms, points[1].mean_ms);
  // At 64 closed-loop clients a 5-node Paxos is saturated: latency is
  // roughly clients/throughput (Little's law).
  double littles = static_cast<double>(points[2].clients) /
                   points[2].throughput * 1000.0;
  EXPECT_NEAR(points[2].mean_ms, littles, littles * 0.2);
}

TEST(HarnessTest, PigBeatsPaxosAt25Nodes) {
  // Miniature Fig. 8 check (shorter windows, saturating load).
  ExperimentConfig cfg;
  cfg.num_replicas = 25;
  cfg.relay_groups = 3;
  cfg.num_clients = 256;
  cfg.warmup = 500 * kMillisecond;
  cfg.measure = 1 * kSecond;
  cfg.seed = 5;

  cfg.protocol = Protocol::kPaxos;
  RunResult paxos = RunExperiment(cfg);
  cfg.protocol = Protocol::kPigPaxos;
  RunResult pig = RunExperiment(cfg);
  EXPECT_GT(pig.throughput, paxos.throughput * 2.5)
      << "PigPaxos should beat Paxos by >3x at 25 nodes";
}

TEST(HarnessTest, MessageLoadMatchesModelAtLightLoad) {
  // Miniature Table 1 check: leader handles ~2r+2 messages per request.
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kPigPaxos;
  cfg.num_replicas = 9;
  cfg.relay_groups = 3;
  cfg.num_clients = 2;
  cfg.warmup = 300 * kMillisecond;
  cfg.measure = 1 * kSecond;
  cfg.seed = 5;
  RunResult res = RunExperiment(cfg);
  EXPECT_NEAR(res.msgs_per_request[0], 8.0, 0.5);  // Ml = 2*3+2
}

TEST(HarnessTest, WanTopologyHasLatencyFloor) {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kPigPaxos;
  cfg.num_replicas = 9;
  cfg.relay_groups = 3;
  cfg.topology = Topology::kWanVaCaOr;
  cfg.num_clients = 4;
  cfg.warmup = 1 * kSecond;
  cfg.measure = 2 * kSecond;
  cfg.seed = 6;
  RunResult res = RunExperiment(cfg);
  // Quorum needs a second region: one-way VA<->CA is ~31ms.
  EXPECT_GT(res.p50_ms, 55.0);
  EXPECT_LT(res.p50_ms, 80.0);
  EXPECT_GT(res.cross_region_msgs, 0u);
}

TEST(HarnessTest, CrashInjectionReflectsInTimeline) {
  ExperimentConfig cfg = SmallConfig(Protocol::kPigPaxos);
  cfg.num_replicas = 5;
  cfg.warmup = 0;
  cfg.measure = 4 * kSecond;
  cfg.num_clients = 16;
  // Crash the leader at t=1s; a new leader must take over and the
  // timeline must show completions near the end of the run.
  ScenarioSpec spec;
  spec.schedule = {CrashEvent(1 * kSecond, 0)};
  RunResult res = RunScenario(spec, cfg);
  ASSERT_GE(res.timeline.size(), 4u);
  EXPECT_GT(res.timeline[0], 0u);
  EXPECT_GT(res.timeline[3], 0u) << "no recovery after leader crash";
  EXPECT_GE(res.elections_started, 1u);
}

TEST(HarnessTest, MaxThroughputFindsPlateau) {
  ExperimentConfig cfg = SmallConfig(Protocol::kPaxos);
  cfg.warmup = 300 * kMillisecond;
  cfg.measure = 700 * kMillisecond;
  double max_tput = MaxThroughput(cfg, 8, 128);
  // 5-node Paxos plateaus ~10-11k req/s under this CPU model.
  EXPECT_GT(max_tput, 8000.0);
  EXPECT_LT(max_tput, 14000.0);
}

TEST(HarnessTest, FormatSweepContainsRows) {
  std::vector<LoadPoint> points = {{1, 100.0, 1.0, 1.0, 2.0},
                                   {2, 200.0, 1.1, 1.0, 2.5}};
  std::string table = FormatSweep("Title", points);
  EXPECT_NE(table.find("Title"), std::string::npos);
  EXPECT_NE(table.find("200.0"), std::string::npos);
}

TEST(HarnessTest, ProtocolNames) {
  EXPECT_EQ(ProtocolName(Protocol::kPaxos), "Paxos");
  EXPECT_EQ(ProtocolName(Protocol::kPigPaxos), "PigPaxos");
  EXPECT_EQ(ProtocolName(Protocol::kEPaxos), "EPaxos");
  EXPECT_EQ(ProtocolName(Protocol::kRing), "Ring");
}

// A sharded Ring or EPaxos run used to build PigPaxos replicas under
// the other protocol's name; it must stop with the builder's message.
TEST(HarnessDeathTest, ShardedRunRejectsNonLeaderProtocols) {
  for (Protocol proto : {Protocol::kRing, Protocol::kEPaxos}) {
    ExperimentConfig cfg = SmallConfig(proto);
    cfg.num_groups = 2;
    EXPECT_DEATH(RunExperiment(cfg), "support only Paxos and PigPaxos")
        << ProtocolName(proto);
  }
  ExperimentConfig base = SmallConfig(Protocol::kPaxos);
  base.num_groups = 2;
  base.measure = 100 * kMillisecond;
  // The default sweep axes include kRing.
  EXPECT_DEATH(RunScenarioSweep(ScenarioSpec{}, SweepAxes{}, base),
               "not Ring");
}

TEST(ReportTest, SweepCsvRoundTrip) {
  const std::string path = "/tmp/pig_report_sweep_test.csv";
  std::vector<LoadPoint> points = {{4, 1234.5, 1.25, 1.0, 3.5},
                                   {8, 2000.0, 2.5, 2.0, 7.0}};
  ASSERT_TRUE(WriteSweepCsv(path, "unit", points).ok());
  std::string csv = Slurp(path);
  EXPECT_NE(csv.find("series,clients,throughput_req_s"), std::string::npos);
  EXPECT_NE(csv.find("unit,4,1234.50"), std::string::npos);
  EXPECT_NE(csv.find("unit,8,2000.00"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReportTest, TimelineCsv) {
  const std::string path = "/tmp/pig_report_timeline_test.csv";
  ASSERT_TRUE(WriteTimelineCsv(path, {10, 20, 30}).ok());
  std::string csv = Slurp(path);
  EXPECT_NE(csv.find("second,requests"), std::string::npos);
  EXPECT_NE(csv.find("2,30"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReportTest, AppendScalarCreatesHeaderOnce) {
  const std::string path = "/tmp/pig_report_scalar_test.csv";
  std::remove(path.c_str());
  ASSERT_TRUE(AppendScalarCsv(path, "a", 1.0).ok());
  ASSERT_TRUE(AppendScalarCsv(path, "b", 2.0).ok());
  std::string csv = Slurp(path);
  EXPECT_EQ(csv.find("label,value"), csv.rfind("label,value"));
  EXPECT_NE(csv.find("a,1.0000"), std::string::npos);
  EXPECT_NE(csv.find("b,2.0000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReportTest, UnwritablePathFails) {
  EXPECT_FALSE(
      WriteSweepCsv("/nonexistent-dir/x.csv", "s", {}).ok());
}

}  // namespace
}  // namespace pig::harness
