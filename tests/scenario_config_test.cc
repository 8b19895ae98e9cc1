// JSON scenario configs (harness/scenario_config.h): lossless round
// trips through the serializer, strict rejection of malformed input,
// validation against a concrete cluster size, and the checked-in golden
// files under scenarios/ — wan_chaos.json must replay byte-identically
// to the programmatic spec examples/wan_chaos.cpp builds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/scenario.h"
#include "harness/scenario_config.h"

namespace pig::test {
namespace {

using harness::FaultEvent;
using harness::FaultKind;
using harness::FaultKindFromName;
using harness::FaultKindName;
using harness::LoadScenarioFile;
using harness::ScenarioFromJson;
using harness::ScenarioSpec;
using harness::ScenarioToJson;
using harness::Topology;
using harness::ValidateScenario;

// ---------------------------------------------------------------------------
// Kind names: bijective over the whole enum.

TEST(ScenarioConfigTest, FaultKindNamesRoundTrip) {
  const FaultKind kinds[] = {
      FaultKind::kCrash,          FaultKind::kRecover,
      FaultKind::kPartition,      FaultKind::kHeal,
      FaultKind::kGraySlowStart,  FaultKind::kGraySlowEnd,
      FaultKind::kLinkDown,       FaultKind::kLinkUp,
      FaultKind::kReshuffle,      FaultKind::kCrashGroupLeader,
      FaultKind::kCrashWithDisk,  FaultKind::kCrashLosingDisk,
      FaultKind::kOneWayDown,     FaultKind::kOneWayRestore,
      FaultKind::kDuplicateLink,  FaultKind::kReorderLink,
      FaultKind::kClockSkew,
  };
  for (FaultKind k : kinds) {
    Result<FaultKind> back = FaultKindFromName(FaultKindName(k));
    ASSERT_TRUE(back.ok()) << FaultKindName(k);
    EXPECT_EQ(back.value(), k) << FaultKindName(k);
  }
  EXPECT_FALSE(FaultKindFromName("explode").ok());
  EXPECT_FALSE(FaultKindFromName("").ok());
}

// ---------------------------------------------------------------------------
// Round trip: a spec touching every fault kind serializes, parses back,
// and re-serializes byte-identically (the serializer is deterministic,
// so byte equality == field-for-field equality).

ScenarioSpec EveryKindSpec() {
  using namespace harness;
  ScenarioSpec s;
  s.name = "kitchen-sink";
  s.topology = Topology::kWanVaCaOr;
  s.gray_extra_latency = 7 * kMillisecond;
  s.schedule = {
      CrashEvent(100 * kMillisecond, 4),
      RecoverEvent(200 * kMillisecond, 4),
      PartitionEvent(300 * kMillisecond, {0, 0, 1, 1, 2}),
      HealEvent(400 * kMillisecond),
      GraySlowEvent(500 * kMillisecond, 2, /*start=*/true),
      GraySlowEvent(600 * kMillisecond, 2, /*start=*/false),
      LinkEvent(700 * kMillisecond, 0, 3, /*down=*/true),
      LinkEvent(800 * kMillisecond, 0, 3, /*down=*/false),
      ReshuffleEvent(900 * kMillisecond),
      CrashGroupLeaderEvent(1000 * kMillisecond, 2),
      CrashWithDiskEvent(1100 * kMillisecond, 1),
      CrashLosingDiskEvent(1200 * kMillisecond, 1),
      OneWayPartitionEvent(1300 * kMillisecond, 2, kInvalidNode, true),
      OneWayPartitionEvent(1400 * kMillisecond, 2, kInvalidNode, false),
      DuplicateLinkEvent(1500 * kMillisecond, kInvalidNode, kInvalidNode,
                         0.25),
      ReorderLinkEvent(1600 * kMillisecond, 1, 2, 5 * kMillisecond),
      ClockSkewEvent(1700 * kMillisecond, 3, 1.5),
  };
  return s;
}

TEST(ScenarioConfigTest, RoundTripIsByteIdentical) {
  const ScenarioSpec spec = EveryKindSpec();
  const std::string json = ScenarioToJson(spec);
  Result<ScenarioSpec> parsed = ScenarioFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(ScenarioToJson(parsed.value()), json);

  // Spot-check the fields survived (not just the serialization).
  const ScenarioSpec& p = parsed.value();
  ASSERT_EQ(p.schedule.size(), spec.schedule.size());
  EXPECT_EQ(p.name, "kitchen-sink");
  EXPECT_EQ(p.topology, Topology::kWanVaCaOr);
  EXPECT_EQ(p.gray_extra_latency, spec.gray_extra_latency);
  for (size_t i = 0; i < p.schedule.size(); ++i) {
    EXPECT_EQ(p.schedule[i].at, spec.schedule[i].at) << i;
    EXPECT_EQ(p.schedule[i].kind, spec.schedule[i].kind) << i;
    EXPECT_EQ(p.schedule[i].node, spec.schedule[i].node) << i;
    EXPECT_EQ(p.schedule[i].peer, spec.schedule[i].peer) << i;
    EXPECT_EQ(p.schedule[i].partition_groups,
              spec.schedule[i].partition_groups)
        << i;
    EXPECT_EQ(p.schedule[i].group, spec.schedule[i].group) << i;
    EXPECT_EQ(p.schedule[i].value, spec.schedule[i].value) << i;
    EXPECT_EQ(p.schedule[i].extra_latency, spec.schedule[i].extra_latency)
        << i;
  }
}

TEST(ScenarioConfigTest, ControlCharactersInNamesRoundTrip) {
  // The writer escapes control characters as \u00XX; the reader must
  // accept exactly what the writer emits.
  ScenarioSpec spec;
  spec.name = std::string("cr\rhere\x01 \"quoted\" tab\t\\");
  const std::string json = ScenarioToJson(spec);
  Result<ScenarioSpec> parsed = ScenarioFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().name, spec.name);
  EXPECT_EQ(ScenarioToJson(parsed.value()), json);
}

TEST(ScenarioConfigTest, MillisecondTimesParse) {
  Result<ScenarioSpec> r = ScenarioFromJson(
      R"({"name":"ms","schedule":[{"at_ms":1.5,"kind":"heal"}]})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().schedule.size(), 1u);
  EXPECT_EQ(r.value().schedule[0].at, 1500 * kMicrosecond);
}

// ---------------------------------------------------------------------------
// Strict rejection: malformed input is an error, never a silent skip.

TEST(ScenarioConfigTest, RejectsMalformedInput) {
  const char* bad[] = {
      // Unknown fault kind.
      R"({"schedule":[{"at_ms":5,"kind":"explode"}]})",
      // Missing kind.
      R"({"schedule":[{"at_ms":5}]})",
      // Negative time.
      R"({"schedule":[{"at_ms":-5,"kind":"heal"}]})",
      // Both time spellings at once.
      R"({"schedule":[{"at_ms":5,"at_ns":5,"kind":"heal"}]})",
      // Probability out of range.
      R"({"schedule":[{"at_ms":5,"kind":"duplicate-link","probability":1.5}]})",
      // Zero clock-skew factor.
      R"({"schedule":[{"at_ms":5,"kind":"clock-skew","node":1,"factor":0}]})",
      // Crash needs a concrete node, not a wildcard.
      R"({"schedule":[{"at_ms":5,"kind":"crash","node":"*"}]})",
      // Unknown topology.
      R"({"name":"x","topology":"marsnet","schedule":[]})",
      // Trailing garbage / syntax errors.
      R"({"schedule":[]} extra)",
      R"({"schedule":[)",
      R"({'schedule':[]})",
      // Truncated, non-hex, non-ASCII and surrogate \u escapes.
      R"({"name":"\u00","schedule":[]})",
      R"({"name":"\u00zz","schedule":[]})",
      R"({"name":"\u00e9","schedule":[]})",
      R"({"name":"\ud800","schedule":[]})",
      "",
  };
  for (const char* json : bad) {
    Result<ScenarioSpec> r = ScenarioFromJson(json);
    EXPECT_FALSE(r.ok()) << "accepted: " << json;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << json;
    }
  }
}

TEST(ScenarioConfigTest, ValidateChecksNodeRanges) {
  ScenarioSpec s;
  s.schedule = {harness::CrashEvent(100 * kMillisecond, 7)};
  EXPECT_TRUE(ValidateScenario(s, 9).ok());
  Status small = ValidateScenario(s, 5);
  EXPECT_FALSE(small.ok());
  EXPECT_EQ(small.code(), StatusCode::kOutOfRange);

  ScenarioSpec part;
  part.schedule = {
      harness::PartitionEvent(100 * kMillisecond, {0, 0, 1, 1, 2, 2})};
  EXPECT_TRUE(ValidateScenario(part, 6).ok());
  EXPECT_FALSE(ValidateScenario(part, 5).ok());

  // Wildcards are fine at any cluster size.
  ScenarioSpec wild;
  wild.schedule = {harness::DuplicateLinkEvent(
      100 * kMillisecond, kInvalidNode, kInvalidNode, 0.5)};
  EXPECT_TRUE(ValidateScenario(wild, 3).ok());
}

TEST(ScenarioConfigTest, LoadReportsMissingFile) {
  Result<ScenarioSpec> r = LoadScenarioFile("/nonexistent/nope.json");
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Golden files. scenarios/wan_chaos.json is the serialized twin of the
// spec examples/wan_chaos.cpp builds programmatically; the two must stay
// byte-identical AND behave identically when replayed under one seed.

ScenarioSpec WanChaosProgrammatic() {
  using namespace harness;
  ScenarioSpec spec;
  spec.name = "wan-chaos-demo";
  spec.topology = Topology::kWanVaCaOr;
  spec.schedule = {
      PartitionEvent(500 * kMillisecond, {0, 0, 0, 0, 0, 0, 1, 1, 1}),
      CrashEvent(900 * kMillisecond, 4),
      HealEvent(1600 * kMillisecond),
      RecoverEvent(2000 * kMillisecond, 4),
      GraySlowEvent(2400 * kMillisecond, 7, /*start=*/true),
      GraySlowEvent(3200 * kMillisecond, 7, /*start=*/false),
  };
  return spec;
}

TEST(ScenarioConfigTest, GoldenWanChaosMatchesProgrammaticSpec) {
  Result<ScenarioSpec> loaded =
      LoadScenarioFile(std::string(PIG_SCENARIO_DIR) + "/wan_chaos.json");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ScenarioToJson(loaded.value()),
            ScenarioToJson(WanChaosProgrammatic()));
  EXPECT_TRUE(ValidateScenario(loaded.value(), 9).ok());
}

TEST(ScenarioConfigTest, GoldenWanChaosReplaysIdentically) {
  Result<ScenarioSpec> loaded =
      LoadScenarioFile(std::string(PIG_SCENARIO_DIR) + "/wan_chaos.json");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kPigPaxos;
  cfg.num_replicas = 9;
  cfg.relay_groups = 3;
  cfg.num_clients = 8;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 200 * kMillisecond;
  cfg.measure = 1500 * kMillisecond;
  cfg.seed = 2026;

  harness::RunResult from_file = RunScenario(loaded.value(), cfg);
  harness::RunResult from_code = RunScenario(WanChaosProgrammatic(), cfg);
  EXPECT_EQ(from_file.throughput, from_code.throughput);
  EXPECT_EQ(from_file.p50_ms, from_code.p50_ms);
  EXPECT_EQ(from_file.p99_ms, from_code.p99_ms);
  EXPECT_EQ(from_file.elections_started, from_code.elections_started);
  EXPECT_EQ(from_file.timeouts, from_code.timeouts);
  EXPECT_GT(from_file.throughput, 0.0);
}

TEST(ScenarioConfigTest, GoldenSmokeValidatesForFiveNodes) {
  Result<ScenarioSpec> smoke =
      LoadScenarioFile(std::string(PIG_SCENARIO_DIR) + "/smoke.json");
  ASSERT_TRUE(smoke.ok()) << smoke.status().ToString();
  EXPECT_TRUE(ValidateScenario(smoke.value(), 5).ok())
      << ValidateScenario(smoke.value(), 5).ToString();
  // Exercises every new delivery-fault kind at least once.
  bool dup = false, reorder = false, oneway = false, skew = false;
  for (const FaultEvent& e : smoke.value().schedule) {
    dup = dup || e.kind == FaultKind::kDuplicateLink;
    reorder = reorder || e.kind == FaultKind::kReorderLink;
    oneway = oneway || e.kind == FaultKind::kOneWayDown;
    skew = skew || e.kind == FaultKind::kClockSkew;
  }
  EXPECT_TRUE(dup && reorder && oneway && skew);
}

}  // namespace
}  // namespace pig::test
