// Randomized protocol-conformance matrix (see conformance.h).
//
// Sweeps {batch size x pipeline depth x relay-group config} over many
// seeds; every run must satisfy linearizability, log-prefix agreement,
// store convergence, and the no-lost / no-duplicated command invariants.
// CMake registers this binary as four GTEST_SHARD CTest entries so the
// matrix runs in parallel; PIG_CONFORMANCE_SEEDS overrides the
// seeds-per-config count (CI's sanitizer job uses a reduced matrix).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "conformance.h"

namespace pig::test {
namespace {

harness::Protocol Proto(bool pig) {
  return pig ? harness::Protocol::kPigPaxos : harness::Protocol::kPaxos;
}

std::vector<ConformanceConfig> BuildMatrix() {
  std::vector<ConformanceConfig> configs;
  auto add = [&](const char* name, bool pig, size_t batch, size_t depth,
                 size_t groups, size_t overlap, size_t coalesce,
                 size_t q1, size_t q2, double drop) {
    ConformanceConfig c;
    c.name = name;
    c.protocol = Proto(pig);
    c.batch_size = batch;
    c.pipeline_depth = depth;
    c.relay_groups = groups;
    c.group_overlap = overlap;
    c.uplink_coalesce_max = coalesce;
    c.flexible_q1 = q1;
    c.flexible_q2 = q2;
    c.drop_probability = drop;
    configs.push_back(c);
  };
  //   name                      pig  batch depth grp ovl coal q1 q2 drop
  add("PaxosBaseline",          false, 1,   1,    0,  0,  1,  0, 0, 0.00);
  add("PaxosBatch4Depth4",      false, 4,   4,    0,  0,  1,  0, 0, 0.00);
  add("PaxosBatch8Depth8Drop",  false, 8,   8,    0,  0,  1,  0, 0, 0.02);
  add("PaxosBatch4Depth8",      false, 4,   8,    0,  0,  1,  0, 0, 0.02);
  add("PaxosFlexQBatch8",       false, 8,   2,    0,  0,  1,  4, 2, 0.00);
  add("PigBaseline",            true,  1,   1,    2,  0,  1,  0, 0, 0.00);
  add("PigBatch4Depth4",        true,  4,   4,    2,  0,  1,  0, 0, 0.00);
  add("PigBatch8Depth8",        true,  8,   8,    3,  0,  1,  0, 0, 0.00);
  add("PigBatch8Coalesce4",     true,  8,   8,    3,  0,  4,  0, 0, 0.00);
  add("PigOverlapBatch4",       true,  4,   4,    2,  1,  2,  0, 0, 0.02);
  add("PigDepthOnly8",          true,  1,   8,    3,  0,  1,  0, 0, 0.00);
  add("PigBatchOnly8Drop",      true,  8,   1,    2,  0,  1,  0, 0, 0.02);
  add("PigBatch4Drop5",         true,  4,   4,    3,  0,  1,  0, 0, 0.05);
  add("PigFlexQCoalesce2",      true,  4,   4,    2,  0,  2,  4, 2, 0.00);
  // Ring-pipeline baseline (baselines/ring_replica.h): the same chaos
  // schedules and invariants that validate PigPaxos validate the ring —
  // including its broken-ring fallback path, which crashes exercise.
  auto add_ring = [&](const char* name, size_t batch, size_t depth,
                      size_t q1, size_t q2, double drop) {
    ConformanceConfig c;
    c.name = name;
    c.protocol = harness::Protocol::kRing;
    c.batch_size = batch;
    c.pipeline_depth = depth;
    c.flexible_q1 = q1;
    c.flexible_q2 = q2;
    c.drop_probability = drop;
    configs.push_back(c);
  };
  //       name                 batch depth q1 q2 drop
  add_ring("RingBaseline",       1,   1,    0, 0, 0.00);
  add_ring("RingBatch4Depth4",   4,   4,    0, 0, 0.00);
  add_ring("RingFlexQDrop",      4,   4,    4, 2, 0.02);
  // Sharded multi-group rows (shard/): 4 consensus groups hash-partition
  // the keyspace across the same 5 nodes; every invariant runs per
  // group, plus the membership check that each committed command —
  // batch sub-commands included — landed in the group its key hashes
  // to. More keys than default so all 4 groups see traffic.
  auto add_sharded = [&](const char* name, bool pig, size_t batch,
                         size_t depth, uint32_t groups, double drop) {
    ConformanceConfig c;
    c.name = name;
    c.protocol = Proto(pig);
    c.num_groups = groups;
    c.num_keys = 16;
    c.batch_size = batch;
    c.pipeline_depth = depth;
    c.relay_groups = 2;
    c.drop_probability = drop;
    configs.push_back(c);
  };
  //          name                     pig  batch depth groups drop
  add_sharded("ShardedPig4Groups",     true,  4,   4,    4,   0.00);
  add_sharded("ShardedPaxos4GroupsDrop", false, 1, 1,    4,   0.02);
  // Durability rows (src/storage/): chaos crashes become kill -9s — the
  // victim is rebuilt over its fault-injecting MemStorage (unsynced
  // appends dropped) and must replay snapshot + WAL before rejoining.
  // Small snapshot/compaction windows keep the state-transfer and
  // prune paths hot under the same invariant set.
  auto add_disk = [&](const char* name, bool pig, uint32_t groups,
                      double drop) {
    ConformanceConfig c;
    c.name = name;
    c.protocol = Proto(pig);
    c.num_groups = groups;
    c.num_keys = groups > 1 ? 16 : 8;
    c.relay_groups = 2;
    c.disk = DiskMode::kWithDisk;
    c.snapshot_interval = 8;
    c.compaction_window = 32;
    c.drop_probability = drop;
    configs.push_back(c);
  };
  //       name                        pig  groups drop
  add_disk("PaxosCrashWithDisk",       false, 1,   0.00);
  add_disk("PaxosCrashWithDiskDrop",   false, 1,   0.02);
  add_disk("PigCrashWithDisk",         true,  1,   0.00);
  add_disk("ShardedPaxosCrashWithDisk", false, 4,  0.00);
  add_disk("ShardedPigCrashWithDisk",  true,  4,   0.00);
  // Disk-LOSS rows are scripted, not chaotic: quorum intersection
  // tolerates f crashes but not f disk wipes, so a random schedule can
  // produce legitimate data loss (wiped node pivots an election before
  // catching up) that the checker would rightly flag. The script wipes
  // a node that leads nothing while every leader stays up — the one
  // regime where a single machine replacement must be invisible.
  auto add_losing = [&](const char* name, bool pig, uint32_t groups) {
    ConformanceConfig c;
    c.name = name;
    c.protocol = Proto(pig);
    c.num_groups = groups;
    c.num_keys = groups > 1 ? 16 : 8;
    c.relay_groups = 2;
    c.disk = DiskMode::kLosingDisk;
    c.snapshot_interval = 8;
    c.compaction_window = 32;
    c.scenario.name = "follower-disk-replacement";
    c.scenario.schedule = {
        harness::CrashLosingDiskEvent(200 * kMillisecond, 4),
        harness::RecoverEvent(900 * kMillisecond, 4),
    };
    configs.push_back(c);
  };
  add_losing("PaxosFollowerLosesDisk", false, 1);
  add_losing("ShardedPigFollowerLosesDisk", true, 4);
  // Adversarial delivery-fault rows (the scenario layer's directed /
  // duplication / reordering / clock-skew kinds, harness/scenario.h):
  // each row scripts a fault window mid-run, the scripted tail heals it,
  // and the usual invariant set must hold. Duplication leans on the vote
  // masks and client dedup; reordering on commit-order independence;
  // one-way partitions on retry/suspicion paths; skew on timer safety.
  auto add_adversarial = [&](const char* name, bool pig, bool ring,
                             std::vector<harness::FaultEvent> schedule) {
    ConformanceConfig c;
    c.name = name;
    c.protocol = ring ? harness::Protocol::kRing : Proto(pig);
    c.scenario.name = name;
    c.scenario.schedule = std::move(schedule);
    configs.push_back(c);
  };
  add_adversarial(
      "PigOneWayPartition", true, false,
      {
          // Node 2 can hear but not speak; later a single directed edge
          // 0->3 dies while 3->0 stays up.
          harness::OneWayPartitionEvent(200 * kMillisecond, 2,
                                        kInvalidNode, true),
          harness::OneWayPartitionEvent(500 * kMillisecond, 0, 3, true),
          harness::OneWayPartitionEvent(900 * kMillisecond, 2,
                                        kInvalidNode, false),
          harness::OneWayPartitionEvent(1000 * kMillisecond, 0, 3, false),
      });
  add_adversarial(
      "PaxosDuplicateAll", false, false,
      {
          harness::DuplicateLinkEvent(150 * kMillisecond, kInvalidNode,
                                      kInvalidNode, 0.45),
          harness::DuplicateLinkEvent(1200 * kMillisecond, kInvalidNode,
                                      kInvalidNode, 0.0),
      });
  add_adversarial(
      "PigReorderJitter", true, false,
      {
          harness::ReorderLinkEvent(150 * kMillisecond, kInvalidNode,
                                    kInvalidNode, 8 * kMillisecond),
          harness::ReorderLinkEvent(1200 * kMillisecond, kInvalidNode,
                                    kInvalidNode, 0),
      });
  add_adversarial(
      "PigClockSkew", true, false,
      {
          // Node 1 runs slow (late timers), node 3 fast (early
          // elections); both are restored before the tail.
          harness::ClockSkewEvent(200 * kMillisecond, 1, 1.6),
          harness::ClockSkewEvent(200 * kMillisecond, 3, 0.7),
          harness::ClockSkewEvent(1100 * kMillisecond, 1, 1.0),
          harness::ClockSkewEvent(1100 * kMillisecond, 3, 1.0),
      });
  add_adversarial(
      "PigComposedChaos", true, false,
      {
          harness::DuplicateLinkEvent(150 * kMillisecond, kInvalidNode,
                                      kInvalidNode, 0.3),
          harness::ReorderLinkEvent(150 * kMillisecond, kInvalidNode,
                                    kInvalidNode, 5 * kMillisecond),
          harness::OneWayPartitionEvent(400 * kMillisecond, 4,
                                        kInvalidNode, true),
          harness::ClockSkewEvent(600 * kMillisecond, 1, 1.5),
          harness::OneWayPartitionEvent(900 * kMillisecond, 4,
                                        kInvalidNode, false),
      });
  add_adversarial(
      "RingReorderDuplicate", false, true,
      {
          harness::DuplicateLinkEvent(150 * kMillisecond, kInvalidNode,
                                      kInvalidNode, 0.3),
          harness::ReorderLinkEvent(150 * kMillisecond, kInvalidNode,
                                    kInvalidNode, 6 * kMillisecond),
      });
  // EPaxos leaderless rows: same scenario machinery, but the invariant
  // set switches to instance agreement + dependency-execution
  // convergence (CheckEPaxosInvariants). Loss-free delivery faults run
  // without retries; the one-way row needs the retransmission knobs or
  // a lost PreAccept/ECommit wedges execution at whoever missed it.
  // Row contract: client i sends to replica i % N until that replica
  // goes silent (HistoryClient::Targeting::kFixedSpread). Random per-send
  // targets are out of contract: under one-way partitions they make
  // stores diverge (EPaxosOneWayPartitionSeed1000: "stores diverged at
  // replica 1"), a symptom of the missing explicit-prepare recovery.
  auto add_epaxos = [&](const char* name, TimeNs retry, uint32_t recasts,
                        std::vector<harness::FaultEvent> schedule) {
    ConformanceConfig c;
    c.name = name;
    c.protocol = harness::Protocol::kEPaxos;
    c.epaxos_retry_interval = retry;
    c.epaxos_commit_rebroadcasts = recasts;
    c.scenario.name = name;
    c.scenario.schedule = std::move(schedule);
    configs.push_back(c);
  };
  add_epaxos("EPaxosDeliveryChaos", 0, 0,
             {
                 harness::DuplicateLinkEvent(150 * kMillisecond,
                                             kInvalidNode, kInvalidNode,
                                             0.4),
                 harness::ReorderLinkEvent(150 * kMillisecond,
                                           kInvalidNode, kInvalidNode,
                                           6 * kMillisecond),
             });
  add_epaxos("EPaxosOneWayPartition", 50 * kMillisecond, 30,
             {
                 harness::OneWayPartitionEvent(300 * kMillisecond, 3,
                                               kInvalidNode, true),
                 harness::OneWayPartitionEvent(400 * kMillisecond, 1, 2,
                                               true),
                 harness::OneWayPartitionEvent(800 * kMillisecond, 3,
                                               kInvalidNode, false),
                 harness::OneWayPartitionEvent(900 * kMillisecond, 1, 2,
                                               false),
             });
  add_epaxos("EPaxosSkewDuplicate", 50 * kMillisecond, 10,
             {
                 harness::ClockSkewEvent(200 * kMillisecond, 0, 1.5),
                 harness::DuplicateLinkEvent(300 * kMillisecond,
                                             kInvalidNode, kInvalidNode,
                                             0.3),
                 harness::ClockSkewEvent(1100 * kMillisecond, 0, 1.0),
             });
  return configs;
}

size_t SeedsPerConfig() {
  if (const char* env = std::getenv("PIG_CONFORMANCE_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  // 15 seeds x 35 configs = 525 schedules per full run.
  return 15;
}

struct MatrixCase {
  ConformanceConfig cfg;
  uint64_t seed;
};

std::vector<MatrixCase> BuildCases() {
  std::vector<MatrixCase> cases;
  const size_t seeds = SeedsPerConfig();
  for (const ConformanceConfig& cfg : BuildMatrix()) {
    for (size_t s = 0; s < seeds; ++s) {
      cases.push_back(MatrixCase{cfg, 1000 + s});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  return info.param.cfg.name + "Seed" + std::to_string(info.param.seed);
}

class ConformanceMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConformanceMatrixTest, InvariantsHold) {
  const MatrixCase& c = GetParam();
  ConformanceResult r = RunConformance(c.cfg, c.seed);
  EXPECT_EQ(r.violation, "")
      << c.cfg.name << " seed " << c.seed << ": " << r.violation;
  EXPECT_GT(r.completed_ops, 0u);
  if (c.cfg.batch_size > 1 || c.cfg.pipeline_depth > 1) {
    // The engine must actually have engaged, or the sweep tests nothing.
    EXPECT_GT(r.batches_proposed, 0u) << c.cfg.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ConformanceMatrixTest,
                         ::testing::ValuesIn(BuildCases()), CaseName);

// ---------------------------------------------------------------------------
// The harness must catch a deliberately injected protocol fault: with
// PaxosOptions::test_fault_count_duplicate_votes reverting the vote
// dedup, overlapping relay groups let a single follower's re-delivered
// P2b fake a quorum, and losing the participants afterwards drops an
// acknowledged write. The same schedule without the fault stays clean.

TEST(ConformanceFaultInjection, RevertedVoteDedupIsCaught) {
  ConformanceResult faulty = RunDuplicateVoteFaultScenario(7, true);
  // If no fabricated commit ever happened the scenario quiesces cleanly
  // and this fails too — i.e. the test also guards the schedule's power.
  EXPECT_NE(faulty.violation, "")
      << "the injected duplicate-vote fault went undetected (acked "
      << faulty.acked_writes << " writes, " << faulty.committed_commands
      << " committed)";
}

TEST(ConformanceFaultInjection, SameScheduleWithoutFaultIsClean) {
  ConformanceResult clean = RunDuplicateVoteFaultScenario(7, false);
  EXPECT_EQ(clean.violation, "") << clean.violation;
}

// ---------------------------------------------------------------------------
// Teeth of the network duplication fault kind: under 100% message
// duplication, reverting either exactly-once layer must be caught —
// the client-records dedup (a duplicated ClientRequest double-applies)
// and the vote masks (a duplicated P2b fakes a quorum). The same
// schedule with every dedup intact stays clean, so the faults
// themselves never produce false positives.

TEST(ConformanceFaultInjection, DuplicationWithDedupIntactIsClean) {
  ConformanceResult clean = RunDuplicationFaultScenario(11, DedupFault::kNone);
  EXPECT_EQ(clean.violation, "") << clean.violation;
  EXPECT_GT(clean.completed_ops, 0u);
}

TEST(ConformanceFaultInjection, RevertedClientDedupIsCaughtByDuplication) {
  ConformanceResult faulty =
      RunDuplicationFaultScenario(11, DedupFault::kClientRecords);
  EXPECT_NE(faulty.violation, "")
      << "reverting client_records_ dedup went undetected under "
      << "duplication (completed " << faulty.completed_ops << " ops)";
}

TEST(ConformanceFaultInjection, DuplicatedVotesCannotFakeQuorum) {
  ConformanceResult faulty =
      RunDuplicationFaultScenario(11, DedupFault::kVoteCount);
  EXPECT_NE(faulty.violation, "")
      << "a duplicated P2b counted twice went undetected (acked "
      << faulty.acked_writes << " writes)";
}

}  // namespace
}  // namespace pig::test
