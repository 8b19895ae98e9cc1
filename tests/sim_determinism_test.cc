// Determinism regression tests for the simulator core.
//
// The scheduler's ordering contract — events fire in (time, insertion
// sequence) order, cancellation never perturbs the order of survivors —
// is what makes every experiment reproducible. These tests pin it two
// ways: (1) a trace-equality check of the real slab scheduler against a
// naive reference implementation of the same contract, over randomized
// schedule/cancel/nested workloads, and (2) fig7-shaped PigPaxos runs
// that must produce identical commit counts, latency digests, and
// per-node TrafficStats when re-run with the same seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/scenario.h"
#include "sim/scheduler.h"

namespace pig {
namespace {

/// Reference implementation of the scheduler's ordering contract: an
/// unsorted event list scanned for the (time, seq) minimum each step.
/// O(n^2) and allocation-happy — but obviously correct.
class ReferenceScheduler {
 public:
  TimeNs now() const { return now_; }

  uint64_t ScheduleAt(TimeNs when, std::function<void()> fn) {
    if (when < now_) when = now_;
    events_.push_back(Event{when, next_seq_, std::move(fn), true});
    return next_seq_++;
  }

  uint64_t ScheduleAfter(TimeNs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  void Cancel(uint64_t id) {
    for (Event& e : events_) {
      if (e.seq == id) e.live = false;
    }
  }

  uint64_t RunAll() {
    uint64_t ran = 0;
    while (true) {
      size_t best = events_.size();
      for (size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        if (!e.live) continue;
        if (best == events_.size() || e.time < events_[best].time ||
            (e.time == events_[best].time && e.seq < events_[best].seq)) {
          best = i;
        }
      }
      if (best == events_.size()) return ran;
      events_[best].live = false;
      now_ = events_[best].time;
      // Move the body out: the callback may grow events_.
      std::function<void()> fn = std::move(events_[best].fn);
      fn();
      ran++;
    }
  }

 private:
  struct Event {
    TimeNs time;
    uint64_t seq;
    std::function<void()> fn;
    bool live;
  };

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<Event> events_;
};

/// Drives `S` through a randomized workload — colliding fire times,
/// cancels of arbitrary pending events (including some already-fired
/// ids), and handlers that schedule children — and returns the full
/// firing trace as (label, fire time) pairs.
template <typename S>
std::vector<std::pair<int, TimeNs>> RunTrace(uint64_t seed) {
  S sched;
  Rng rng(seed);
  std::vector<uint64_t> ids;
  std::vector<std::pair<int, TimeNs>> trace;
  int next_label = 0;
  for (int i = 0; i < 400; ++i) {
    const int label = next_label++;
    // A small time range forces plenty of same-time ties.
    const TimeNs when = static_cast<TimeNs>(rng.NextBounded(97));
    ids.push_back(sched.ScheduleAt(when, [&sched, &trace, &next_label,
                                          label]() {
      trace.emplace_back(label, sched.now());
      if (label % 5 == 0) {
        const int child = next_label++;
        sched.ScheduleAfter(static_cast<TimeNs>(label % 13),
                            [&sched, &trace, child]() {
                              trace.emplace_back(child, sched.now());
                            });
      }
    }));
    if (i % 3 == 0) {
      sched.Cancel(ids[rng.NextBounded(ids.size())]);
    }
    if (i % 50 == 17) {
      // Interleave partial draining so cancels hit already-fired events.
      sched.RunAll();
    }
  }
  sched.RunAll();
  return trace;
}

TEST(SchedulerTraceTest, MatchesReferenceImplementation) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 12345ull, 0xdeadbeefull}) {
    auto fast = RunTrace<sim::Scheduler>(seed);
    auto ref = RunTrace<ReferenceScheduler>(seed);
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, ref) << "trace diverged for seed " << seed;
  }
}

/// Two same-seed runs of a fig7-shaped workload (PigPaxos relay-group
/// sweep shape: 9 replicas, closed-loop clients, 50/50 r/w) must agree
/// on every observable: commits, latency digests, message counts, event
/// totals.
harness::ExperimentConfig Fig7ShapedConfig(size_t relay_groups,
                                           uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kPigPaxos;
  cfg.num_replicas = 9;
  cfg.relay_groups = relay_groups;
  cfg.num_clients = 8;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 300 * kMillisecond;
  cfg.seed = seed;
  return cfg;
}

harness::RunResult Fig7ShapedRun(size_t relay_groups, uint64_t seed) {
  return harness::RunExperiment(Fig7ShapedConfig(relay_groups, seed));
}

/// Two same-seed reports must agree on every observable, bit for bit:
/// client counters, event totals, the timeline, latency digests,
/// per-replica traffic/CPU, and the relay and batching-engine counters.
void ExpectSameReport(const harness::RunResult& a,
                      const harness::RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.redirects, b.redirects);
  EXPECT_EQ(a.stale_replies, b.stale_replies);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.msgs_per_request, b.msgs_per_request);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.relay_timeouts, b.relay_timeouts);
  EXPECT_EQ(a.relay_early_batches, b.relay_early_batches);
  EXPECT_EQ(a.batches_proposed, b.batches_proposed);
  EXPECT_EQ(a.batched_commands, b.batched_commands);
  EXPECT_EQ(a.batch_timeout_flushes, b.batch_timeout_flushes);
  EXPECT_EQ(a.pipeline_stalls, b.pipeline_stalls);
  EXPECT_EQ(a.uplink_bundles, b.uplink_bundles);
  EXPECT_EQ(a.uplink_coalesced, b.uplink_coalesced);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
}

TEST(SimDeterminismTest, SameSeedFig7RunsAreIdentical) {
  for (size_t groups : {2u, 3u}) {
    harness::RunResult a = Fig7ShapedRun(groups, 42);
    harness::RunResult b = Fig7ShapedRun(groups, 42);
    EXPECT_GT(a.completed, 0u);
    ExpectSameReport(a, b);
  }
}

TEST(SimDeterminismTest, DifferentSeedsDiverge) {
  harness::RunResult a = Fig7ShapedRun(3, 1);
  harness::RunResult b = Fig7ShapedRun(3, 2);
  EXPECT_NE(a.total_events, b.total_events);
}

/// Same fig7 shape with the batching engine on: leader batching, commit
/// pipelining, and relay uplink coalescing must stay exactly as
/// deterministic as the legacy path — two same-seed runs agree on every
/// report field, byte for byte.
harness::RunResult BatchedFig7Run(uint64_t seed) {
  harness::ExperimentConfig cfg = Fig7ShapedConfig(3, seed);
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.uplink_coalesce_max = 2;
  return harness::RunExperiment(cfg);
}

TEST(SimDeterminismTest, SameSeedBatchedPipelinedRunsAreIdentical) {
  harness::RunResult a = BatchedFig7Run(42);
  harness::RunResult b = BatchedFig7Run(42);
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.batches_proposed, 0u) << "batching engine never engaged";
  ExpectSameReport(a, b);
}

/// Stress shape for the PR 4 message layer: multi-layer relay trees
/// (shared immutable leaf envelopes fan the same MessagePtr to every
/// member), pooled envelope recycling, threshold-triggered partial
/// batches, and uplink coalescing — all active at once. Two same-seed
/// runs must still agree on every report field, byte for byte, proving
/// the zero-allocation message layer changes no observable behavior.
harness::RunResult MessageLayerStressRun(uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kPigPaxos;
  cfg.num_replicas = 25;
  cfg.relay_groups = 2;
  cfg.relay_layers = 2;
  cfg.group_response_threshold = 4;
  cfg.num_clients = 16;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 300 * kMillisecond;
  cfg.seed = seed;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.uplink_coalesce_max = 3;
  return harness::RunExperiment(cfg);
}

TEST(SimDeterminismTest, SameSeedMessageLayerStressRunsAreIdentical) {
  harness::RunResult a = MessageLayerStressRun(42);
  harness::RunResult b = MessageLayerStressRun(42);
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.relay_early_batches, 0u)
      << "threshold partial batches never engaged";
  ExpectSameReport(a, b);
}

/// The engine at batch=1/depth=1 is *off*: a default-options run and an
/// explicitly "disabled engine" run must produce identical reports (the
/// legacy proposal path is untouched).
TEST(SimDeterminismTest, DisabledEngineMatchesLegacyPathExactly) {
  harness::RunResult legacy = Fig7ShapedRun(3, 42);
  harness::ExperimentConfig cfg = Fig7ShapedConfig(3, 42);
  cfg.batch_size = 1;
  cfg.pipeline_depth = 1;
  cfg.uplink_coalesce_max = 1;
  harness::RunResult off = harness::RunExperiment(cfg);
  ExpectSameReport(legacy, off);
  EXPECT_EQ(off.batches_proposed, 0u);
  EXPECT_EQ(off.uplink_bundles, 0u);
  EXPECT_EQ(off.mean_batch_size, 1.0);
}

/// Client-visible counters pinned across commits. Each value was measured
/// once and must never move under refactoring: a change means the client
/// retry/redirect loop (client/session.h), the simulator, or a protocol
/// changed observable behavior. Re-pin only for a deliberate, documented
/// behavior change.
void ExpectPinned(const harness::RunResult& r, uint64_t completed,
                  uint64_t timeouts, uint64_t redirects,
                  uint64_t stale_replies, uint64_t total_events) {
  EXPECT_EQ(r.completed, completed);
  EXPECT_EQ(r.timeouts, timeouts);
  EXPECT_EQ(r.redirects, redirects);
  EXPECT_EQ(r.stale_replies, stale_replies);
  EXPECT_EQ(r.total_events, total_events);
}

harness::ExperimentConfig PinnedConfig(harness::Protocol protocol) {
  harness::ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.num_replicas = 5;
  cfg.relay_groups = 2;
  cfg.num_clients = 8;
  cfg.warmup = 200 * kMillisecond;
  cfg.measure = 1800 * kMillisecond;
  cfg.seed = 7;
  return cfg;
}

TEST(SimDeterminismGoldenTest, PaxosLeaderCrashClientCounters) {
  harness::ScenarioSpec spec;
  spec.schedule = {harness::CrashEvent(500 * kMillisecond, 0),
                   harness::RecoverEvent(1200 * kMillisecond, 0)};
  const harness::RunResult r =
      harness::RunScenario(spec, PinnedConfig(harness::Protocol::kPaxos));
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_GT(r.redirects, 0u);
  ExpectPinned(r, 6988, 8, 8, 0, 182875);
}

TEST(SimDeterminismGoldenTest, ShardedCrashGroupLeaderClientCounters) {
  harness::ExperimentConfig cfg = PinnedConfig(harness::Protocol::kPigPaxos);
  cfg.num_groups = 4;
  harness::ScenarioSpec spec;
  spec.schedule = {harness::CrashGroupLeaderEvent(500 * kMillisecond, 1)};
  const harness::RunResult r = harness::RunScenario(spec, cfg);
  EXPECT_GT(r.timeouts, 0u);
  ExpectPinned(r, 6183, 8, 8, 1, 157601);
}

TEST(SimDeterminismGoldenTest, EPaxosClientCounters) {
  const harness::RunResult r =
      harness::RunExperiment(PinnedConfig(harness::Protocol::kEPaxos));
  ExpectPinned(r, 3380, 0, 0, 0, 106718);
}

/// A 1 ms ring round watch times rounds out into the broadcast fallback:
/// pins the ring options the node builder maps.
TEST(SimDeterminismGoldenTest, RingClientCounters) {
  harness::ExperimentConfig cfg = PinnedConfig(harness::Protocol::kRing);
  cfg.ring_ack_timeout = 1 * kMillisecond;
  const harness::RunResult r = harness::RunExperiment(cfg);
  EXPECT_GT(r.ring_rounds_completed, 0u);
  EXPECT_GT(r.ring_timeouts, 0u);
  ExpectPinned(r, 19185, 0, 0, 0, 422890);
}

/// WAN PigPaxos with region relay groups and a q2 = 3 flexible quorum
/// (commits stay in Virginia): without either, ~200 commands complete.
TEST(SimDeterminismGoldenTest, WanRegionFlexibleQuorumClientCounters) {
  harness::ExperimentConfig cfg =
      PinnedConfig(harness::Protocol::kPigPaxos);
  cfg.num_replicas = 9;
  cfg.topology = harness::Topology::kWanVaCaOr;
  cfg.flexible_q1 = 7;
  cfg.flexible_q2 = 3;
  const harness::RunResult r = harness::RunExperiment(cfg);
  ExpectPinned(r, 13920, 0, 430, 0, 547327);
}

}  // namespace
}  // namespace pig
