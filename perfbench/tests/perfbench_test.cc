// Unit tests for the benchmark's own pieces: percentiles and sample
// counts, measurement-window bookkeeping, the value codec the output
// checks rely on, and the decorators (which must forward every call
// unchanged). Build and run:
//   cmake --build <build-dir> --target perfbench_tests && <build-dir>/perfbench_tests
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/client_messages.h"
#include "load_client.h"
#include "paxos/messages.h"
#include "pigpaxos/messages.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      ++g_failures;                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                               \
    }                                                              \
  } while (0)

// --- Statistics -----------------------------------------------------------

void TestQuantileNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(Quantile(v, 0.50) == 50);
  EXPECT(Quantile(v, 0.99) == 99);
  EXPECT(Quantile(v, 1.0) == 100);
  EXPECT(Quantile(v, 0.0) == 1);
  std::vector<double> empty;
  EXPECT(Quantile(empty, 0.5) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
}

void TestLatencySummaryCountsSamples() {
  std::vector<int64_t> ns;
  for (int i = 1; i <= 1000; ++i) ns.push_back(i * 1'000'000);  // 1..1000 ms
  LatencySummary s = SummarizeLatency(ns);
  EXPECT(s.samples == 1000);
  EXPECT(s.p50_ms == 500);
  EXPECT(s.p99_ms == 990);
  EXPECT(s.p99_supported);  // exactly ten samples lie above p99

  ns.pop_back();
  s = SummarizeLatency(ns);
  EXPECT(s.samples == 999);
  EXPECT(!s.p99_supported);

  std::vector<int64_t> none;
  s = SummarizeLatency(none);
  EXPECT(s.samples == 0 && s.p50_ms == 0 && !s.p99_supported);
}

void TestWindowBookkeeping() {
  const MeasureWindow w{1000, 2000};
  EXPECT(!w.Contains(999));
  EXPECT(w.Contains(1000));
  EXPECT(w.Contains(1999));
  EXPECT(!w.Contains(2000));

  WindowTally t(w);
  t.OnSent(900);             // warm-up: not an attempt
  t.OnCommitted(900, 1100);  // but its reply lands inside: a commit
  t.OnSent(1500);
  t.OnCommitted(1500, 2100);  // reply after the window: not counted
  t.OnSent(1600);
  t.OnFailed(1600);
  t.OnFailed(800);  // failure of a warm-up op: not counted
  EXPECT(t.attempted() == 2);
  EXPECT(t.committed() == 1);
  EXPECT(t.failed() == 1);
  EXPECT(t.samples().size() == 1);
  EXPECT(t.samples()[0].done_ns == 1100 && t.samples()[0].latency_ns == 200);

  t.Reset(MeasureWindow{0, 10});
  EXPECT(t.attempted() == 0 && t.committed() == 0 && t.failed() == 0);
  EXPECT(t.samples().empty());
}

void TestAssignSamplesToIntervals() {
  const std::vector<int64_t> bounds = {100, 200, 300};
  std::vector<Interval> iv(2);
  AssignSamples(bounds,
                {{99, 1}, {100, 2}, {199, 3}, {200, 4}, {299, 5}, {300, 6}},
                &iv);
  EXPECT(iv[0].commits == 2 && iv[1].commits == 2);
  EXPECT(iv[0].latencies_ns == std::vector<int64_t>({2, 3}));
  EXPECT(iv[1].latencies_ns == std::vector<int64_t>({4, 5}));
}

void TestQuietestIntervalsAreKept() {
  auto make = [](double noise, uint64_t commits, int64_t latency) {
    Interval iv;
    iv.seconds = 0.5;
    iv.noise = noise;
    iv.cpu_ns = 1e3 * static_cast<double>(commits);  // 1 us per op
    iv.commits = commits;
    iv.latencies_ns.assign(commits, latency);
    return iv;
  };
  // Stolen slices are slow; the two quiet ones (steal 0) run at 100/s.
  const std::vector<Interval> ivs = {make(0.30, 10, 9'000'000),
                                     make(0.00, 50, 1'000'000),
                                     make(0.20, 20, 5'000'000),
                                     make(0.00, 50, 2'000'000)};
  QuietSummary q = SummarizeQuietest(ivs, 0.5);
  EXPECT(q.total == 4 && q.kept == 2);
  EXPECT(q.commits == 100);
  EXPECT(q.noise == 0);
  EXPECT(q.throughput == 100);
  EXPECT(q.cpu_us_per_op == 1);
  EXPECT(q.latency.samples == 100);
  EXPECT(q.latency.p50_ms == 1 && q.latency.p99_ms == 2);

  q = SummarizeQuietest(ivs, 1.0);  // everything
  EXPECT(q.kept == 4 && q.commits == 130 && q.throughput == 65);
  q = SummarizeQuietest(ivs, 0.1);  // rounds up to one slice
  EXPECT(q.kept == 1 && q.commits == 50 && q.latency.p50_ms == 1);
  EXPECT(SummarizeQuietest({}, 0.5).kept == 0);
}

void TestJson() {
  std::string s;
  AppendJsonNumber(&s, 0.1);
  EXPECT(s == "0.10000000000000001");
  s.clear();
  AppendJsonString(&s, "a\"b\\c\n");
  EXPECT(s == "\"a\\\"b\\\\c\\u000a\"");
  EXPECT(MetricsJson({{"x", 2, "ms"}}) ==
         "{\"x\": {\"value\": 2, \"unit\": \"ms\"}}");
}

void TestMetricCatalogue() {
  std::vector<std::string> missing;
  std::vector<Metric> m =
      MetricsFrom(EndToEndMetrics(), {{"setup_s", 1.5}}, &missing);
  EXPECT(m.size() == EndToEndMetrics().size());
  EXPECT(missing.size() == EndToEndMetrics().size() - 1);
  m = MetricsFrom(PerLayerMetrics(), {}, nullptr);
  EXPECT(m.size() == PerLayerMetrics().size());
  for (const Metric& x : m) EXPECT(x.value == 0);
}

// --- Value codec ----------------------------------------------------------

void TestValueCodec() {
  const std::string v = EncodeValue(1, 123456, 8);
  EXPECT(v.size() == 8);
  uint32_t client = 9;
  uint64_t seq = 0;
  EXPECT(DecodeValue(v, &client, &seq));
  EXPECT(client == 1 && seq == 123456);

  const std::string big = EncodeValue(0, 7, 1024);
  EXPECT(big.size() == 1024);
  EXPECT(DecodeValue(big, &client, &seq) && client == 0 && seq == 7);

  EXPECT(!DecodeValue("short", &client, &seq));
  EXPECT(!DecodeValue("zzzzzzzz", &client, &seq));
}

// --- Decorators -----------------------------------------------------------

/// Env that records every call made to it.
class RecordingEnv final : public Env {
 public:
  NodeId self() const override { return 7; }
  TimeNs Now() const override { return 4242; }
  void Send(NodeId to, MessagePtr msg) override {
    sent_to = to;
    sent = std::move(msg);
  }
  TimerId SetTimer(TimeNs delay, std::function<void()> cb) override {
    timer_delay = delay;
    timer_cb = std::move(cb);
    return 99;
  }
  void CancelTimer(TimerId id) override { canceled = id; }
  pig::Rng& rng() override { return rng_; }
  void ChargeCpu(TimeNs cost) override { charged = cost; }

  NodeId sent_to = 0;
  MessagePtr sent;
  TimeNs timer_delay = 0;
  std::function<void()> timer_cb;
  TimerId canceled = 0;
  TimeNs charged = 0;
  pig::Rng rng_;
};

void TestTracedEnvForwards() {
  std::atomic<bool> armed{true};
  NodeTrace trace(7, &armed, 16);
  RecordingEnv base;
  TracedEnv env(&base, &trace);

  EXPECT(env.self() == 7);
  EXPECT(env.Now() == 4242);
  EXPECT(&env.rng() == &base.rng_);
  env.ChargeCpu(17);
  EXPECT(base.charged == 17);

  auto msg = std::make_shared<pig::paxos::P2a>();
  msg->slot = 5;
  const pig::Message* raw = msg.get();
  const size_t bytes = msg->WireSize();
  env.Send(3, msg);
  EXPECT(base.sent_to == 3);
  EXPECT(base.sent.get() == raw);  // the very same message
  EXPECT(trace.msgs_out() == 1 && trace.bytes_out() == bytes);
  EXPECT(trace.stat(Layer::kSend).calls == 1);
  EXPECT(trace.spans().size() == 1 && trace.spans()[0].key.slot == 5);

  int fired = 0;
  EXPECT(env.SetTimer(123, [&fired]() { ++fired; }) == 99);
  EXPECT(base.timer_delay == 123);
  base.timer_cb();
  EXPECT(fired == 1);
  EXPECT(trace.stat(Layer::kTimer).calls == 1);
  env.CancelTimer(55);
  EXPECT(base.canceled == 55);

  // Disarmed: still forwards, records nothing.
  armed = false;
  env.Send(4, msg);
  EXPECT(base.sent_to == 4);
  EXPECT(trace.msgs_out() == 1 && trace.stat(Layer::kSend).calls == 1);
}

/// Actor that records what it receives and sends through its Env.
class RecordingActor final : public Actor {
 public:
  void OnStart() override {
    started = true;
    env()->Send(1, std::make_shared<pig::Heartbeat>());
  }
  void OnMessage(NodeId from, const MessagePtr& msg) override {
    last_from = from;
    last = msg;
  }
  bool started = false;
  NodeId last_from = 0;
  MessagePtr last;
};

void TestTracedActorForwards() {
  std::atomic<bool> armed{true};
  NodeTrace trace(2, &armed, 16);
  auto inner = std::make_unique<RecordingActor>();
  RecordingActor* raw = inner.get();
  TracedActor actor(std::move(inner), &trace);
  RecordingEnv base;
  actor.Bind(&base);
  actor.OnStart();
  EXPECT(raw->started);
  EXPECT(raw->env() != nullptr && raw->env()->self() == base.self());
  EXPECT(base.sent_to == 1 && base.sent != nullptr);  // reached the driver
  EXPECT(trace.tid() != 0);

  auto req = std::make_shared<pig::ClientRequest>(
      pig::Command::Put("k", "v", pig::kFirstClientId, 3));
  const MessagePtr msg = req;
  actor.OnMessage(pig::kFirstClientId, msg);
  EXPECT(raw->last_from == pig::kFirstClientId);
  EXPECT(raw->last.get() == msg.get());
  EXPECT(trace.msgs_in() == 1);
  EXPECT(trace.stat(Layer::kHandler).calls == 1);
  const Span& s = trace.spans().back();
  EXPECT(s.key.client == pig::kFirstClientId && s.key.seq == 3);

  auto relay = std::make_shared<pig::pigpaxos::RelayRequest>();
  auto p2a = std::make_shared<pig::paxos::P2a>();
  p2a->slot = 11;
  relay->inner = p2a;
  actor.OnMessage(0, relay);
  EXPECT(trace.stat(Layer::kRelayHandler).calls == 1);
  EXPECT(trace.spans().back().key.slot == 11);
}

/// Storage that records every call made to it.
class RecordingStorage final : public pig::storage::Storage {
 public:
  void Append(const pig::storage::WalRecord& rec) override {
    appended.push_back(rec);
  }
  pig::Status Sync() override {
    ++sync_calls;
    return pig::Status::Unavailable("sync result");
  }
  pig::Status WriteSnapshot(const pig::storage::SnapshotData& snap) override {
    snapshot_upto = snap.upto;
    return pig::Status::Ok();
  }
  std::optional<pig::storage::SnapshotData> LoadSnapshot() override {
    pig::storage::SnapshotData d;
    d.upto = 77;
    return d;
  }
  size_t ReplayWal(
      const std::function<void(const pig::storage::WalRecord&)>& fn)
      override {
    fn(pig::storage::WalRecord::Commit(5));
    return 1;
  }
  uint64_t appended_records() const override { return 31; }
  uint64_t syncs() const override { return 32; }

  std::vector<pig::storage::WalRecord> appended;
  int sync_calls = 0;
  pig::SlotId snapshot_upto = -1;
};

void TestTracedStorageForwards() {
  std::atomic<bool> armed{true};
  NodeTrace trace(0, &armed, 16);
  RecordingStorage base;
  TracedStorage st(&base, &trace);

  const auto rec = pig::storage::WalRecord::Accept(
      9, pig::Ballot{}, pig::Command::Put("k", "v", 1, 1));
  st.Append(rec);
  st.Append(rec);
  EXPECT(base.appended.size() == 2);
  EXPECT(base.appended[0].slot == 9 && base.appended[0].command == rec.command);
  const pig::Status s = st.Sync();
  EXPECT(base.sync_calls == 1);
  EXPECT(!s.ok() && s.ToString() == base.Sync().ToString());
  st.Sync();  // nothing appended since: forwarded, not counted as a sync
  EXPECT(base.sync_calls == 3);
  EXPECT(trace.appends() == 2 && trace.syncs() == 1);

  pig::storage::SnapshotData snap;
  snap.upto = 12;
  EXPECT(st.WriteSnapshot(snap).ok());
  EXPECT(base.snapshot_upto == 12);
  EXPECT(st.LoadSnapshot()->upto == 77);
  int visited = 0;
  EXPECT(st.ReplayWal([&visited](const pig::storage::WalRecord& r) {
    visited += r.slot == 5;
  }) == 1);
  EXPECT(visited == 1);
  EXPECT(st.appended_records() == 31 && st.syncs() == 32);
  EXPECT(trace.stat(Layer::kSnapshot).calls == 1);
}

void TestSelfTimeExcludesChildren() {
  std::atomic<bool> armed{true};
  NodeTrace trace(0, &armed, 16);
  trace.Begin(Layer::kHandler, SpanKey{});
  trace.Begin(Layer::kSend, SpanKey{});
  trace.Begin(Layer::kAppend, SpanKey{});
  trace.End();
  trace.End();
  trace.End();
  const LayerStat& h = trace.stat(Layer::kHandler);
  const LayerStat& s = trace.stat(Layer::kSend);
  const LayerStat& a = trace.stat(Layer::kAppend);
  EXPECT(h.self_ns == h.total_ns - s.total_ns);
  EXPECT(s.self_ns == s.total_ns - a.total_ns);
  EXPECT(a.self_ns == a.total_ns);
  EXPECT(trace.top_level_ns() == h.total_ns);
  EXPECT(trace.spans().size() == 3);
  EXPECT(trace.spans()[0].parent == -1);
  EXPECT(trace.spans()[1].parent == 0);
  EXPECT(trace.spans()[2].parent == 1);

  // The span cap bounds memory but not the per-layer sums.
  NodeTrace capped(0, &armed, 1);
  for (int i = 0; i < 3; ++i) {
    capped.Begin(Layer::kHandler, SpanKey{});
    capped.End();
  }
  EXPECT(capped.spans().size() == 1);
  EXPECT(capped.stat(Layer::kHandler).calls == 3);
}

void TestKeyOfJoinsClientAndSlot() {
  pig::ClientReply reply;
  reply.seq = 4;
  reply.slot = 40;
  const SpanKey k = KeyOf(reply);
  EXPECT(k.seq == 4 && k.slot == 40);

  pig::pigpaxos::RelayResponse resp;
  auto p2b = std::make_shared<pig::paxos::P2b>();
  p2b->slot = 8;
  resp.responses.push_back(p2b);
  EXPECT(KeyOf(resp).slot == 8);
  EXPECT(KeyOf(pig::paxos::P1a{}).slot == -1);
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  pig::pigpaxos::RegisterPigPaxosMessages();
  TestQuantileNearestRank();
  TestLatencySummaryCountsSamples();
  TestWindowBookkeeping();
  TestAssignSamplesToIntervals();
  TestQuietestIntervalsAreKept();
  TestJson();
  TestMetricCatalogue();
  TestValueCodec();
  TestTracedEnvForwards();
  TestTracedActorForwards();
  TestTracedStorageForwards();
  TestSelfTimeExcludesChildren();
  TestKeyOfJoinsClientAndSlot();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
