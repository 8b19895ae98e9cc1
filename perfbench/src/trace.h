// Decorators that time each layer from outside the program.
//
// The traced TCP run wraps every replica in a TracedActor, which binds the
// replica to a TracedEnv, and wraps each replica's storage in a
// TracedStorage. All three forward every call unchanged and record, into
// the node's NodeTrace, a span per call: OnMessage and timer callbacks
// (the protocol handlers), Env::Send (encode + frame append) and the
// Storage calls (WAL append, group sync, snapshot). Spans nest on the
// node's thread, so a span's self time is its duration minus the time its
// child spans cover. The benchmark's clients add one asynchronous span per
// operation. Spans carry keys: client ingress and client operations are
// keyed by (client, seq), replication messages and storage records by log
// slot, and ClientReply carries both, joining the two.
//
// A NodeTrace is touched only by its node's event-loop thread while the
// cluster runs and is read after the cluster stops; the shared `armed`
// flag limits accounting to the measurement window.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "consensus/env.h"
#include "storage/storage.h"

namespace perfbench {

using pig::Actor;
using pig::Env;
using pig::MessagePtr;
using pig::NodeId;
using pig::TimeNs;
using pig::TimerId;

enum class Layer : uint8_t {
  kHandler,       ///< Actor::OnMessage for non-relay message types.
  kRelayHandler,  ///< Actor::OnMessage for RelayRequest/Response/Bundle.
  kTimer,         ///< Timer callbacks the actor armed through Env.
  kSend,          ///< Env::Send.
  kAppend,        ///< Storage::Append.
  kSync,          ///< Storage::Sync.
  kSnapshot,      ///< Storage::WriteSnapshot.
  kClientOp,      ///< One client operation, send to reply.
  kSimRun,        ///< One harness::RunExperiment call.
  kSimSetup,      ///< RunExperiment's set-up, up to its customize hook.
  kCount,
};

/// "layer.call" span name, e.g. "storage.Sync".
const char* LayerName(Layer layer);

/// Join keys of a span; unset fields are 0 / -1.
struct SpanKey {
  uint64_t client = 0;
  uint64_t seq = 0;
  int64_t slot = -1;
};

/// The keys a message carries (relay envelopes report their first inner
/// message's keys).
SpanKey KeyOf(const pig::Message& msg);

struct Span {
  Layer layer = Layer::kHandler;
  int32_t parent = -1;  ///< Index into the same node's spans, or -1.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;
  SpanKey key;
};

struct LayerStat {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class NodeTrace {
 public:
  NodeTrace(NodeId node, const std::atomic<bool>* armed, size_t span_cap);

  NodeTrace(const NodeTrace&) = delete;
  NodeTrace& operator=(const NodeTrace&) = delete;

  NodeId node() const { return node_; }
  bool armed() const { return armed_->load(std::memory_order_relaxed); }

  /// Opens a nested span on this node's thread; pair with End().
  void Begin(Layer layer, const SpanKey& key);
  void End();

  /// Records a span that did not nest on the thread (client operations).
  void AddAsync(Layer layer, int64_t start_ns, int64_t end_ns,
                const SpanKey& key);

  // Counters the decorators bump while armed.
  void CountIn() { if (armed()) ++msgs_in_; }
  void CountOut(size_t bytes) {
    if (armed()) {
      ++msgs_out_;
      bytes_out_ += bytes;
    }
  }
  void CountAppend() { if (armed()) ++appends_; }
  void CountSync() { if (armed()) ++syncs_; }

  /// Kernel thread id of the node's loop, set by the decorator on that
  /// thread and read by the thread driving the run.
  int tid() const { return tid_.load(std::memory_order_acquire); }
  void set_tid(int tid) { tid_.store(tid, std::memory_order_release); }

  const LayerStat& stat(Layer layer) const {
    return stats_[static_cast<size_t>(layer)];
  }
  /// Total time of outermost spans: the node's time inside the program's
  /// handlers (with their Send and storage calls).
  int64_t top_level_ns() const { return top_level_ns_; }
  uint64_t msgs_in() const { return msgs_in_; }
  uint64_t msgs_out() const { return msgs_out_; }
  uint64_t bytes_out() const { return bytes_out_; }
  uint64_t appends() const { return appends_; }
  uint64_t syncs() const { return syncs_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Frame {
    Layer layer;
    bool counted;
    int64_t start_ns;
    int64_t child_ns;
    int32_t span;
  };

  const NodeId node_;
  const std::atomic<bool>* armed_;
  const size_t span_cap_;
  std::atomic<int> tid_{0};
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  LayerStat stats_[static_cast<size_t>(Layer::kCount)];
  int64_t top_level_ns_ = 0;
  uint64_t msgs_in_ = 0;
  uint64_t msgs_out_ = 0;
  uint64_t bytes_out_ = 0;
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
};

/// RAII span; a null trace makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(NodeTrace* trace, Layer layer, const SpanKey& key)
      : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(layer, key);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  NodeTrace* trace_;
};

/// Env decorator: times Send (and counts messages and wire bytes) and
/// wraps timer callbacks in timer spans.
class TracedEnv final : public Env {
 public:
  TracedEnv(Env* base, NodeTrace* trace) : base_(base), trace_(trace) {}

  NodeId self() const override { return base_->self(); }
  TimeNs Now() const override { return base_->Now(); }
  void Send(NodeId to, MessagePtr msg) override;
  TimerId SetTimer(TimeNs delay, std::function<void()> cb) override;
  void CancelTimer(TimerId id) override { base_->CancelTimer(id); }
  pig::Rng& rng() override { return base_->rng(); }
  void ChargeCpu(TimeNs cost) override { base_->ChargeCpu(cost); }

 private:
  Env* base_;
  NodeTrace* trace_;
};

/// Actor decorator: owns the real actor, binds it to a TracedEnv over the
/// driver's Env at start, and times every delivered message.
class TracedActor final : public Actor {
 public:
  TracedActor(std::unique_ptr<Actor> inner, NodeTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void OnStart() override;
  void OnMessage(NodeId from, const MessagePtr& msg) override;

 private:
  std::unique_ptr<Actor> inner_;
  NodeTrace* trace_;
  std::unique_ptr<TracedEnv> traced_env_;
};

/// Storage decorator: times Append, Sync and WriteSnapshot and counts the
/// records each non-empty Sync covered.
class TracedStorage final : public pig::storage::Storage {
 public:
  TracedStorage(pig::storage::Storage* base, NodeTrace* trace)
      : base_(base), trace_(trace) {}

  void Append(const pig::storage::WalRecord& rec) override;
  pig::Status Sync() override;
  pig::Status WriteSnapshot(const pig::storage::SnapshotData& snap) override;
  std::optional<pig::storage::SnapshotData> LoadSnapshot() override {
    return base_->LoadSnapshot();
  }
  size_t ReplayWal(
      const std::function<void(const pig::storage::WalRecord&)>& fn)
      override {
    return base_->ReplayWal(fn);
  }
  uint64_t appended_records() const override {
    return base_->appended_records();
  }
  uint64_t syncs() const override { return base_->syncs(); }

 private:
  pig::storage::Storage* base_;
  NodeTrace* trace_;
  uint64_t unsynced_ = 0;  ///< Appends since the last Sync call.
};

/// Writes every node's spans as Chrome trace-event JSON ("X" events, one
/// track per node, microseconds relative to `origin_ns`), loadable in
/// Perfetto or chrome://tracing. Returns false when the file cannot be
/// written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const NodeTrace*>& nodes,
                      int64_t origin_ns);

}  // namespace perfbench
