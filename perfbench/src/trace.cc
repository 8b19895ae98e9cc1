#include "trace.h"

#include <cstdio>
#include <utility>

#include "consensus/client_messages.h"
#include "host.h"
#include "paxos/messages.h"
#include "pigpaxos/messages.h"
#include "stats.h"

namespace perfbench {

namespace {

using pig::MsgType;

bool IsRelayType(MsgType t) {
  return t == MsgType::kRelayRequest || t == MsgType::kRelayResponse ||
         t == MsgType::kRelayBundle;
}

SpanKey SlotKey(int64_t slot) {
  SpanKey k;
  k.slot = slot;
  return k;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHandler:
      return "paxos.OnMessage";
    case Layer::kRelayHandler:
      return "pigpaxos.OnMessage";
    case Layer::kTimer:
      return "paxos.Timer";
    case Layer::kSend:
      return "consensus.Send";
    case Layer::kAppend:
      return "storage.Append";
    case Layer::kSync:
      return "storage.Sync";
    case Layer::kSnapshot:
      return "storage.WriteSnapshot";
    case Layer::kClientOp:
      return "client.Op";
    case Layer::kSimRun:
      return "harness.RunExperiment";
    case Layer::kSimSetup:
      return "sim.Setup";
    case Layer::kCount:
      break;
  }
  return "?";
}

SpanKey KeyOf(const pig::Message& msg) {
  switch (msg.type()) {
    case MsgType::kClientRequest: {
      const auto& m = static_cast<const pig::ClientRequest&>(msg);
      SpanKey k;
      k.client = m.cmd.client;
      k.seq = m.cmd.seq;
      return k;
    }
    case MsgType::kClientReply: {
      const auto& m = static_cast<const pig::ClientReply&>(msg);
      SpanKey k;
      k.seq = m.seq;
      k.slot = m.slot;
      return k;
    }
    case MsgType::kHeartbeat:
      return SlotKey(static_cast<const pig::Heartbeat&>(msg).commit_index);
    case MsgType::kP2a:
      return SlotKey(static_cast<const pig::paxos::P2a&>(msg).slot);
    case MsgType::kP2b:
      return SlotKey(static_cast<const pig::paxos::P2b&>(msg).slot);
    case MsgType::kP3:
      return SlotKey(static_cast<const pig::paxos::P3&>(msg).commit_index);
    case MsgType::kRelayRequest: {
      const auto& m = static_cast<const pig::pigpaxos::RelayRequest&>(msg);
      return m.inner ? KeyOf(*m.inner) : SpanKey{};
    }
    case MsgType::kRelayResponse: {
      const auto& m = static_cast<const pig::pigpaxos::RelayResponse&>(msg);
      return m.responses.empty() ? SpanKey{} : KeyOf(*m.responses[0]);
    }
    case MsgType::kRelayBundle: {
      const auto& m = static_cast<const pig::pigpaxos::RelayBundle&>(msg);
      return m.responses.empty() ? SpanKey{} : KeyOf(*m.responses[0]);
    }
    default:
      return SpanKey{};
  }
}

NodeTrace::NodeTrace(NodeId node, const std::atomic<bool>* armed,
                     size_t span_cap)
    : node_(node), armed_(armed), span_cap_(span_cap) {
  stack_.reserve(8);
  spans_.reserve(span_cap);
}

void NodeTrace::Begin(Layer layer, const SpanKey& key) {
  Frame f{layer, armed(), NowNs(), 0, -1};
  if (f.counted && spans_.size() < span_cap_) {
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back().span;
    s.start_ns = f.start_ns;
    s.key = key;
    f.span = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
  }
  stack_.push_back(f);
}

void NodeTrace::End() {
  const int64_t now = NowNs();
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t dur = now - f.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (!f.counted) return;
  LayerStat& st = stats_[static_cast<size_t>(f.layer)];
  ++st.calls;
  st.total_ns += dur;
  st.self_ns += dur - f.child_ns;
  if (stack_.empty()) top_level_ns_ += dur;
  if (f.span >= 0) {
    Span& s = spans_[static_cast<size_t>(f.span)];
    s.end_ns = now;
    s.self_ns = dur - f.child_ns;
  }
}

void NodeTrace::AddAsync(Layer layer, int64_t start_ns, int64_t end_ns,
                         const SpanKey& key) {
  if (!armed()) return;
  LayerStat& st = stats_[static_cast<size_t>(layer)];
  ++st.calls;
  st.total_ns += end_ns - start_ns;
  st.self_ns += end_ns - start_ns;
  if (spans_.size() >= span_cap_) return;
  Span s;
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.self_ns = end_ns - start_ns;
  s.key = key;
  spans_.push_back(s);
}

void TracedEnv::Send(NodeId to, MessagePtr msg) {
  SpanKey key = KeyOf(*msg);
  if (msg->type() == MsgType::kClientReply) key.client = to;
  ScopedSpan span(trace_, Layer::kSend, key);
  trace_->CountOut(msg->WireSize());
  base_->Send(to, std::move(msg));
}

TimerId TracedEnv::SetTimer(TimeNs delay, std::function<void()> cb) {
  return base_->SetTimer(delay, [trace = trace_, cb = std::move(cb)]() {
    ScopedSpan span(trace, Layer::kTimer, SpanKey{});
    cb();
  });
}

void TracedActor::OnStart() {
  trace_->set_tid(CurrentTid());
  traced_env_ = std::make_unique<TracedEnv>(env(), trace_);
  inner_->Bind(traced_env_.get());
  inner_->OnStart();
}

void TracedActor::OnMessage(NodeId from, const MessagePtr& msg) {
  trace_->CountIn();
  const Layer layer =
      IsRelayType(msg->type()) ? Layer::kRelayHandler : Layer::kHandler;
  ScopedSpan span(trace_, layer, KeyOf(*msg));
  inner_->OnMessage(from, msg);
}

void TracedStorage::Append(const pig::storage::WalRecord& rec) {
  ScopedSpan span(trace_, Layer::kAppend, SlotKey(rec.slot));
  trace_->CountAppend();
  ++unsynced_;
  base_->Append(rec);
}

pig::Status TracedStorage::Sync() {
  ScopedSpan span(trace_, Layer::kSync, SpanKey{});
  if (unsynced_ > 0) trace_->CountSync();
  unsynced_ = 0;
  return base_->Sync();
}

pig::Status TracedStorage::WriteSnapshot(
    const pig::storage::SnapshotData& snap) {
  ScopedSpan span(trace_, Layer::kSnapshot, SlotKey(snap.upto));
  return base_->WriteSnapshot(snap);
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const NodeTrace*>& nodes,
                      int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  for (const NodeTrace* node : nodes) {
    for (size_t i = 0; i < node->spans().size(); ++i) {
      const Span& s = node->spans()[i];
      if (s.end_ns == 0) continue;  // still open when the window closed
      std::fprintf(
          f,
          "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
          "\"parent\": %d, \"self_us\": %.3f, \"client\": %llu, "
          "\"seq\": %llu, \"slot\": %lld}}",
          first ? "" : ",\n", LayerName(s.layer), node->node(),
          (s.start_ns - origin_ns) / 1e3, (s.end_ns - s.start_ns) / 1e3, i,
          s.parent, s.self_ns / 1e3,
          static_cast<unsigned long long>(s.key.client),
          static_cast<unsigned long long>(s.key.seq),
          static_cast<long long>(s.key.slot));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
