#include "load_client.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "client/workload.h"
#include "consensus/client_messages.h"
#include "host.h"

namespace perfbench {

namespace {

constexpr TimeNs kTickInterval = pig::kMillisecond;
constexpr uint64_t kSeqBits = 28;
// The Paxi keyspace: 1000 keys of 8 bytes.
constexpr size_t kNumKeys = 1000;
constexpr size_t kKeySize = 8;
constexpr TimeNs kOpTimeout = 2 * pig::kSecond;
constexpr TimeNs kProbeTimeout = 100 * pig::kMillisecond;

}  // namespace

std::string EncodeValue(uint32_t client, uint64_t seq, size_t size) {
  char head[16];
  std::snprintf(head, sizeof(head), "%08llx",
                static_cast<unsigned long long>(
                    (static_cast<uint64_t>(client) << kSeqBits) |
                    (seq & ((1ull << kSeqBits) - 1))));
  std::string v(head, 8);
  if (size > v.size()) v.append(size - v.size(), 'v');
  return v;
}

bool DecodeValue(const std::string& value, uint32_t* client, uint64_t* seq) {
  if (value.size() < 8) return false;
  uint64_t x = 0;
  for (size_t i = 0; i < 8; ++i) {
    const char c = value[i];
    uint64_t d = 0;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    x = (x << 4) | d;
  }
  *client = static_cast<uint32_t>(x >> kSeqBits);
  *seq = x & ((1ull << kSeqBits) - 1);
  return true;
}

LoadClient::LoadClient(LoadClientConfig config, NodeTrace* trace)
    : config_(config),
      trace_(trace),
      rng_(config.seed * 0x9e3779b97f4a7c15ull + config.index + 1) {
  pig::client::WorkloadConfig wc;
  wc.num_keys = kNumKeys;
  wc.key_size = kKeySize;
  pig::client::WorkloadGenerator gen(wc);
  keys_.reserve(kNumKeys);
  for (size_t i = 0; i < kNumKeys; ++i) keys_.push_back(gen.KeyAt(i));
  put_keys_.push_back(-1);  // seq 0 is never used
}

void LoadClient::OnStart() {
  if (trace_ != nullptr) trace_->set_tid(CurrentTid());
  env()->SetTimer(kTickInterval, [this]() { Tick(); });
  SendNew();  // the probe
}

void LoadClient::StartLoad(MeasureWindow window) {
  window_start_.store(window.start_ns, std::memory_order_relaxed);
  window_end_.store(window.end_ns, std::memory_order_relaxed);
  phase_.store(static_cast<int>(Phase::kLoad), std::memory_order_release);
}

void LoadClient::Stop() {
  phase_.store(static_cast<int>(Phase::kStop), std::memory_order_release);
}

void LoadClient::Tick() {
  const auto phase = static_cast<Phase>(phase_.load(std::memory_order_acquire));
  if (phase != seen_phase_) {
    if (phase == Phase::kLoad) {
      tally_.Reset(MeasureWindow{
          window_start_.load(std::memory_order_relaxed),
          window_end_.load(std::memory_order_relaxed)});
    }
    seen_phase_ = phase;
  }
  const int64_t now = NowNs();
  const TimeNs limit =
      seen_phase_ == Phase::kProbe ? kProbeTimeout : kOpTimeout;
  std::vector<uint64_t> expired;
  for (const auto& [seq, p] : pending_) {
    if (now - p.sent_ns > limit) expired.push_back(seq);
  }
  for (uint64_t seq : expired) {
    if (seen_phase_ == Phase::kProbe) {
      NextReplica();
      Pending& p = pending_[seq];
      p.sent_ns = now;  // restarts the probe's timeout
      SendTo(seq, p);
      continue;
    }
    Finish(seq, /*ok=*/false);
  }
  Fill();
  env()->SetTimer(kTickInterval, [this]() { Tick(); });
}

void LoadClient::Fill() {
  if (seen_phase_ != Phase::kLoad) return;
  while (pending_.size() < config_.window) SendNew();
}

void LoadClient::SendNew() {
  const uint64_t seq = ++next_seq_;
  Pending p;
  p.sent_ns = NowNs();
  p.key = static_cast<uint32_t>(rng_.NextBounded(kNumKeys));
  p.is_read = rng_.NextDouble() < config_.read_ratio;
  put_keys_.push_back(p.is_read ? -1 : static_cast<int32_t>(p.key));
  tally_.OnSent(p.sent_ns);
  pending_.emplace(seq, p);
  SendTo(seq, p);
  Publish();
}

void LoadClient::SendTo(uint64_t seq, const Pending& p) {
  const NodeId self = env()->self();
  pig::Command cmd =
      p.is_read
          ? pig::Command::Get(keys_[p.key], self, seq)
          : pig::Command::Put(keys_[p.key],
                              EncodeValue(config_.index, seq,
                                          config_.value_size),
                              self, seq);
  env()->Send(leader_, std::make_shared<pig::ClientRequest>(std::move(cmd)));
}

void LoadClient::Finish(uint64_t seq, bool ok) {
  auto it = pending_.find(seq);
  if (!ok) tally_.OnFailed(it->second.sent_ns);
  pending_.erase(it);
  Publish();
}

void LoadClient::OnMessage(NodeId from, const MessagePtr& msg) {
  (void)from;
  if (msg->type() != pig::MsgType::kClientReply) return;
  const auto& reply = static_cast<const pig::ClientReply&>(*msg);
  auto it = pending_.find(reply.seq);
  if (it == pending_.end()) {
    if (reply.seq == 0 || reply.seq > next_seq_) {
      ++totals_.unknown_replies;
    } else {
      ++totals_.stale_replies;
    }
    return;
  }
  if (reply.code == pig::StatusCode::kNotLeader) {
    ++totals_.redirects;
    if (reply.leader_hint < config_.num_replicas &&
        reply.leader_hint != leader_) {
      leader_ = reply.leader_hint;
    } else {
      NextReplica();
    }
    if (seen_phase_ == Phase::kProbe) {
      SendTo(reply.seq, it->second);
      return;
    }
    Finish(reply.seq, /*ok=*/false);
    Fill();
    return;
  }
  if (!reply.ok()) {
    Finish(reply.seq, /*ok=*/false);
    Fill();
    return;
  }
  const Pending p = it->second;
  const int64_t now = NowNs();
  ++totals_.acked;
  if (first_commit_ns_.load(std::memory_order_relaxed) == 0) {
    first_commit_ns_.store(now, std::memory_order_release);
  }
  tally_.OnCommitted(p.sent_ns, now);
  if (p.is_read) {
    ObservedRead r;
    r.key = p.key;
    r.empty = reply.value.empty();
    if (!r.empty && !DecodeValue(reply.value, &r.writer, &r.writer_seq)) {
      ++totals_.malformed_reads;
    } else {
      reads_.push_back(r);
    }
  }
  if (trace_ != nullptr) {
    SpanKey key;
    key.client = env()->self();
    key.seq = reply.seq;
    key.slot = reply.slot;
    trace_->AddAsync(Layer::kClientOp, p.sent_ns, now, key);
  }
  pending_.erase(it);
  Publish();
  Fill();
}

}  // namespace perfbench
