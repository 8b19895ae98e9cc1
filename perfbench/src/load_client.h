// Pipelined closed-loop client actor for the TCP workloads.
//
// Runs on its own TcpCluster event loop and keeps a fixed window of
// requests in flight to the leader, with strictly increasing seq. A put's
// value encodes (client, seq), so every read can be checked against the
// writes the benchmark actually issued.
//
// Phases: kProbe sends one request at a time (resending the same seq to
// the next replica on redirect or timeout) until the first commit, which
// marks the end of set-up; kLoad keeps the window full; kStop issues
// nothing more and drains. Outside the probe a request is never resent: a
// pipelined client's lower seq resent after a higher one was executed
// would be acknowledged by the replica's dedup floor without running, so
// a timed-out or redirected request counts as failed and the window
// moves on with a fresh seq.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "consensus/env.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct LoadClientConfig {
  uint32_t index = 0;  ///< 0-based client number; the actor id is derived.
  size_t num_replicas = 0;
  size_t window = 1;   ///< Requests in flight during kLoad.
  size_t value_size = 8;
  double read_ratio = 0.5;
  uint64_t seed = 1;
};

/// Put values: 8 hex digits of (client << 28 | seq), padded to `size`
/// with filler. Values shorter than 8 bytes are not supported.
std::string EncodeValue(uint32_t client, uint64_t seq, size_t size);

/// Inverse of EncodeValue's header; false when `value` is not one.
bool DecodeValue(const std::string& value, uint32_t* client, uint64_t* seq);

/// A read's key and the write it observed (`empty` when none).
struct ObservedRead {
  uint32_t key = 0;
  bool empty = true;
  uint32_t writer = 0;
  uint64_t writer_seq = 0;
};

/// Totals over the client's whole life (warm-up included), read after the
/// cluster has stopped.
struct ClientTotals {
  uint64_t acked = 0;           ///< OK replies to outstanding requests.
  uint64_t redirects = 0;       ///< kNotLeader replies.
  uint64_t stale_replies = 0;   ///< Replies for seqs no longer waited on.
  uint64_t unknown_replies = 0; ///< Replies for seqs never sent.
  uint64_t malformed_reads = 0; ///< Non-empty read values not ours.
};

class LoadClient final : public Actor {
 public:
  /// `trace` may be null (untraced runs).
  LoadClient(LoadClientConfig config, NodeTrace* trace);

  static NodeId IdFor(uint32_t index) { return pig::kFirstClientId + index; }

  void OnStart() override;
  void OnMessage(NodeId from, const MessagePtr& msg) override;

  // --- Control, from any thread ----------------------------------------
  /// Switches to kLoad; `window` bounds what the tallies count and must
  /// be fixed before it opens.
  void StartLoad(MeasureWindow window);
  void Stop();
  /// NowNs() of the first commit, 0 until then.
  int64_t first_commit_ns() const {
    return first_commit_ns_.load(std::memory_order_acquire);
  }
  size_t in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  // --- Results, after the cluster has stopped ----------------------------
  WindowTally& tally() { return tally_; }
  const ClientTotals& totals() const { return totals_; }
  /// key index written at each seq (-1: the seq was a read or unused).
  const std::vector<int32_t>& put_keys() const { return put_keys_; }
  const std::vector<ObservedRead>& reads() const { return reads_; }

 private:
  enum class Phase : int { kProbe = 0, kLoad = 1, kStop = 2 };

  struct Pending {
    int64_t sent_ns = 0;
    uint32_t key = 0;
    bool is_read = false;
  };

  void Tick();
  void Fill();
  void SendNew();
  void SendTo(uint64_t seq, const Pending& p);
  void Finish(uint64_t seq, bool ok);
  void NextReplica() { leader_ = (leader_ + 1) % config_.num_replicas; }
  void Publish() {
    in_flight_.store(pending_.size(), std::memory_order_release);
  }

  const LoadClientConfig config_;
  NodeTrace* trace_;
  std::vector<std::string> keys_;
  pig::Rng rng_;

  std::atomic<int> phase_{static_cast<int>(Phase::kProbe)};
  std::atomic<int64_t> window_start_{0};
  std::atomic<int64_t> window_end_{0};
  std::atomic<int64_t> first_commit_ns_{0};
  std::atomic<size_t> in_flight_{0};

  Phase seen_phase_ = Phase::kProbe;
  NodeId leader_ = 0;
  uint64_t next_seq_ = 0;
  std::unordered_map<uint64_t, Pending> pending_;
  WindowTally tally_;
  ClientTotals totals_;
  std::vector<int32_t> put_keys_;
  std::vector<ObservedRead> reads_;
};

}  // namespace perfbench
