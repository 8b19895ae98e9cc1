// Wire message framework.
//
// Every protocol message derives from Message and implements binary
// encode/decode through common/codec.h. The simulated network charges
// bandwidth/CPU using the real encoded size; the wall-clock runtime does a
// full encode/decode round trip, so serialization is always exercised.
//
// Byte accounting is allocation-free: WireSize() runs EncodeBody against
// a counting Encoder (no buffer), and EncodeMessage seeds the write
// buffer's reservation from that size so encoding is a single exact
// allocation — or none at all when a caller reuses a scratch buffer via
// EncodeMessageTo. High-churn message types are built through
// MessagePool, which recycles their (control block + object) heap blocks
// on a per-type thread-local free list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/types.h"

namespace pig {

/// All message kinds in the library. The numeric value is the wire tag.
enum class MsgType : uint8_t {
  // Client interaction (consensus/client_messages.h)
  kClientRequest = 1,
  kClientReply = 2,
  // Liveness (consensus/heartbeat.h)
  kHeartbeat = 3,
  // Multi-Paxos (paxos/messages.h)
  kP1a = 10,
  kP1b = 11,
  kP2a = 12,
  kP2b = 13,
  kP3 = 14,
  kLogSyncRequest = 15,
  kLogSyncResponse = 16,
  // PigPaxos relay envelope (pigpaxos/messages.h)
  kRelayRequest = 20,
  kRelayResponse = 21,
  kRelayBundle = 22,  ///< Several RelayResponses coalesced per uplink.
  // EPaxos (epaxos/messages.h)
  kPreAccept = 30,
  kPreAcceptReply = 31,
  kEAccept = 32,
  kEAcceptReply = 33,
  kECommit = 34,
  // Paxos Quorum Reads extension (paxos/quorum_reads.h)
  kQuorumReadRequest = 40,
  kQuorumReadReply = 41,
  // Ring-pipeline baseline (baselines/ring_replica.h)
  kRingPass = 50,
  // Transport-level handshake (net/frame.h); consumed by the TCP runtime,
  // never dispatched to actors.
  kNodeHello = 60,
  // Multi-group sharding envelope (shard/messages.h): tags any protocol
  // message with the consensus group it belongs to.
  kShardEnvelope = 70,
};

/// Base class for every message exchanged between actors.
class Message {
 public:
  virtual ~Message() = default;

  virtual MsgType type() const = 0;

  /// Appends the message body (without the type tag) to `enc`. Must be
  /// driven identically by counting and writing encoders: the same Puts,
  /// in the same order, regardless of the sink mode.
  virtual void EncodeBody(Encoder& enc) const = 0;

  /// Short human-readable form for logging/tracing.
  virtual std::string DebugString() const;

  /// Total wire size (type tag + body). Computed once with a counting
  /// sizer — no buffer is allocated or written — and cached.
  size_t WireSize() const;

 private:
  mutable size_t cached_size_ = 0;  // 0 = not yet computed
};

using MessagePtr = std::shared_ptr<const Message>;

/// Encodes `msg` with its leading type tag into a buffer reserved at the
/// exact wire size.
std::vector<uint8_t> EncodeMessage(const Message& msg);

/// Encodes `msg` into `*out` (cleared first), reusing its capacity. A
/// scratch buffer passed here repeatedly reaches a steady state where
/// encoding allocates nothing.
void EncodeMessageTo(const Message& msg, std::vector<uint8_t>* out);

/// Appends `msg` as a length-prefixed nested payload (varint byte count,
/// then tag + body, written straight into `enc` — no temporary buffer).
void EncodeNestedMessage(Encoder& enc, const Message& msg);

/// Decodes one length-prefixed nested payload in place (no copy).
Status DecodeNestedMessage(Decoder& dec, MessagePtr* out);

/// Decoder function for one message type: parses a body.
using MessageDecodeFn = Status (*)(Decoder& dec, MessagePtr* out);

/// Registers a decoder for `type`. Protocols call this from their
/// Register*Messages() functions; re-registration overwrites.
void RegisterMessageDecoder(MsgType type, MessageDecodeFn fn);

/// Every type currently holding a registered decoder, ascending by wire
/// tag. Lets tests sweep the full registry (e.g. the WireSize ==
/// encoded-size property) without hand-maintaining a type list.
std::vector<MsgType> RegisteredMessageTypes();

/// Parses a full wire buffer (tag + body). Fails with Corruption for
/// unknown tags, truncated bodies, or trailing garbage.
Status DecodeMessage(const std::vector<uint8_t>& wire, MessagePtr* out);
Status DecodeMessage(const uint8_t* data, size_t size, MessagePtr* out);

namespace internal {

/// Free blocks cached by a PooledAllocator; whatever is still held when
/// the thread exits goes back to the heap.
struct MessagePoolFreeList {
  std::vector<void*> blocks;
  ~MessagePoolFreeList() {
    for (void* p : blocks) ::operator delete(p);
  }
};

// Under ASan the pool is pass-through: recycling blocks would mask
// use-after-free on pooled messages from the sanitizer lanes.
#if defined(__SANITIZE_ADDRESS__)
#define PIG_MESSAGE_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PIG_MESSAGE_POOL_PASSTHROUGH 1
#endif
#endif

/// Minimal allocator whose single-object allocations come from a bounded
/// per-(type, thread) free list. std::allocate_shared funnels its one
/// combined (control block + object) allocation through here, so a
/// steady-state acquire/release cycle never touches the heap.
template <typename T>
class PooledAllocator {
 public:
  using value_type = T;

  PooledAllocator() = default;
  template <typename U>
  PooledAllocator(const PooledAllocator<U>&) {}  // NOLINT: converting

  static constexpr bool pooling_enabled() {
#ifdef PIG_MESSAGE_POOL_PASSTHROUGH
    return false;
#else
    return true;
#endif
  }

  T* allocate(size_t n) {
    if (pooling_enabled() && n == 1) {
      MessagePoolFreeList& fl = FreeList();
      if (!fl.blocks.empty()) {
        void* p = fl.blocks.back();
        fl.blocks.pop_back();
        return static_cast<T*>(p);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    if (pooling_enabled() && n == 1) {
      MessagePoolFreeList& fl = FreeList();
      if (fl.blocks.size() < kMaxFreeBlocks) {
        fl.blocks.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PooledAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PooledAllocator<U>&) const {
    return false;
  }

 private:
  static constexpr size_t kMaxFreeBlocks = 1024;

  static MessagePoolFreeList& FreeList() {
    static thread_local MessagePoolFreeList fl;
    return fl;
  }
};

}  // namespace internal

/// Per-type free-list pool for the highest-churn message types
/// (RelayRequest/RelayResponse/P2a/P2b and friends). Make<T>() behaves
/// like std::make_shared<T>() but recycles the heap block once the last
/// reference drops, so steady-state fan-out/fan-in rounds construct
/// messages without allocating.
class MessagePool {
 public:
  template <typename T, typename... Args>
  static std::shared_ptr<T> Make(Args&&... args) {
    return std::allocate_shared<T>(internal::PooledAllocator<T>(),
                                   std::forward<Args>(args)...);
  }

  /// False when the pool is compiled as pass-through (sanitizer builds).
  static constexpr bool enabled() {
    return internal::PooledAllocator<int>::pooling_enabled();
  }
};

}  // namespace pig
