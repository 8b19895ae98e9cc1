// Length-prefixed message framing for byte-stream transports.
//
// A frame is a 4-byte little-endian payload length followed by the
// payload (type tag + body, exactly what EncodeMessageTo produces).
// AppendFrame writes through the existing counting-sizer + external-mode
// Encoder straight into a caller-owned buffer, so the send path reuses
// per-connection output buffers and allocates nothing at steady state.
// FrameReader reassembles frames from arbitrary read() chunks: torn
// frames and short reads yield kNeedMore, an implausible length prefix
// (stream desync / garbage) yields kCorrupt and the connection should be
// dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "consensus/message.h"

namespace pig::net {

using pig::Decoder;
using pig::Encoder;
using pig::Message;
using pig::MessagePtr;
using pig::MsgType;
using pig::NodeId;
using pig::Status;

/// Hard upper bound on a frame payload. Anything above this is treated as
/// stream corruption, not a huge message: the largest legitimate payload
/// (a LogSync snapshot) stays orders of magnitude below it.
inline constexpr size_t kMaxFramePayload = 64u * 1024 * 1024;

/// Bytes of framing overhead per message.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Appends one frame for `msg` to `*out` WITHOUT clearing it, so several
/// messages can be coalesced into one connection buffer and flushed with
/// a single write.
void AppendFrame(const Message& msg, std::vector<uint8_t>* out);

/// Incremental frame extractor over a stream of read() chunks.
///
///   reader.Append(bytes, n);                    // after each read()
///   const uint8_t* payload; size_t size;
///   while (reader.Next(&payload, &size) == FrameReader::Result::kFrame) {
///     DecodeMessage(payload, size, ...);        // view into the reader;
///   }                                           // valid until next Append
class FrameReader {
 public:
  enum class Result { kFrame, kNeedMore, kCorrupt };

  void Append(const uint8_t* data, size_t size);

  /// Extracts the next complete frame. The payload view stays valid until
  /// the next Append/Reset. Once kCorrupt is returned the stream cannot
  /// be resynchronized; drop the connection.
  Result Next(const uint8_t** payload, size_t* size);

  /// Drops all buffered bytes (reconnect reuses the reader).
  void Reset();

  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  bool corrupt_ = false;
};

/// First frame on every outbound connection: identifies the dialing node
/// so the accepting side can route replies over the same socket (clients
/// are not in the static peer map). Consumed by the transport layer,
/// never dispatched to actors.
struct NodeHello final : Message {
  NodeId sender = kInvalidNode;

  MsgType type() const override { return MsgType::kNodeHello; }
  void EncodeBody(Encoder& enc) const override;
  static Status DecodeBody(Decoder& dec, MessagePtr* out);
  std::string DebugString() const override;
};

/// Registers the transport-level decoders (NodeHello).
void RegisterFrameMessages();

}  // namespace pig::net
