#include "net/frame.h"

#include <cstdio>

namespace pig::net {

void AppendFrame(const Message& msg, std::vector<uint8_t>* out) {
  const size_t payload = msg.WireSize();  // tag + body, counting sizer
  Encoder enc(*out);                      // external mode: appends
  enc.Reserve(kFrameHeaderBytes + payload);
  enc.PutU32(static_cast<uint32_t>(payload));
  enc.PutU8(static_cast<uint8_t>(msg.type()));
  msg.EncodeBody(enc);
}

void FrameReader::Append(const uint8_t* data, size_t size) {
  // Compact before growing: once every complete frame has been consumed
  // the buffer resets for free; a large consumed prefix is trimmed so the
  // buffer does not grow without bound on a long-lived connection.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ >= 64 * 1024) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

FrameReader::Result FrameReader::Next(const uint8_t** payload,
                                      size_t* size) {
  if (corrupt_) return Result::kCorrupt;
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Result::kNeedMore;
  const uint8_t* h = buf_.data() + pos_;
  const uint32_t len = static_cast<uint32_t>(h[0]) |
                       (static_cast<uint32_t>(h[1]) << 8) |
                       (static_cast<uint32_t>(h[2]) << 16) |
                       (static_cast<uint32_t>(h[3]) << 24);
  if (len > kMaxFramePayload) {
    corrupt_ = true;  // desynced or garbage stream: unrecoverable
    return Result::kCorrupt;
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < len) return Result::kNeedMore;
  *payload = buf_.data() + pos_ + kFrameHeaderBytes;
  *size = len;
  pos_ += kFrameHeaderBytes + len;
  return Result::kFrame;
}

void FrameReader::Reset() {
  buf_.clear();
  pos_ = 0;
  corrupt_ = false;
}

void NodeHello::EncodeBody(Encoder& enc) const { enc.PutU32(sender); }

Status NodeHello::DecodeBody(Decoder& dec, MessagePtr* out) {
  auto m = MessagePool::Make<NodeHello>();
  Status s = dec.GetU32(&m->sender);
  if (!s.ok()) return s;
  *out = std::move(m);
  return Status::Ok();
}

std::string NodeHello::DebugString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "NodeHello{from=%u}", sender);
  return buf;
}

void RegisterFrameMessages() {
  RegisterMessageDecoder(MsgType::kNodeHello, &NodeHello::DecodeBody);
}

}  // namespace pig::net
