// Binary wire codec.
//
// All protocol messages encode through Encoder/Decoder so that the
// simulated network can account wire sizes on the same code path a real
// transport would use. Layout: little-endian fixed-width integers, LEB128
// varints for lengths, length-prefixed byte strings.
//
// An Encoder is a byte sink with three backing modes sharing one Put API,
// so each message's EncodeBody is written once and drives all three:
//   * owning   — appends to its own buffer (EncodeMessage),
//   * external — appends into a caller-owned buffer whose capacity is
//                reused across messages (the TCP runtime's connection
//                buffers), and
//   * counting — a size-only sink that touches no memory at all
//                (Message::WireSize's counting sizer).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace pig {

/// Appends primitive values to a byte buffer, or just counts them.
class Encoder {
 public:
  /// Tag selecting the size-only counting mode.
  struct SizerTag {};

  /// Owning mode: appends to an internal buffer.
  Encoder() : out_(&owned_) {}

  /// Counting mode: size() accumulates, no bytes are stored.
  explicit Encoder(SizerTag) : out_(nullptr) {}

  /// External mode: appends into `external` (kept by the caller), so a
  /// scratch buffer's capacity survives across messages.
  explicit Encoder(std::vector<uint8_t>& external) : out_(&external) {}

  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  /// Pre-sizes the sink for `n` further bytes (no-op when counting).
  /// Seeding this from the counting sizer makes the write pass a single
  /// exact allocation instead of repeated growth.
  void Reserve(size_t n) {
    if (out_ != nullptr) out_->reserve(out_->size() + n);
  }

  void PutU8(uint8_t v) {
    if (out_ != nullptr) out_->push_back(v);
    size_ += 1;
  }

  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }

  /// LEB128 unsigned varint (1-10 bytes).
  void PutVarint(uint64_t v) {
    uint8_t tmp[10];
    size_t n = 0;
    while (v >= 0x80) {
      tmp[n++] = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    tmp[n++] = static_cast<uint8_t>(v);
    Append(tmp, n);
  }

  /// Length-prefixed byte string.
  void PutBytes(std::string_view s) {
    PutVarint(s.size());
    Append(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  void PutBool(bool b) { PutU8(b ? 1 : 0); }

  /// Bytes appended through this encoder (in counting mode: the exact
  /// size a writing encoder would have produced).
  size_t size() const { return size_; }

  /// The backing buffer. Owning/external modes only — a counting
  /// encoder has no buffer to hand out.
  const std::vector<uint8_t>& buffer() const {
    assert(out_ != nullptr);
    return *out_;
  }
  std::vector<uint8_t> TakeBuffer() {
    assert(out_ != nullptr);
    return std::move(*out_);
  }

 private:
  /// Bulk append: one insert per value/string instead of per-byte
  /// push_back.
  void Append(const uint8_t* data, size_t n) {
    if (out_ != nullptr && n > 0) out_->insert(out_->end(), data, data + n);
    size_ += n;
  }

  template <typename T>
  void PutFixed(T v) {
    uint8_t tmp[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Append(tmp, sizeof(T));
  }

  std::vector<uint8_t>* out_;  // nullptr = counting mode
  std::vector<uint8_t> owned_;
  size_t size_ = 0;
};

/// Reads primitive values back out of a byte buffer. All getters return
/// Corruption on underflow/overlong input instead of asserting, so a
/// malformed message can never crash a replica.
class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU8(uint8_t* out) {
    if (pos_ + 1 > size_) return Underflow();
    *out = data_[pos_++];
    return Status::Ok();
  }

  Status GetU32(uint32_t* out) { return GetFixed(out); }
  Status GetU64(uint64_t* out) { return GetFixed(out); }
  Status GetI64(int64_t* out) {
    uint64_t tmp = 0;
    Status s = GetFixed(&tmp);
    if (s.ok()) *out = static_cast<int64_t>(tmp);
    return s;
  }

  Status GetVarint(uint64_t* out) {
    uint64_t result = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Underflow();
      uint8_t byte = data_[pos_++];
      if (shift >= 63 && byte > 1) {
        return Status::Corruption("varint overflow");
      }
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *out = result;
    return Status::Ok();
  }

  Status GetBytes(std::string* out) {
    uint64_t len = 0;
    Status s = GetVarint(&len);
    if (!s.ok()) return s;
    if (len > remaining()) return Underflow();
    out->assign(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::Ok();
  }

  /// Hands out a pointer to the next `n` raw bytes in place (no copy)
  /// and advances past them. Used for nested-message payloads.
  Status GetRaw(size_t n, const uint8_t** out) {
    if (n > remaining()) return Underflow();
    *out = data_ + pos_;
    pos_ += n;
    return Status::Ok();
  }

  Status GetBool(bool* out) {
    uint8_t v = 0;
    Status s = GetU8(&v);
    if (s.ok()) *out = (v != 0);
    return s;
  }

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

 private:
  static Status Underflow() {
    return Status::Corruption("decode underflow");
  }

  template <typename T>
  Status GetFixed(T* out) {
    if (pos_ + sizeof(T) > size_) return Underflow();
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::Ok();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace pig
