#include "storage/storage.h"

#include <algorithm>

#include "net/frame.h"

namespace pig::storage {
namespace {

constexpr size_t kCrcBytes = 4;

void EncodeClientRecord(const ClientDedupEntry& r, Encoder& enc) {
  enc.PutU32(r.client);
  enc.PutVarint(r.seq);
  enc.PutBytes(r.value);
  enc.PutI64(r.slot);
}

Status DecodeClientRecord(Decoder& dec, ClientDedupEntry* out) {
  Status s;
  if (!(s = dec.GetU32(&out->client)).ok()) return s;
  if (!(s = dec.GetVarint(&out->seq)).ok()) return s;
  if (!(s = dec.GetBytes(&out->value)).ok()) return s;
  if (!(s = dec.GetI64(&out->slot)).ok()) return s;
  return Status::Ok();
}

/// Patches the crc slot at the head of `payload` ([4 crc][body]) with the
/// crc of the body. The body length is only final once it is encoded, so
/// writers put a zero placeholder first and seal it last.
void SealCrc(uint8_t* payload, size_t size) {
  const uint32_t crc = Crc32(payload + kCrcBytes, size - kCrcBytes);
  for (size_t i = 0; i < kCrcBytes; ++i) {
    payload[i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

bool CheckCrc(const uint8_t* data, size_t size) {
  if (size < kCrcBytes) return false;
  uint32_t stored = 0;
  for (size_t i = 0; i < kCrcBytes; ++i) {
    stored |= static_cast<uint32_t>(data[i]) << (8 * i);
  }
  return stored == Crc32(data + kCrcBytes, size - kCrcBytes);
}

}  // namespace

void EncodeWalRecord(const WalRecord& rec, Encoder& enc) {
  enc.PutU8(static_cast<uint8_t>(rec.type));
  switch (rec.type) {
    case WalRecordType::kPromise:
      rec.ballot.Encode(enc);
      break;
    case WalRecordType::kAccept:
      enc.PutI64(rec.slot);
      rec.ballot.Encode(enc);
      rec.command.Encode(enc);
      break;
    case WalRecordType::kCommit:
      enc.PutI64(rec.slot);
      break;
  }
}

Status DecodeWalRecord(Decoder& dec, WalRecord* out) {
  uint8_t type = 0;
  Status s;
  if (!(s = dec.GetU8(&type)).ok()) return s;
  if (type < static_cast<uint8_t>(WalRecordType::kPromise) ||
      type > static_cast<uint8_t>(WalRecordType::kCommit)) {
    return Status::Corruption("unknown wal record type");
  }
  out->type = static_cast<WalRecordType>(type);
  switch (out->type) {
    case WalRecordType::kPromise:
      return Ballot::Decode(dec, &out->ballot);
    case WalRecordType::kAccept:
      if (!(s = dec.GetI64(&out->slot)).ok()) return s;
      if (!(s = Ballot::Decode(dec, &out->ballot)).ok()) return s;
      return Command::Decode(dec, &out->command);
    case WalRecordType::kCommit:
      return dec.GetI64(&out->slot);
  }
  return Status::Corruption("unreachable");
}

void EncodeSnapshot(const SnapshotData& snap, Encoder& enc) {
  enc.PutI64(snap.upto);
  snap.promised.Encode(enc);
  enc.PutVarint(snap.kv.size());
  for (const VersionedKv& e : snap.kv) {
    enc.PutBytes(e.key);
    enc.PutBytes(e.value);
    enc.PutVarint(e.version);
  }
  enc.PutVarint(snap.client_records.size());
  for (const ClientDedupEntry& r : snap.client_records) {
    EncodeClientRecord(r, enc);
  }
}

Status DecodeSnapshot(Decoder& dec, SnapshotData* out) {
  Status s;
  if (!(s = dec.GetI64(&out->upto)).ok()) return s;
  if (!(s = Ballot::Decode(dec, &out->promised)).ok()) return s;
  uint64_t n = 0;
  if (!(s = dec.GetVarint(&n)).ok()) return s;
  if (n > dec.remaining()) return Status::Corruption("snapshot kv too big");
  out->kv.resize(static_cast<size_t>(n));
  for (VersionedKv& e : out->kv) {
    if (!(s = dec.GetBytes(&e.key)).ok()) return s;
    if (!(s = dec.GetBytes(&e.value)).ok()) return s;
    if (!(s = dec.GetVarint(&e.version)).ok()) return s;
  }
  if (!(s = dec.GetVarint(&n)).ok()) return s;
  if (n > dec.remaining()) {
    return Status::Corruption("snapshot records too big");
  }
  out->client_records.resize(static_cast<size_t>(n));
  for (ClientDedupEntry& r : out->client_records) {
    if (!(s = DecodeClientRecord(dec, &r)).ok()) return s;
  }
  return Status::Ok();
}

void AppendWalFrame(const WalRecord& rec, std::vector<uint8_t>* out) {
  Encoder sizer{Encoder::SizerTag{}};
  EncodeWalRecord(rec, sizer);
  const size_t payload_size = kCrcBytes + sizer.size();
  // One growth step at most, still geometric, so a buffer collecting a
  // batch window of frames (FileStorage::pending_) amortizes its growth.
  const size_t need = out->size() + net::kFrameHeaderBytes + payload_size;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  // [u32 LE length][u32 crc placeholder][record], encoded in place.
  Encoder enc(*out);
  enc.PutU32(static_cast<uint32_t>(payload_size));
  const size_t payload_at = out->size();
  enc.PutU32(0);
  EncodeWalRecord(rec, enc);
  SealCrc(out->data() + payload_at, payload_size);
}

bool ParseWalPayload(const uint8_t* payload, size_t size, WalRecord* out) {
  if (!CheckCrc(payload, size)) return false;
  Decoder dec(payload + kCrcBytes, size - kCrcBytes);
  if (!DecodeWalRecord(dec, out).ok()) return false;
  return dec.remaining() == 0;
}

std::vector<uint8_t> EncodeSnapshotBlob(const SnapshotData& snap) {
  Encoder sizer{Encoder::SizerTag{}};
  EncodeSnapshot(snap, sizer);
  std::vector<uint8_t> blob;
  blob.reserve(kCrcBytes + sizer.size());  // the blob's one allocation
  blob.resize(kCrcBytes);                  // zeroed crc placeholder
  Encoder enc(blob);
  EncodeSnapshot(snap, enc);
  SealCrc(blob.data(), blob.size());
  return blob;
}

std::optional<SnapshotData> ParseSnapshotBlob(const uint8_t* data,
                                              size_t size) {
  if (!CheckCrc(data, size)) return std::nullopt;
  Decoder dec(data + kCrcBytes, size - kCrcBytes);
  SnapshotData snap;
  if (!DecodeSnapshot(dec, &snap).ok()) return std::nullopt;
  if (dec.remaining() != 0) return std::nullopt;
  return snap;
}

}  // namespace pig::storage
