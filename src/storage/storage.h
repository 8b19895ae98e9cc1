// Durable-storage seam for PaxosReplica: a write-ahead log plus
// state-machine snapshots, sitting strictly below the consensus layer
// (this header must not include anything from paxos/).
//
// WAL model. A replica appends three record kinds:
//   * kPromise — the promised ballot; must be durable before any P1b/P2b
//     response built on that promise leaves the node.
//   * kAccept  — (slot, ballot, command); must be durable before the
//     accept vote counts (the follower's P2b, or the leader's self-vote).
//   * kCommit  — the contiguous commit index; appended but never the
//     reason for a sync (a lost commit marker is recoverable from peers,
//     so it rides whatever durability barrier comes next).
// Append() only buffers; Sync() is one durability barrier covering every
// record appended since the previous barrier. Because a PR 3 batch is one
// kBatch carrier in one slot, one Sync() — one fdatasync in the file
// implementation — covers a whole batch window (group commit), and the
// pipeline keeps multiple windows in flight.
//
// Snapshot model. WriteSnapshot persists the applied state (KV pairs with
// versions, the client dedup records, the promised ballot, the covered
// slot) atomically — temp file + rename in the file implementation — and
// lets the implementation drop WAL history that the snapshot covers.
//
// Recovery contract. LoadSnapshot then ReplayWal, both before the first
// Append. Replay visits surviving records in append order and stops
// silently at the first torn or corrupt record: everything after a torn
// write is a lost suffix by definition (it was never acknowledged as
// durable, or the disk ate it — either way the protocol re-learns it from
// peers via LogSync).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/status.h"
#include "common/types.h"
#include "consensus/ballot.h"
#include "statemachine/command.h"
#include "statemachine/kvstore.h"

namespace pig::storage {

enum class WalRecordType : uint8_t {
  kPromise = 1,
  kAccept = 2,
  kCommit = 3,
};

/// One durable event. `slot` is the accepted slot for kAccept and the
/// contiguous commit index for kCommit; `ballot` and `command` are only
/// meaningful for the kinds that carry them.
struct WalRecord {
  WalRecordType type = WalRecordType::kPromise;
  Ballot ballot;
  SlotId slot = kInvalidSlot;
  Command command;

  static WalRecord Promise(const Ballot& b) {
    WalRecord r;
    r.type = WalRecordType::kPromise;
    r.ballot = b;
    return r;
  }
  static WalRecord Accept(SlotId slot, const Ballot& b, const Command& cmd) {
    WalRecord r;
    r.type = WalRecordType::kAccept;
    r.slot = slot;
    r.ballot = b;
    r.command = cmd;
    return r;
  }
  static WalRecord Commit(SlotId upto) {
    WalRecord r;
    r.type = WalRecordType::kCommit;
    r.slot = upto;
    return r;
  }

  /// The highest slot this record pins in the WAL: once a snapshot covers
  /// it the record is prunable. Promise records are covered by the
  /// snapshot's promised ballot instead.
  SlotId CoverSlot() const {
    return type == WalRecordType::kPromise ? kInvalidSlot : slot;
  }
};

/// Mirror of the replica's per-client dedup entry, kept storage-local so
/// the dependency arrow stays paxos -> storage.
struct ClientDedupEntry {
  NodeId client = kInvalidNode;
  uint64_t seq = 0;
  std::string value;
  SlotId slot = kInvalidSlot;
};

/// Everything a replica needs back after losing memory: applied state
/// (with per-key versions, so exactly-once accounting survives), the
/// dedup map, the promise, and the slot the state covers.
struct SnapshotData {
  SlotId upto = kInvalidSlot;
  Ballot promised;
  std::vector<VersionedKv> kv;                     ///< Sorted by key.
  std::vector<ClientDedupEntry> client_records;    ///< Sorted by client.
};

// --- Record / snapshot codec -------------------------------------------
//
// A WAL frame is [u32 LE length][payload], the stream framing of
// net/frame.h, where payload = [u32 LE crc32][encoded record]; the crc
// covers the encoded record bytes. Snapshots use the same payload shape in
// a single frame. Shared by both implementations so fault-injection tests exercise
// the exact bytes the file backend writes. Writers size a record with the
// counting sizer and encode it in place; the byte format is pinned by a
// golden fixture in tests/storage_test.cc.

void EncodeWalRecord(const WalRecord& rec, Encoder& enc);
Status DecodeWalRecord(Decoder& dec, WalRecord* out);

void EncodeSnapshot(const SnapshotData& snap, Encoder& enc);
Status DecodeSnapshot(Decoder& dec, SnapshotData* out);

/// Appends one framed, checksummed WAL record to `*out`: at most one
/// (geometric) growth of `out`, and none when its capacity suffices.
void AppendWalFrame(const WalRecord& rec, std::vector<uint8_t>* out);

/// Verifies the crc and decodes one frame payload (as handed out by
/// net::FrameReader). Returns false on a checksum or decode failure —
/// the torn-record signal that stops replay.
bool ParseWalPayload(const uint8_t* payload, size_t size, WalRecord* out);

/// Builds the checksummed snapshot blob (crc + body, unframed) in one
/// exactly sized allocation.
std::vector<uint8_t> EncodeSnapshotBlob(const SnapshotData& snap);

/// Inverse of EncodeSnapshotBlob; nullopt on checksum/decode failure.
std::optional<SnapshotData> ParseSnapshotBlob(const uint8_t* data,
                                              size_t size);

// --- The seam ----------------------------------------------------------

class Storage {
 public:
  virtual ~Storage() = default;

  /// Buffers one record; durable at the next Sync().
  virtual void Append(const WalRecord& rec) = 0;

  /// Durability barrier over every record appended since the last one.
  /// Must be a no-op (and not count as a sync) when nothing is pending.
  virtual Status Sync() = 0;

  /// Atomically persists `snap`, then may prune WAL history whose
  /// CoverSlot is <= snap.upto (and promise records <= snap.promised).
  virtual Status WriteSnapshot(const SnapshotData& snap) = 0;

  /// Latest durable snapshot, or nullopt when none survives.
  virtual std::optional<SnapshotData> LoadSnapshot() = 0;

  /// Visits surviving WAL records in append order, stopping silently at
  /// the first torn/corrupt record. Returns the number visited. Only
  /// valid before the first Append.
  virtual size_t ReplayWal(
      const std::function<void(const WalRecord&)>& fn) = 0;

  // Counters for metrics and the group-fsync tests/bench.
  virtual uint64_t appended_records() const = 0;
  virtual uint64_t syncs() const = 0;
};

}  // namespace pig::storage
