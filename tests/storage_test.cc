// Unit tests for the durable-storage layer (src/storage/): the CRC-32
// against a bitwise reference, WAL record / snapshot codecs with a golden
// fixture pinning the on-disk bytes, the in-memory fault-injecting backend (torn-write,
// lost-suffix, disk-wipe), and the on-disk segmented backend (reopen
// round-trips, torn tails, segment rolling, snapshot-covered pruning,
// group-fsync accounting).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "statemachine/batch.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "storage/storage.h"

namespace pig::storage {
namespace {

namespace fs = std::filesystem;

Command Cmd(const std::string& key, uint64_t seq = 1) {
  return Command::Put(key, "value-" + key, kFirstClientId, seq);
}

std::vector<WalRecord> Replay(Storage& s) {
  std::vector<WalRecord> out;
  s.ReplayWal([&out](const WalRecord& r) { out.push_back(r); });
  return out;
}

SnapshotData SampleSnapshot() {
  SnapshotData snap;
  snap.upto = 41;
  snap.promised = Ballot(7, 2);
  snap.kv.push_back(VersionedKv{"alpha", "1", 3});
  snap.kv.push_back(VersionedKv{"beta", "", 1});  // empty value survives
  ClientDedupEntry rec;
  rec.client = kFirstClientId + 4;
  rec.seq = 19;
  rec.value = "reply";
  rec.slot = 40;
  snap.client_records.push_back(rec);
  return snap;
}

// --- Codec -------------------------------------------------------------

TEST(WalCodecTest, FrameRoundTripsAllRecordKinds) {
  const std::vector<WalRecord> records = {
      WalRecord::Promise(Ballot(3, 1)),
      WalRecord::Accept(17, Ballot(3, 1), Cmd("k", 9)),
      WalRecord::Commit(17),
  };
  MemStorage mem;
  for (const WalRecord& r : records) mem.Append(r);
  ASSERT_TRUE(mem.Sync().ok());

  const std::vector<WalRecord> got = Replay(mem);
  ASSERT_EQ(got.size(), records.size());
  EXPECT_EQ(got[0].type, WalRecordType::kPromise);
  EXPECT_EQ(got[0].ballot, Ballot(3, 1));
  EXPECT_EQ(got[1].type, WalRecordType::kAccept);
  EXPECT_EQ(got[1].slot, 17);
  EXPECT_EQ(got[1].command.key, "k");
  EXPECT_EQ(got[1].command.seq, 9u);
  EXPECT_EQ(got[2].type, WalRecordType::kCommit);
  EXPECT_EQ(got[2].slot, 17);
}

TEST(WalCodecTest, CorruptPayloadFailsChecksum) {
  // Size the value so the encoded record is 4,097 bytes: not a multiple
  // of 8, so the checksum's word loop and its byte tail both see a flip.
  constexpr size_t kBody = 4097;
  auto make = [](size_t value_len) {
    return WalRecord::Accept(9, Ballot(2, 1),
                             Command::Put("key", std::string(value_len, 'v'),
                                          kFirstClientId, 4));
  };
  Encoder sizer{Encoder::SizerTag{}};
  EncodeWalRecord(make(0), sizer);
  const size_t value_len = kBody - sizer.size() - 1;  // +1 varint byte
  std::vector<uint8_t> frame;
  AppendWalFrame(make(value_len), &frame);
  ASSERT_EQ(frame.size(), 4 + 4 + kBody);

  uint8_t* payload = frame.data() + 4;  // after the 4-byte length prefix
  const size_t payload_size = frame.size() - 4;
  WalRecord rec;
  ASSERT_TRUE(ParseWalPayload(payload, payload_size, &rec));
  for (size_t at : {size_t{4}, 4 + kBody / 2, payload_size - 1}) {
    payload[at] ^= 0x10;
    EXPECT_FALSE(ParseWalPayload(payload, payload_size, &rec))
        << "flip at payload byte " << at;
    payload[at] ^= 0x10;
  }
  EXPECT_TRUE(ParseWalPayload(payload, payload_size, &rec));
  // Truncated payload must also fail (short read, not a crash).
  EXPECT_FALSE(ParseWalPayload(payload, 3, &rec));
}

TEST(WalCodecTest, SnapshotBlobRoundTripsAndDetectsCorruption) {
  const SnapshotData snap = SampleSnapshot();
  std::vector<uint8_t> blob = EncodeSnapshotBlob(snap);
  auto got = ParseSnapshotBlob(blob.data(), blob.size());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->upto, 41);
  EXPECT_EQ(got->promised, Ballot(7, 2));
  ASSERT_EQ(got->kv.size(), 2u);
  EXPECT_EQ(got->kv[0].key, "alpha");
  EXPECT_EQ(got->kv[0].version, 3u);
  EXPECT_EQ(got->kv[1].value, "");
  ASSERT_EQ(got->client_records.size(), 1u);
  EXPECT_EQ(got->client_records[0].seq, 19u);
  EXPECT_EQ(got->client_records[0].slot, 40);

  blob[blob.size() / 2] ^= 0x01;
  EXPECT_FALSE(ParseSnapshotBlob(blob.data(), blob.size()).has_value());
}

// --- CRC-32 and the pinned on-disk format ------------------------------

/// Bit-at-a-time reflected CRC-32 (polynomial 0xEDB88320): the reference
/// the table-driven Crc32 must reproduce exactly.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> PseudoRandomBytes(size_t n, uint32_t seed) {
  std::vector<uint8_t> out(n);
  uint32_t x = seed | 1u;
  for (uint8_t& b : out) {  // xorshift32
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<uint8_t>(x);
  }
  return out;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr,
                                                  16)));
  }
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> buf = PseudoRandomBytes(64 + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  const std::vector<uint8_t> big = PseudoRandomBytes(1 << 20, 11);
  EXPECT_EQ(Crc32(big.data(), big.size()),
            ReferenceCrc32(big.data(), big.size()));
}

TEST(Crc32Test, ExtendSplitAtEveryPointMatchesOneShot) {
  const std::vector<uint8_t> buf = PseudoRandomBytes(100, 3);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32Extend(0, buf.data(), split);
    EXPECT_EQ(Crc32Extend(head, buf.data() + split, buf.size() - split),
              whole)
        << "split at " << split;
  }
}

TEST(WalCodecTest, GoldenFramesPinTheOnDiskBytes) {
  // Hex of [u32 length][u32 crc][record] per frame, as written by the
  // original byte-at-a-time CRC and scratch-buffer framing. WAL segments
  // on disk are exactly these frames back to back, so any drift here
  // strands existing data directories.
  const Ballot ballot(5, 2);
  const Command batch = BatchCommand::Wrap({
      Command::Put("k1", "v1", kFirstClientId, 1),
      Command::Put("k2", "v2", kFirstClientId, 2),
      Command::Put("k3", "v3", kFirstClientId + 1, 1),
  });
  const std::string promise_hex =
      "110000009c2048e001050000000000000002000000";
  const std::string accept_hex =
      "6200000074cbbfb4022a00000000000000050000000000000002000000030000"
      "ffffffff00000000000000000302026b31027631000010000100000000000000"
      "02026b3202763200001000020000000000000002026b33027633010010000100"
      "000000000000";
  const std::string commit_hex = "0d000000f55632b7032a00000000000000";

  std::vector<uint8_t> frame;
  AppendWalFrame(WalRecord::Promise(ballot), &frame);
  EXPECT_EQ(frame, FromHex(promise_hex));
  frame.clear();
  AppendWalFrame(WalRecord::Accept(42, ballot, batch), &frame);
  EXPECT_EQ(frame, FromHex(accept_hex));
  frame.clear();
  AppendWalFrame(WalRecord::Commit(42), &frame);
  EXPECT_EQ(frame, FromHex(commit_hex));

  // Appending to a non-empty buffer frames each record the same way.
  std::vector<uint8_t> segment;
  AppendWalFrame(WalRecord::Promise(ballot), &segment);
  AppendWalFrame(WalRecord::Accept(42, ballot, batch), &segment);
  AppendWalFrame(WalRecord::Commit(42), &segment);
  EXPECT_EQ(segment, FromHex(promise_hex + accept_hex + commit_hex));

  // And the golden bytes parse back to the records.
  const std::vector<uint8_t> accept = FromHex(accept_hex);
  WalRecord rec;
  ASSERT_TRUE(ParseWalPayload(accept.data() + 4, accept.size() - 4, &rec));
  EXPECT_EQ(rec.type, WalRecordType::kAccept);
  EXPECT_EQ(rec.slot, 42);
  EXPECT_EQ(rec.ballot, ballot);
  EXPECT_EQ(rec.command, batch);
}

// --- MemStorage faults -------------------------------------------------

TEST(MemStorageTest, SyncOnlyCountsWhenDirty) {
  MemStorage mem;
  ASSERT_TRUE(mem.Sync().ok());
  EXPECT_EQ(mem.syncs(), 0u);  // clean barrier is free
  mem.Append(WalRecord::Promise(Ballot(1, 0)));
  mem.Append(WalRecord::Accept(0, Ballot(1, 0), Cmd("a")));
  mem.Append(WalRecord::Accept(1, Ballot(1, 0), Cmd("b")));
  ASSERT_TRUE(mem.Sync().ok());
  EXPECT_EQ(mem.syncs(), 1u);  // group commit: 3 appends, 1 barrier
  EXPECT_EQ(mem.appended_records(), 3u);
  ASSERT_TRUE(mem.Sync().ok());
  EXPECT_EQ(mem.syncs(), 1u);
}

TEST(MemStorageTest, DropUnsyncedLosesOnlyTheTail) {
  MemStorage mem;
  mem.Append(WalRecord::Accept(0, Ballot(1, 0), Cmd("durable")));
  ASSERT_TRUE(mem.Sync().ok());
  mem.Append(WalRecord::Accept(1, Ballot(1, 0), Cmd("lost")));
  mem.DropUnsynced();  // crash before the barrier

  const std::vector<WalRecord> got = Replay(mem);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].slot, 0);
  EXPECT_EQ(got[0].command.key, "durable");
}

TEST(MemStorageTest, TornRecordStopsReplayAndDropsSuffix) {
  MemStorage mem;
  mem.Append(WalRecord::Accept(0, Ballot(1, 0), Cmd("ok")));
  mem.Append(WalRecord::Accept(1, Ballot(1, 0), Cmd("torn")));
  ASSERT_TRUE(mem.Sync().ok());
  mem.TearLastRecord();
  // Everything after a torn record is a lost suffix: only slot 0 survives.
  const std::vector<WalRecord> got = Replay(mem);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].slot, 0);
}

TEST(MemStorageTest, WipeAllLosesSnapshotAndWal) {
  MemStorage mem;
  mem.Append(WalRecord::Accept(0, Ballot(1, 0), Cmd("a")));
  ASSERT_TRUE(mem.Sync().ok());
  ASSERT_TRUE(mem.WriteSnapshot(SampleSnapshot()).ok());
  ASSERT_TRUE(mem.has_snapshot());
  mem.WipeAll();
  EXPECT_FALSE(mem.has_snapshot());
  EXPECT_FALSE(mem.LoadSnapshot().has_value());
  EXPECT_TRUE(Replay(mem).empty());
}

TEST(MemStorageTest, SnapshotPrunesCoveredPrefix) {
  MemStorage mem;
  mem.Append(WalRecord::Promise(Ballot(2, 0)));
  mem.Append(WalRecord::Accept(0, Ballot(2, 0), Cmd("a")));
  mem.Append(WalRecord::Accept(1, Ballot(2, 0), Cmd("b")));
  mem.Append(WalRecord::Accept(2, Ballot(2, 0), Cmd("c")));
  ASSERT_TRUE(mem.Sync().ok());

  SnapshotData snap;
  snap.upto = 1;               // covers slots 0..1 and the promise
  snap.promised = Ballot(2, 0);
  ASSERT_TRUE(mem.WriteSnapshot(snap).ok());

  const std::vector<WalRecord> got = Replay(mem);
  ASSERT_EQ(got.size(), 1u);  // only the uncovered accept at slot 2
  EXPECT_EQ(got[0].slot, 2);
  auto loaded = mem.LoadSnapshot();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->upto, 1);
}

// --- FileStorage -------------------------------------------------------

class FileStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pig_storage_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FileStorageTest, ReopenRecoversWalAndSnapshot) {
  {
    FileStorage fsb(dir_.string());
    ASSERT_TRUE(fsb.ok()) << fsb.open_error().ToString();
    fsb.Append(WalRecord::Promise(Ballot(5, 1)));
    for (SlotId s = 0; s < 4; ++s) {
      fsb.Append(WalRecord::Accept(s, Ballot(5, 1), Cmd("k" + std::to_string(s))));
    }
    fsb.Append(WalRecord::Commit(3));
    ASSERT_TRUE(fsb.Sync().ok());
    ASSERT_TRUE(fsb.WriteSnapshot(SampleSnapshot()).ok());
  }
  FileStorage reopened(dir_.string());
  ASSERT_TRUE(reopened.ok());
  auto snap = reopened.LoadSnapshot();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->upto, 41);
  EXPECT_EQ(snap->promised, Ballot(7, 2));
  // Pruning is segment-granular and the one live segment also holds the
  // commit marker, so the full record sequence survives replay (the
  // replica's recovery path skips what the snapshot covers).
  const std::vector<WalRecord> got = Replay(reopened);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0].type, WalRecordType::kPromise);
  EXPECT_EQ(got[5].type, WalRecordType::kCommit);
  EXPECT_EQ(got[5].slot, 3);
}

TEST_F(FileStorageTest, ReopenReplaysUncoveredSuffix) {
  {
    FileStorage fsb(dir_.string());
    ASSERT_TRUE(fsb.ok());
    for (SlotId s = 0; s < 6; ++s) {
      fsb.Append(WalRecord::Accept(s, Ballot(1, 0), Cmd("k", s + 1)));
    }
    ASSERT_TRUE(fsb.Sync().ok());
  }
  FileStorage reopened(dir_.string());
  const std::vector<WalRecord> got = Replay(reopened);
  ASSERT_EQ(got.size(), 6u);
  for (SlotId s = 0; s < 6; ++s) EXPECT_EQ(got[s].slot, s);
}

TEST_F(FileStorageTest, TornTailStopsReplayAtLastGoodRecord) {
  {
    FileStorage fsb(dir_.string());
    ASSERT_TRUE(fsb.ok());
    fsb.Append(WalRecord::Accept(0, Ballot(1, 0), Cmd("good")));
    fsb.Append(WalRecord::Accept(1, Ballot(1, 0), Cmd("torn")));
    ASSERT_TRUE(fsb.Sync().ok());
  }
  // Physically truncate the tail of the only segment, mid-record.
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segment = entry.path();
    }
  }
  ASSERT_FALSE(segment.empty());
  const auto size = fs::file_size(segment);
  fs::resize_file(segment, size - 5);

  FileStorage reopened(dir_.string());
  ASSERT_TRUE(reopened.ok());
  const std::vector<WalRecord> got = Replay(reopened);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].command.key, "good");
}

TEST_F(FileStorageTest, SegmentsRollAndFreshAppendsNeverExtendOldTail) {
  FileStorageOptions opt;
  opt.segment_bytes = 256;  // force frequent rolls
  {
    FileStorage fsb(dir_.string(), opt);
    ASSERT_TRUE(fsb.ok());
    for (SlotId s = 0; s < 32; ++s) {
      fsb.Append(WalRecord::Accept(s, Ballot(1, 0), Cmd("key" + std::to_string(s))));
      ASSERT_TRUE(fsb.Sync().ok());
    }
  }
  size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    segments += entry.path().filename().string().rfind("wal-", 0) == 0;
  }
  EXPECT_GT(segments, 1u);

  // Reopen and append: recovery must open a FRESH segment rather than
  // extending a possibly-torn recovered tail.
  {
    FileStorage reopened(dir_.string(), opt);
    EXPECT_EQ(Replay(reopened).size(), 32u);
    reopened.Append(WalRecord::Accept(32, Ballot(1, 0), Cmd("after")));
    ASSERT_TRUE(reopened.Sync().ok());
  }
  size_t segments_after = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    segments_after += entry.path().filename().string().rfind("wal-", 0) == 0;
  }
  EXPECT_GT(segments_after, segments);
  FileStorage check(dir_.string(), opt);
  EXPECT_EQ(Replay(check).size(), 33u);
}

TEST_F(FileStorageTest, SnapshotPrunesCoveredSegments) {
  FileStorageOptions opt;
  opt.segment_bytes = 256;
  FileStorage fsb(dir_.string(), opt);
  ASSERT_TRUE(fsb.ok());
  for (SlotId s = 0; s < 24; ++s) {
    fsb.Append(WalRecord::Accept(s, Ballot(1, 0), Cmd("key" + std::to_string(s))));
    ASSERT_TRUE(fsb.Sync().ok());
  }
  size_t before = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    before += entry.path().filename().string().rfind("wal-", 0) == 0;
  }
  ASSERT_GT(before, 2u);

  SnapshotData snap;
  snap.upto = 23;  // covers everything
  snap.promised = Ballot(1, 0);
  ASSERT_TRUE(fsb.WriteSnapshot(snap).ok());

  size_t after = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    after += entry.path().filename().string().rfind("wal-", 0) == 0;
  }
  EXPECT_LT(after, before);
}

TEST_F(FileStorageTest, StaleSnapshotTmpIsIgnoredAndRemoved) {
  fs::create_directories(dir_);
  {
    std::ofstream tmp(dir_ / "snapshot.tmp", std::ios::binary);
    tmp << "half-written garbage";
  }
  FileStorage fsb(dir_.string());
  ASSERT_TRUE(fsb.ok());
  EXPECT_FALSE(fsb.LoadSnapshot().has_value());
  EXPECT_FALSE(fs::exists(dir_ / "snapshot.tmp"));
}

TEST_F(FileStorageTest, CorruptSnapshotFileIsRejected) {
  {
    FileStorage fsb(dir_.string());
    ASSERT_TRUE(fsb.WriteSnapshot(SampleSnapshot()).ok());
  }
  // Flip one byte in the middle of the durable snapshot.
  const fs::path snap_path = dir_ / "snapshot.bin";
  ASSERT_TRUE(fs::exists(snap_path));
  std::fstream f(snap_path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(fs::file_size(snap_path) / 2));
  char c;
  f.read(&c, 1);
  f.seekp(-1, std::ios::cur);
  c = static_cast<char>(c ^ 0x40);
  f.write(&c, 1);
  f.close();

  FileStorage reopened(dir_.string());
  EXPECT_FALSE(reopened.LoadSnapshot().has_value());
}

TEST_F(FileStorageTest, GroupFsyncOneBarrierPerBatchWindow) {
  FileStorage fsb(dir_.string());
  ASSERT_TRUE(fsb.ok());
  // A batch window: promise + N accepts + commit marker, one barrier.
  fsb.Append(WalRecord::Promise(Ballot(1, 0)));
  for (SlotId s = 0; s < 16; ++s) {
    fsb.Append(WalRecord::Accept(s, Ballot(1, 0), Cmd("k", s + 1)));
  }
  fsb.Append(WalRecord::Commit(15));
  ASSERT_TRUE(fsb.Sync().ok());
  EXPECT_EQ(fsb.appended_records(), 18u);
  EXPECT_EQ(fsb.syncs(), 1u);
  ASSERT_TRUE(fsb.Sync().ok());  // clean barrier: free
  EXPECT_EQ(fsb.syncs(), 1u);
}

}  // namespace
}  // namespace pig::storage
