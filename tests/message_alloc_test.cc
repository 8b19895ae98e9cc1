// Allocation-count regression tests for the zero-throwaway-encode
// message layer, using a global operator-new hook. What these pin:
//
//   * WireSize() on a cold message runs the counting sizer — zero heap
//     traffic, where it used to do a full throwaway encode per message;
//   * a steady-state fig7-shaped encode round reuses a scratch buffer's
//     capacity, allocating nothing after warm-up;
//   * MessagePool recycles a released message's heap block, so acquiring
//     the same type again allocates nothing (skipped under sanitizers,
//     where the pool is deliberately pass-through);
//   * the decode side: parsing a steady-state round's wire bytes —
//     envelopes, nested payloads and all — constructs every message
//     through the pool's recycled blocks, allocating nothing after
//     warm-up (the per-type free lists are the "decode arena");
//   * the WAL append path: a record frames in place into the caller's
//     buffer (zero allocations with room, one without, geometric growth
//     across a batch window), and a snapshot blob is one allocation.
//
// The hook counts every operator-new in the process, so each assertion
// brackets exactly the operation under test and compares raw counter
// snapshots (gtest machinery itself allocates).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "consensus/client_messages.h"
#include "consensus/message.h"
#include "paxos/messages.h"
#include "pigpaxos/messages.h"
#include "shard/messages.h"
#include "statemachine/batch.h"
#include "storage/storage.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pig {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// The message mix of one fig7-shaped relay round: a P2a proposal, its
/// relay envelope, the per-follower P2b votes, and the aggregated
/// RelayResponse going back up.
struct Fig7Round {
  std::shared_ptr<paxos::P2a> p2a;
  std::shared_ptr<pigpaxos::RelayRequest> relay_req;
  std::shared_ptr<pigpaxos::RelayResponse> relay_resp;
};

Fig7Round MakeFig7Round(SlotId slot) {
  Fig7Round round;
  round.p2a = std::make_shared<paxos::P2a>();
  round.p2a->ballot = Ballot(3, 0);
  round.p2a->slot = slot;
  round.p2a->command = Command::Put("key00042", "value-00042",
                                    kFirstClientId, 7);
  round.p2a->commit_index = slot - 1;

  round.relay_req = std::make_shared<pigpaxos::RelayRequest>();
  round.relay_req->relay_id = 1000 + static_cast<uint64_t>(slot);
  round.relay_req->origin = 0;
  round.relay_req->members = {2, 3};
  round.relay_req->inner = round.p2a;

  round.relay_resp = std::make_shared<pigpaxos::RelayResponse>();
  round.relay_resp->relay_id = round.relay_req->relay_id;
  round.relay_resp->sender = 1;
  round.relay_resp->responses.reserve(3);
  for (NodeId n = 1; n <= 3; ++n) {
    auto p2b = std::make_shared<paxos::P2b>();
    p2b->sender = n;
    p2b->ballot = Ballot(3, 0);
    p2b->slot = slot;
    p2b->ok = true;
    round.relay_resp->responses.push_back(std::move(p2b));
  }
  return round;
}

TEST(MessageAllocTest, WireSizeOnColdMessagesAllocatesNothing) {
  // Construct first (construction may allocate; sizing must not).
  Fig7Round round = MakeFig7Round(5);
  const uint64_t before = Allocations();
  const size_t p2a_size = round.p2a->WireSize();
  const size_t req_size = round.relay_req->WireSize();
  const size_t resp_size = round.relay_resp->WireSize();
  const uint64_t after = Allocations();
  EXPECT_EQ(after - before, 0u)
      << "counting sizer touched the heap";
  // Sanity: the sizes are real (the nested envelope outgrows its inner).
  EXPECT_GT(p2a_size, 0u);
  EXPECT_GT(req_size, p2a_size);
  EXPECT_GT(resp_size, 0u);
}

TEST(MessageAllocTest, SteadyStateEncodeRoundAllocatesNoEncoderBuffers) {
  pigpaxos::RegisterPigPaxosMessages();
  std::vector<uint8_t> scratch;
  // Warm-up round: establishes the scratch capacity.
  Fig7Round warm = MakeFig7Round(6);
  EncodeMessageTo(*warm.relay_req, &scratch);
  EncodeMessageTo(*warm.relay_resp, &scratch);
  EncodeMessageTo(*warm.p2a, &scratch);

  // Steady state: same-shaped round, messages pre-built, sizes still
  // cold — encode (sizer included) must reuse the scratch exclusively.
  Fig7Round round = MakeFig7Round(7);
  const uint64_t before = Allocations();
  EncodeMessageTo(*round.relay_req, &scratch);
  EncodeMessageTo(*round.relay_resp, &scratch);
  EncodeMessageTo(*round.p2a, &scratch);
  const uint64_t after = Allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state encode allocated a buffer";
}

TEST(MessageAllocTest, RelayEnvelopeListsStayInlineForNormalGroups) {
  // The SmallVec fields: filling a RelayRequest's member list and a
  // RelayResponse's vote buffer up to the inline capacity must never
  // touch the heap — these are built on every fan-out/fan-in round.
  auto req = std::make_shared<pigpaxos::RelayRequest>();
  auto resp = std::make_shared<pigpaxos::RelayResponse>();
  // Pre-build the votes: the shared_ptrs themselves allocate; moving
  // them into the inline buffer must not.
  std::shared_ptr<paxos::P2b> votes[pigpaxos::kRelayInlineCapacity];
  for (size_t i = 0; i < pigpaxos::kRelayInlineCapacity; ++i) {
    votes[i] = std::make_shared<paxos::P2b>();
    votes[i]->sender = static_cast<NodeId>(i + 1);
  }

  const uint64_t before = Allocations();
  for (size_t i = 0; i < pigpaxos::kRelayInlineCapacity; ++i) {
    req->members.push_back(static_cast<NodeId>(i + 1));
    resp->responses.push_back(std::move(votes[i]));
  }
  // Steady-state reuse: clear keeps the storage, so the next round's
  // fill is free too.
  req->members.clear();
  resp->responses.clear();
  req->members = {2, 3, 4};
  resp->responses.push_back(nullptr);
  const uint64_t after = Allocations();
  EXPECT_EQ(after - before, 0u)
      << "inline-capacity relay list spilled to the heap";
  EXPECT_EQ(req->members.size(), 3u);
}

TEST(MessageAllocTest, RelayEnvelopeListsSpillBeyondInlineCapacity) {
  // Sanity check on the pin above: one element past the inline capacity
  // must allocate (otherwise the zero-alloc assertion is vacuous).
  pigpaxos::RelayRequest req;
  for (size_t i = 0; i < pigpaxos::kRelayInlineCapacity; ++i) {
    req.members.push_back(static_cast<NodeId>(i));
  }
  const uint64_t before = Allocations();
  req.members.push_back(99);
  const uint64_t after = Allocations();
  EXPECT_GT(after - before, 0u);
  EXPECT_EQ(req.members.size(), pigpaxos::kRelayInlineCapacity + 1);
  EXPECT_EQ(req.members.back(), 99u);
}

TEST(MessageAllocTest, SteadyStateDecodeAllocatesNothing) {
  if (!MessagePool::enabled()) {
    GTEST_SKIP() << "pool is pass-through in sanitizer builds";
  }
  pigpaxos::RegisterPigPaxosMessages();
  shard::RegisterShardMessages();

  // Wire images of one steady-state round: a fan-out envelope with its
  // nested P2a, the aggregated vote envelope with three nested P2bs, and
  // a sharded client request (envelope + ClientRequest). Keys and values
  // are short enough for SSO — long values would rightly allocate.
  Fig7Round round = MakeFig7Round(8);
  auto request = std::make_shared<ClientRequest>(
      Command::Put("key00042", "value-00042", kFirstClientId, 9));
  const shard::ShardEnvelope envelope(3, request);
  const std::vector<uint8_t> req_wire = EncodeMessage(*round.relay_req);
  const std::vector<uint8_t> resp_wire = EncodeMessage(*round.relay_resp);
  const std::vector<uint8_t> env_wire = EncodeMessage(envelope);

  // Warm-up decode primes each type's free list (envelope and nested
  // payloads alike); dropping the results releases the blocks back.
  {
    MessagePtr a, b, c;
    ASSERT_TRUE(DecodeMessage(req_wire, &a).ok());
    ASSERT_TRUE(DecodeMessage(resp_wire, &b).ok());
    ASSERT_TRUE(DecodeMessage(env_wire, &c).ok());
  }

  const uint64_t before = Allocations();
  {
    MessagePtr a, b, c;
    (void)DecodeMessage(req_wire, &a);
    (void)DecodeMessage(resp_wire, &b);
    (void)DecodeMessage(env_wire, &c);
  }
  const uint64_t after = Allocations();
  EXPECT_EQ(after - before, 0u) << "steady-state decode hit the heap";
}

TEST(MessageAllocTest, MessagePoolRecyclesSteadyState) {
  if (!MessagePool::enabled()) {
    GTEST_SKIP() << "pool is pass-through in sanitizer builds";
  }
  // Warm-up: one acquire/release primes this thread's free list.
  { auto warm = MessagePool::Make<paxos::P2b>(); }
  const uint64_t before = Allocations();
  {
    auto p2b = MessagePool::Make<paxos::P2b>();
    p2b->sender = 2;
    p2b->slot = 9;
  }
  const uint64_t after = Allocations();
  EXPECT_EQ(after - before, 0u)
      << "pooled acquire after release hit the heap";
}

/// A batch-window-shaped accept: a kBatch carrier of eight 1 KiB puts.
storage::WalRecord BatchAccept(SlotId slot) {
  std::vector<Command> puts;
  for (uint64_t i = 0; i < 8; ++i) {
    puts.push_back(Command::Put("key0000" + std::to_string(i),
                                std::string(1024, 'v'), kFirstClientId,
                                static_cast<uint64_t>(slot) * 8 + i));
  }
  return storage::WalRecord::Accept(slot, Ballot(3, 0),
                                    BatchCommand::Wrap(std::move(puts)));
}

TEST(MessageAllocTest, WalFrameEncodesInPlace) {
  const storage::WalRecord rec = BatchAccept(11);

  // With room in the buffer: no scratch vector, no growth.
  std::vector<uint8_t> roomy;
  roomy.reserve(64 * 1024);
  uint64_t before = Allocations();
  storage::AppendWalFrame(rec, &roomy);
  EXPECT_EQ(Allocations() - before, 0u) << "framing used a scratch buffer";
  ASSERT_GT(roomy.size(), 8u * 1024);

  // Into an empty buffer: exactly the one growth of `out`.
  std::vector<uint8_t> empty;
  before = Allocations();
  storage::AppendWalFrame(rec, &empty);
  EXPECT_EQ(Allocations() - before, 1u);
  EXPECT_EQ(empty, roomy);

  // A batch window of appends to one buffer grows it geometrically.
  std::vector<uint8_t> window;
  before = Allocations();
  for (int i = 0; i < 16; ++i) storage::AppendWalFrame(rec, &window);
  EXPECT_LE(Allocations() - before, 6u) << "pending buffer grew linearly";
  EXPECT_EQ(window.size(), 16 * roomy.size());
}

TEST(MessageAllocTest, SnapshotBlobIsOneAllocation) {
  storage::SnapshotData snap;
  snap.upto = 4095;
  snap.promised = Ballot(3, 0);
  for (int i = 0; i < 256; ++i) {
    snap.kv.push_back(VersionedKv{"key" + std::to_string(i),
                                  std::string(1024, 'v'), 1});
  }
  for (NodeId c = 0; c < 4; ++c) {
    snap.client_records.push_back(
        storage::ClientDedupEntry{kFirstClientId + c, 7, "ok", 4000});
  }
  const uint64_t before = Allocations();
  const std::vector<uint8_t> blob = storage::EncodeSnapshotBlob(snap);
  EXPECT_EQ(Allocations() - before, 1u) << "snapshot blob grew by doubling";
  EXPECT_GT(blob.size(), 256u * 1024);
}

}  // namespace
}  // namespace pig
