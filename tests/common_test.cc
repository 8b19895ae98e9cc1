// Unit tests for common/: Status/Result, codec, RNG, histogram, logging,
// SmallFn, TimerQueue, FlatSet64.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "common/codec.h"
#include "common/flat_set.h"
#include "common/histogram.h"
#include "common/small_fn.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer_queue.h"
#include "common/types.h"

namespace pig {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Timeout("no quorum");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTimeout());
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.ToString(), "Timeout: no quorum");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(CodecTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefull);
  enc.PutI64(-12345);
  enc.PutBool(true);

  Decoder dec(enc.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  bool b = false;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetI64(&i64).ok());
  ASSERT_TRUE(dec.GetBool(&b).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -12345);
  EXPECT_TRUE(b);
  EXPECT_TRUE(dec.Done());
}

TEST(CodecTest, VarintRoundTrip) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  1u << 20, 1ull << 40, ~0ull};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(dec.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(dec.Done());
}

TEST(CodecTest, BytesRoundTrip) {
  Encoder enc;
  enc.PutBytes("hello");
  enc.PutBytes("");
  std::string big(100000, 'x');
  enc.PutBytes(big);
  Decoder dec(enc.buffer());
  std::string a, b, c;
  ASSERT_TRUE(dec.GetBytes(&a).ok());
  ASSERT_TRUE(dec.GetBytes(&b).ok());
  ASSERT_TRUE(dec.GetBytes(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, big);
}

TEST(CodecTest, UnderflowIsCorruption) {
  Encoder enc;
  enc.PutU32(7);
  Decoder dec(enc.buffer());
  uint64_t v;
  EXPECT_EQ(dec.GetU64(&v).code(), StatusCode::kCorruption);
}

TEST(CodecTest, TruncatedBytesIsCorruption) {
  Encoder enc;
  enc.PutVarint(100);  // length prefix promising 100 bytes, none present
  Decoder dec(enc.buffer());
  std::string s;
  EXPECT_EQ(dec.GetBytes(&s).code(), StatusCode::kCorruption);
}

TEST(CodecTest, OverlongVarintIsCorruption) {
  std::vector<uint8_t> buf(11, 0xff);
  Decoder dec(buf);
  uint64_t v;
  EXPECT_EQ(dec.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Rng a2(7), c2(8);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(12);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(14);
  auto sample = rng.SampleIndices(10, 5);
  EXPECT_EQ(sample.size(), 5u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 5u);
  for (size_t i : sample) EXPECT_LT(i, 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(16);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.QuantileNs(0.5), 0);
  EXPECT_EQ(h.MeanNs(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1 * kMillisecond);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1 * kMillisecond);
  EXPECT_EQ(h.max(), 1 * kMillisecond);
  EXPECT_NEAR(h.QuantileMillis(0.5), 1.0, 0.05);
}

TEST(HistogramTest, QuantilesOrdered) {
  Histogram h;
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    h.Record(static_cast<TimeNs>(rng.NextBounded(10 * kMillisecond)));
  }
  EXPECT_LE(h.QuantileNs(0.5), h.QuantileNs(0.9));
  EXPECT_LE(h.QuantileNs(0.9), h.QuantileNs(0.99));
  EXPECT_LE(h.QuantileNs(0.99), h.max());
  // Uniform [0,10ms): median should be ~5ms within bucket error.
  EXPECT_NEAR(h.QuantileMillis(0.5), 5.0, 0.3);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(1000);
  b.Record(2000);
  b.Record(3000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 1000);
  EXPECT_EQ(a.max(), 3000);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, RelativeErrorBounded) {
  Histogram h;
  for (TimeNs v : {TimeNs{123456}, TimeNs{999999}, 5 * kMillisecond,
                   2 * kSecond}) {
    h.Reset();
    h.Record(v);
    TimeNs q = h.QuantileNs(1.0);
    EXPECT_GE(q, v * 0.97);
    EXPECT_LE(q, v);  // clamped to max
  }
}

TEST(TypesTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(ToMillis(1 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_TRUE(IsClientId(kFirstClientId));
  EXPECT_FALSE(IsClientId(24));
}

// ---------------------------------------------------------------------------
// SmallFn: the scheduler's inline event callable.

TEST(SmallFnTest, SmallClosureStaysInline) {
  int hits = 0;
  int* p = &hits;
  auto lambda = [p]() { (*p)++; };
  static_assert(EventFn::FitsInline<decltype(lambda)>());
  EventFn fn = lambda;
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, FatClosureFallsBackToHeapAndStillWorks) {
  struct Fat {
    char pad[200];
    int* counter;
    void operator()() const { (*counter)++; }
  };
  static_assert(!EventFn::FitsInline<Fat>());
  int hits = 0;
  Fat fat{};
  fat.counter = &hits;
  EventFn fn = fat;
  fn();
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, MoveTransfersOwnershipExactlyOnce) {
  // A move-only capture proves no copies happen anywhere in the path.
  auto owner = std::make_unique<int>(7);
  int seen = 0;
  EventFn fn = [owner = std::move(owner), &seen]() { seen = *owner; };
  EventFn via_move = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  EventFn via_assign;
  via_assign = std::move(via_move);
  via_assign();
  EXPECT_EQ(seen, 7);
}

TEST(SmallFnTest, DestructorReleasesCapture) {
  auto tracker = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracker;
  {
    EventFn fn = [tracker = std::move(tracker)]() { (void)*tracker; };
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFnTest, EmplaceReplacesTarget) {
  int a = 0, b = 0;
  EventFn fn = [&a]() { a++; };
  fn.emplace([&b]() { b++; });
  fn();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

// ---------------------------------------------------------------------------
// TimerQueue: the timer queue under sim::Scheduler and every TcpCluster
// node. SchedulerTest (sim_test) covers its order, ties and cancels.

TEST(TimerQueueTest, NextDeadlineClearsWhenOnlyEntryIsCanceled) {
  TimerQueue queue;
  const TimerQueue::Key key = queue.Add(kSecond, [] {});
  EXPECT_EQ(queue.NextDeadline(), kSecond);
  queue.Cancel(key);
  EXPECT_EQ(queue.NextDeadline(), -1);
  TimeNs when = 0;
  EventFn fn;
  EXPECT_FALSE(queue.PopDue(2 * kSecond, &when, &fn));
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// FlatSet64: the network's downed-link set.

TEST(FlatSet64Test, InsertContainsErase) {
  FlatSet64 set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(5));
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(5));  // duplicate
  EXPECT_TRUE(set.insert(0));   // zero is a legal key
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.erase(5));
  EXPECT_FALSE(set.erase(5));
  EXPECT_FALSE(set.contains(5));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(0));
}

TEST(FlatSet64Test, GrowsAndMatchesReferenceUnderRandomChurn) {
  FlatSet64 set;
  std::set<uint64_t> ref;
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    // A narrow key range maximizes probe-run collisions, stressing the
    // backward-shift deletion path.
    uint64_t key = rng.NextBounded(512);
    if (rng.NextBool(0.6)) {
      EXPECT_EQ(set.insert(key), ref.insert(key).second);
    } else {
      EXPECT_EQ(set.erase(key), ref.erase(key) > 0);
    }
  }
  EXPECT_EQ(set.size(), ref.size());
  for (uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(set.contains(key), ref.count(key) > 0) << key;
  }
}

}  // namespace
}  // namespace pig
