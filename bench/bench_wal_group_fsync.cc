// WAL group-commit bench (durability PR).
//
// The durability design hinges on one claim: a batch window needs ONE
// durability barrier, not one per command — Append() only buffers, and a
// single Sync() (one fdatasync in FileStorage) covers every record
// appended since the previous barrier. This bench appends fig8-shaped
// accept records to a real FileStorage in windows of {1, 16} and issues
// one Sync per window.
//
// items/second shows the group-commit throughput win on a real disk, but
// it is NOT the gated number: fsync latency on shared CI runners swings
// wildly with the backing store. The gate (scripts/bench_gate.py) pins
// the records_per_sync counter instead — appended_records / syncs as
// reported by the storage layer itself, exactly `window` when group
// commit works and ~1 if a regression starts syncing per append. The
// counter is deterministic, so the comparison has no tolerance, and a
// cross-row ratio floor requires window:16 to amortize >= 8 records per
// barrier.
//
// BM_Crc32 and BM_AppendWalFrame time the CPU side of one append — the
// checksum and the in-place record framing — in bytes/second. They are
// informational only and stay out of the gate (wall-clock rows); the
// exact regression check for the append path is the allocation count
// in tests/message_alloc_test.cc.
#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "consensus/ballot.h"
#include "statemachine/batch.h"
#include "statemachine/command.h"
#include "storage/file_storage.h"

namespace pig {
namespace {

namespace fs = std::filesystem;

/// A fresh data directory per benchmark run (repetitions must not replay
/// each other's tails: reopening an existing WAL is a different workload).
fs::path FreshDir() {
  static std::atomic<uint64_t> counter{0};
  fs::path dir = fs::temp_directory_path() /
                 ("pig_bench_wal_" + std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  return dir;
}

void BM_WalGroupFsync(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  const fs::path dir = FreshDir();
  storage::FileStorage store(dir.string());
  if (!store.ok()) {
    state.SkipWithError(store.open_error().ToString().c_str());
    return;
  }

  // Fig8-shaped payload: 8-byte-ish keys, 16-byte values, one client.
  const Ballot ballot(1, 0);
  SlotId slot = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < window; ++i) {
      Command cmd = Command::Put("key-" + std::to_string(slot % 1024),
                                 "value-payload-16b", kFirstClientId,
                                 static_cast<uint64_t>(slot + 1));
      store.Append(storage::WalRecord::Accept(slot, ballot, cmd));
      ++slot;
    }
    Status s = store.Sync();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }

  state.SetItemsProcessed(static_cast<int64_t>(store.appended_records()));
  state.counters["appended"] =
      static_cast<double>(store.appended_records());
  state.counters["syncs"] = static_cast<double>(store.syncs());
  state.counters["records_per_sync"] =
      store.syncs() > 0
          ? static_cast<double>(store.appended_records()) /
                static_cast<double>(store.syncs())
          : 0.0;
  fs::remove_all(dir);
}
BENCHMARK(BM_WalGroupFsync)
    ->ArgName("window")
    ->Arg(1)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
  const std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0x5a);
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32Extend(crc, buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(65536);

/// One batch-window accept (a kBatch carrier of eight puts whose values
/// are `range(0)` bytes each) framed into a reused buffer, as
/// FileStorage::Append does between syncs.
void BM_AppendWalFrame(benchmark::State& state) {
  std::vector<Command> puts;
  for (uint64_t i = 0; i < 8; ++i) {
    puts.push_back(Command::Put(
        "key-" + std::to_string(i),
        std::string(static_cast<size_t>(state.range(0)), 'v'),
        kFirstClientId, i + 1));
  }
  const storage::WalRecord rec = storage::WalRecord::Accept(
      7, Ballot(1, 0), BatchCommand::Wrap(std::move(puts)));
  std::vector<uint8_t> pending;
  for (auto _ : state) {
    pending.clear();
    storage::AppendWalFrame(rec, &pending);
    benchmark::DoNotOptimize(pending.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pending.size()));
}
BENCHMARK(BM_AppendWalFrame)->Arg(1024);

}  // namespace
}  // namespace pig

BENCHMARK_MAIN();
