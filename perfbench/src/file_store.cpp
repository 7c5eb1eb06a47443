// file_store: one file of 2^20 checksummed 64-byte records served by four closed-loop
// clients, the paper's use of range locks beyond address spaces (§1). Each lane runs
// the same per-client operation streams against one range lock taken directly.
//
// Mix per client, keys Zipf(0.99) scattered over the file: 60% point reads, 20% point
// writes, 10% three-record transactions (the first lock blocks, the rest are
// try-locks), 10% 128-record scans; each client also scans the whole file under
// Range::Full once every 200k of its operations, one per 50k operations overall.
//
// Checks: every record carries a write count bumped under the lock, and the counts
// must sum to the writes the clients committed (a lost update breaks the sum); every
// checksum read under a lock, and every checksum at the end, must validate; no lock
// may hold a range once the clients stop.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/range.h"
#include "src/core/skiplist_range_lock.h"
#include "src/harness/prng.h"

namespace perfbench {
namespace {

using srl::Range;
using srl::Xoshiro256;

constexpr uint64_t kRecords = uint64_t{1} << 20;
constexpr uint64_t kRecordBytes = 64;
constexpr uint64_t kWords = kRecordBytes / 8;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kScanRecords = 128;
constexpr int kTxnRecords = 3;
constexpr uint64_t kFullScanEvery = 200000;  // per client; 4 clients -> 1 per 50k ops
constexpr uint64_t kFullScanStride = 64;
constexpr std::size_t kRing = 1 << 16;       // pre-generated operations per client
// Sampling periods are odd, so they never fall into step with the power-of-two ring
// or any other power-of-two cadence and always pick the same operations.
constexpr uint64_t kLatencyEvery = 7;        // point ops timed for tail_us (their p99)
constexpr uint64_t kSpanEvery = 251;         // ops traced in a traced round

// ---- Locks, behind the one interface the clients use ----

struct ListEx {
  srl::ListRangeLock lock;
  using Handle = srl::ListRangeLock::Handle;
  Handle Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, Handle* h) { return lock.TryLock(r, h); }
  void Release(Handle h) { lock.Unlock(h); }
  std::size_t Held() const { return static_cast<std::size_t>(lock.DebugHeldCount()); }
};

struct ListLf {
  // The VM backend's geometry: a 64 KiB window holds 1024 records, so point ops stay
  // single-bucket while scans and the full-file scan go multi-bucket.
  srl::ListLockFreeRangeLock lock{
      srl::ListLockFreeRangeLock::Options{.buckets = 64, .window_shift = 16}};
  using Handle = srl::ListLockFreeRangeLock::Handle;
  Handle Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, Handle* h) { return lock.TryLock(r, h); }
  void Release(Handle h) { lock.Unlock(h); }
  std::size_t Held() const { return static_cast<std::size_t>(lock.DebugHeldCount()); }
};

struct Skiplist {
  srl::SkiplistRangeLock lock;
  using Handle = srl::SkiplistRangeLock::Handle;
  Handle Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, Handle* h) { return lock.TryLock(r, h); }
  void Release(Handle h) { lock.Unlock(h); }
  std::size_t Held() const { return lock.DebugHeldCount(); }
};

struct Tree {
  srl::TreeRangeLock lock;
  using Handle = srl::TreeRangeLock::Handle;
  Handle Acquire(const Range& r) { return lock.AcquireWrite(r); }
  bool TryAcquire(const Range& r, Handle* h) { return lock.TryAcquireWrite(r, h); }
  void Release(Handle h) { lock.Release(h); }
  std::size_t Held() const { return lock.DebugHeldCount(); }
};

// Excludes nothing: the self-test runs the store on it to show the checks catch a
// broken lock.
struct NoLock {
  using Handle = int;
  Handle Acquire(const Range&) { return 0; }
  bool TryAcquire(const Range&, Handle* h) {
    *h = 0;
    return true;
  }
  void Release(Handle) {}
  std::size_t Held() const { return 0; }
};

// ---- Inputs ----

class Zipf {
 public:
  Zipf(uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  uint64_t Sample(Xoshiro256& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Popularity rank -> record: an odd multiplier permutes the power-of-two record space,
// scattering hot records over the whole file.
uint64_t Scatter(uint64_t rank) { return (rank * 0x9E3779B97F4A7C15ull) & (kRecords - 1); }

enum class Kind : uint8_t { kRead, kWrite, kTxn, kScan };

struct Op {
  Kind kind;
  uint8_t n;  // records of a transaction, distinct and ascending
  uint32_t rec[kTxnRecords];
};

std::vector<Op> MakeRing(const Zipf& zipf, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Op> ring(kRing);
  for (Op& op : ring) {
    const double roll = rng.NextDouble();
    op.kind = roll < 0.6 ? Kind::kRead
              : roll < 0.8 ? Kind::kWrite
              : roll < 0.9 ? Kind::kTxn
                           : Kind::kScan;
    const int keys = op.kind == Kind::kTxn ? kTxnRecords : 1;
    for (int k = 0; k < keys; ++k) {
      op.rec[k] = static_cast<uint32_t>(Scatter(zipf.Sample(rng)));
    }
    if (op.kind == Kind::kTxn) {
      std::sort(op.rec, op.rec + kTxnRecords);
      op.n = static_cast<uint8_t>(std::unique(op.rec, op.rec + kTxnRecords) - op.rec);
    } else if (op.kind == Kind::kScan) {
      op.rec[0] = std::min<uint32_t>(op.rec[0], kRecords - kScanRecords);
    }
  }
  return ring;
}

// ---- The file ----

// Record words: [0] write count, [1..6] payload, [7] checksum of words 0..6. Relaxed
// atomics so a client racing on a broken lock reads stale or mixed words instead of
// invoking undefined behaviour; under a working lock they compile to plain moves.
class Store {
 public:
  explicit Store(uint64_t seed) : words_(new std::atomic<uint64_t>[kRecords * kWords]) {
    Xoshiro256 rng(seed);
    for (uint64_t i = 0; i < kRecords; ++i) {
      uint64_t w[kWords] = {0};
      for (uint64_t j = 1; j + 1 < kWords; ++j) {
        w[j] = rng.Next();
      }
      Put(i, w);
    }
  }

  bool Valid(uint64_t rec) const {
    uint64_t w[kWords];
    for (uint64_t j = 0; j < kWords; ++j) {
      w[j] = At(rec, j).load(std::memory_order_relaxed);
    }
    return Checksum(w) == w[kWords - 1];
  }

  void Write(uint64_t rec, Xoshiro256& rng) {
    uint64_t w[kWords];
    w[0] = At(rec, 0).load(std::memory_order_relaxed) + 1;
    for (uint64_t j = 1; j + 1 < kWords; ++j) {
      w[j] = rng.Next();
    }
    Put(rec, w);
  }

  uint64_t WriteCount(uint64_t rec) const {
    return At(rec, 0).load(std::memory_order_relaxed);
  }

 private:
  static uint64_t Checksum(const uint64_t* w) {
    uint64_t h = 0x243F6A8885A308D3ull;
    for (uint64_t j = 0; j + 1 < kWords; ++j) {
      h = (h ^ w[j]) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
    }
    return h;
  }

  void Put(uint64_t rec, uint64_t* w) {
    w[kWords - 1] = Checksum(w);
    for (uint64_t j = 0; j < kWords; ++j) {
      At(rec, j).store(w[j], std::memory_order_relaxed);
    }
  }

  std::atomic<uint64_t>& At(uint64_t rec, uint64_t j) const {
    return words_[rec * kWords + j];
  }

  std::unique_ptr<std::atomic<uint64_t>[]> words_;
};

Range RecordRange(uint64_t rec, uint64_t n = 1) {
  return {rec * kRecordBytes, (rec + n) * kRecordBytes};
}

// One client's state in one lane; it persists across the lane's rounds.
struct Client {
  std::size_t cursor = 0;
  uint64_t ops = 0;
  uint64_t writes = 0;      // record writes committed
  uint64_t txns = 0;
  uint64_t try_fails = 0;   // try-locks that failed inside a transaction
  uint64_t torn = 0;        // checksum failures under a held range
  std::vector<uint32_t> lat_ns;
  Xoshiro256 rng{0};
};

struct Inputs {
  std::unique_ptr<Store> store;
  std::vector<std::vector<Op>> rings;  // one per client, shared by every lane
};

template <typename Lock>
void ClientLoop(Lock& lock, Store& store, const std::vector<Op>& ring, Client& c,
                ThreadTrace* trace, int lane, const std::atomic<bool>& stop) {
  using Handle = typename Lock::Handle;
  while (!stop.load(std::memory_order_relaxed)) {
    const Op& op = ring[c.cursor];
    c.cursor = (c.cursor + 1) & (kRing - 1);
    ++c.ops;
    ThreadTrace* t = (trace != nullptr && c.ops % kSpanEvery == 0) ? trace : nullptr;
    if (c.ops % kFullScanEvery == 0) {
      ThreadTrace* ft = trace;  // full scans are rare: trace every one
      SpanScope root(ft, kOp, lane);
      Handle h;
      {
        SpanScope s(ft, kFullAcquire, lane, root.Index());
        h = lock.Acquire(Range::Full());
      }
      for (uint64_t r = 0; r < kRecords; r += kFullScanStride) {
        c.torn += store.Valid(r) ? 0 : 1;
      }
      lock.Release(h);
    }
    SpanScope root(t, kOp, lane);
    switch (op.kind) {
      case Kind::kRead:
      case Kind::kWrite: {
        const bool timed = c.ops % kLatencyEvery == 0;
        const uint64_t t0 = timed ? NowNs() : 0;
        Handle h;
        {
          SpanScope s(t, kAcquire, lane, root.Index());
          h = lock.Acquire(RecordRange(op.rec[0]));
        }
        {
          SpanScope s(t, kCs, lane, root.Index());
          if (op.kind == Kind::kRead) {
            c.torn += store.Valid(op.rec[0]) ? 0 : 1;
          } else {
            store.Write(op.rec[0], c.rng);
            ++c.writes;
          }
        }
        {
          SpanScope s(t, kRelease, lane, root.Index());
          lock.Release(h);
        }
        if (timed) {
          c.lat_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(NowNs() - t0, UINT32_MAX)));
        }
        break;
      }
      case Kind::kTxn: {
        // The first record blocks and the rest are try-locks; any failure releases all
        // and retries. Blocking on every record in ascending order can deadlock: a
        // queued Range::Full node sits between two records of the transaction.
        Handle h[kTxnRecords];
        int held = 0;
        for (;;) {
          h[0] = lock.Acquire(RecordRange(op.rec[0]));
          held = 1;
          while (held < op.n && lock.TryAcquire(RecordRange(op.rec[held]), &h[held])) {
            ++held;
          }
          if (held == op.n) {
            break;
          }
          ++c.try_fails;
          for (int i = 0; i < held; ++i) {
            lock.Release(h[i]);
          }
          std::this_thread::yield();
        }
        for (int i = 0; i < op.n; ++i) {
          c.torn += store.Valid(op.rec[i]) ? 0 : 1;
          store.Write(op.rec[i], c.rng);
        }
        c.writes += op.n;
        ++c.txns;
        for (int i = 0; i < op.n; ++i) {
          lock.Release(h[i]);
        }
        break;
      }
      case Kind::kScan: {
        Handle h = lock.Acquire(RecordRange(op.rec[0], kScanRecords));
        for (uint64_t r = op.rec[0]; r < op.rec[0] + kScanRecords; ++r) {
          c.torn += store.Valid(r) ? 0 : 1;
        }
        lock.Release(h);
        break;
      }
    }
  }
}

struct LaneState {
  std::vector<Client> clients;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  LaneRates rates;
};

// Runs one slice of a lane: kThreads clients for `secs` seconds.
template <typename Lock>
void RunSlice(Lock& lock, Inputs& in, LaneState& ls, int lane, bool traced, double secs) {
  std::vector<uint64_t> before(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    before[t] = ls.clients[t].ops;
  }
  const double elapsed = RunClients(kThreads, secs, [&](int t, const std::atomic<bool>& stop) {
    ClientLoop(lock, *in.store, in.rings[t], ls.clients[t],
               traced ? ls.traces[t].get() : nullptr, lane, stop);
  });
  uint64_t ops = 0;
  for (int t = 0; t < kThreads; ++t) {
    ops += ls.clients[t].ops - before[t];
  }
  (traced ? ls.rates.traced_rate : ls.rates.rate).push_back(static_cast<double>(ops) / elapsed);
}

// Folds a lane's clients into the result; returns the record writes they committed.
uint64_t ReportClients(Result* r, int lane, LaneState& ls, std::size_t held,
                       const Options& o) {
  const std::string b = o.broken_lock ? "no-lock" : kLanes[lane];
  uint64_t writes = 0;
  uint64_t txns = 0;
  uint64_t try_fails = 0;
  for (Client& c : ls.clients) {
    r->Attempted(c.ops);
    writes += c.writes;
    txns += c.txns;
    try_fails += c.try_fails;
    if (c.torn != 0) {
      r->Fail("file_store/" + b + ": " + std::to_string(c.torn) +
              " records failed their checksum under a held range");
    }
    ls.rates.lat_ns.insert(ls.rates.lat_ns.end(), c.lat_ns.begin(), c.lat_ns.end());
  }
  if (held != 0) {
    r->Fail("file_store/" + b + ": lock still holds " + std::to_string(held) +
            " ranges after the clients stopped");
  }
  if (o.broken_lock) {
    return writes;
  }
  ReportLane(r, lane, ls.rates);
  if (o.trace) {
    TraceSummary ts;
    for (const auto& t : ls.traces) {
      ts.Add(*t);
    }
    const std::string m = lane == 3 ? "baselines" : "core";
    r->Set(m + ".acquire_ns.p50." + b, ts.Quantile(kAcquire, lane, 0.5), "ns");
    r->Set(m + ".acquire_ns.p99." + b, ts.Quantile(kAcquire, lane, 0.99), "ns");
    r->Set(m + ".release_ns.p50." + b, ts.Quantile(kRelease, lane, 0.5), "ns");
    r->Set(m + ".full_acquire_ns.p50." + b, ts.Quantile(kFullAcquire, lane, 0.5), "ns");
    r->Set(m + ".txn_try_fail_ratio." + b,
           txns == 0 ? 0.0 : static_cast<double>(try_fails) / static_cast<double>(txns),
           "ratio");
    r->Set("app.cs_ns.p50." + b, ts.Quantile(kCs, lane, 0.5), "ns");
  }
  return writes;
}

LaneState NewLane(uint64_t seed, int lane, bool trace) {
  LaneState ls;
  ls.clients.resize(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ls.clients[t].rng = Xoshiro256(seed ^ (0x51ed27 * static_cast<uint64_t>(lane * 8 + t + 1)));
    ls.traces.push_back(trace ? std::make_unique<ThreadTrace>() : nullptr);
  }
  return ls;
}

}  // namespace

Result RunFileStore(const Options& o) {
  Result r;
  Inputs in;
  std::unique_ptr<ListEx> list_ex;
  std::unique_ptr<ListLf> list_lf;
  std::unique_ptr<Skiplist> skiplist;
  std::unique_ptr<Tree> tree;
  TimeSetup(&r, 5, [&] {
    in = Inputs{};
    const Zipf zipf(kRecords, kZipfTheta);
    in.store = std::make_unique<Store>(o.seed);
    for (int t = 0; t < kThreads; ++t) {
      in.rings.push_back(MakeRing(zipf, o.seed * 0x100000001b3ull + static_cast<uint64_t>(t)));
    }
    list_ex = std::make_unique<ListEx>();
    list_lf = std::make_unique<ListLf>();
    skiplist = std::make_unique<Skiplist>();
    tree = std::make_unique<Tree>();
  });

  uint64_t writes = 0;
  if (o.broken_lock) {
    NoLock none;
    LaneState ls = NewLane(o.seed, 0, false);
    RunSlice(none, in, ls, 0, false, o.seconds);
    writes += ReportClients(&r, 0, ls, none.Held(), o);
  } else {
    std::vector<LaneState> lanes;
    for (int l = 0; l < kLaneCount; ++l) {
      lanes.push_back(NewLane(o.seed, l, o.trace));
    }
    const double slice = o.seconds / (kRounds * kLaneCount);
    for (int round = 0; round < kRounds; ++round) {
      const bool traced = TracedRound(o, round);
      RunSlice(*list_ex, in, lanes[0], 0, traced, slice);
      RunSlice(*list_lf, in, lanes[1], 1, traced, slice);
      RunSlice(*skiplist, in, lanes[2], 2, traced, slice);
      RunSlice(*tree, in, lanes[3], 3, traced, slice);
    }
    writes += ReportClients(&r, 0, lanes[0], list_ex->Held(), o);
    writes += ReportClients(&r, 1, lanes[1], list_lf->Held(), o);
    writes += ReportClients(&r, 2, lanes[2], skiplist->Held(), o);
    writes += ReportClients(&r, 3, lanes[3], tree->Held(), o);
  }

  uint64_t counted = 0;
  uint64_t bad = 0;
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    counted += in.store->WriteCount(rec);
    bad += in.store->Valid(rec) ? 0 : 1;
  }
  if (counted != writes) {
    r.Fail("file_store: record write counts sum to " + std::to_string(counted) +
           " but clients committed " + std::to_string(writes) + " writes (lost updates)");
  }
  if (bad != 0) {
    r.Fail("file_store: " + std::to_string(bad) + " records fail their checksum at the end");
  }
  return r;
}

}  // namespace perfbench
