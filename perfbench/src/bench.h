// Shared pieces of the end-to-end benchmark: the result record every workload fills,
// the lane schedule, client threads, latency samples and the per-thread span trace.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

// Every workload runs once per lane, and a lane is named by the range-lock family the
// system under test uses: file_store takes the lock directly, vm_churn and metis_wrmem
// take it as the address space's lock. Metric names end in the lane name.
inline constexpr const char* kLanes[] = {"list-ex", "list-lf", "skiplist", "tree"};
inline constexpr int kLaneCount = 4;

// Client threads per workload: the reference host's core count (see README).
inline constexpr int kThreads = 4;

// Every lane gets `kRounds` slices of the run; slices of different lanes alternate so
// drift on the host falls on every lane alike, and each rate is a median over slices.
inline constexpr int kRounds = 32;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool broken_lock = false;  // file_store against a lock that excludes nothing
};

// What one workload run reports.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Fail(const std::string& what) {
    if (errors_.size() < 20) {
      errors_.push_back(what);
    }
    correct_ = false;
  }
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  bool Correct() const { return correct_; }
  uint64_t AttemptedOps() const { return attempted_; }
  uint64_t FailedOps() const { return failed_; }
  const std::vector<std::string>& Errors() const { return errors_; }
  const std::map<std::string, std::pair<double, std::string>>& Metrics() const {
    return metrics_;
  }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 for an empty one.
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const std::size_t k = std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Runs `body(tid, stop)` on `threads` threads for `secs` seconds, started together.
// Returns the wall time from the start signal to the last join.
inline double RunClients(int threads, double secs,
                         const std::function<void(int, const std::atomic<bool>&)>& body) {
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      body(t, stop);
    });
  }
  while (ready.load() < threads) {
    std::this_thread::yield();
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) {
    th.join();
  }
  return SecondsSince(t0);
}

// Span names: one per call into a layer that the benchmark times in a traced run.
enum SpanName : uint8_t {
  kOp,           // one client operation (file_store)
  kAcquire,      // range-lock acquisition of a point op
  kFullAcquire,  // Range::Full acquisition of a full-file scan
  kRelease,      // range-lock release of a point op
  kCs,           // critical section of a point op
  kCycle,        // one churn cycle (vm_churn)
  kMmap,
  kFault,
  kMprotect,
  kMunmap,
  kSpanNames,
};

struct Span {
  uint64_t start;
  uint64_t end;
  int32_t parent;  // index in the same thread's buffer, -1 for a root
  uint8_t name;
  uint8_t lane;
};

// One thread's spans, kept in memory until the run ends. Full buffers stop recording
// rather than grow, so a traced run's memory is bounded.
class ThreadTrace {
 public:
  static constexpr std::size_t kCapacity = 1 << 17;

  ThreadTrace() { spans_.reserve(kCapacity); }

  // Opens a span and returns its index, or -1 when the buffer is full.
  int32_t Begin(SpanName name, int lane, int32_t parent) {
    if (spans_.size() == kCapacity) {
      return -1;
    }
    spans_.push_back({NowNs(), 0, parent, name, static_cast<uint8_t>(lane)});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t idx) {
    if (idx >= 0) {
      spans_[static_cast<std::size_t>(idx)].end = NowNs();
    }
  }
  const std::vector<Span>& Spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; inert with a null trace.
class SpanScope {
 public:
  SpanScope(ThreadTrace* t, SpanName name, int lane, int32_t parent = -1)
      : t_(t), idx_(t != nullptr ? t->Begin(name, lane, parent) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) {
      t_->End(idx_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int32_t Index() const { return idx_; }

 private:
  ThreadTrace* t_;
  int32_t idx_;
};

// Self times (span minus its child spans) of every recorded span, grouped by
// (name, lane): self[name][lane] holds nanoseconds.
class TraceSummary {
 public:
  void Add(const ThreadTrace& t) {
    const std::vector<Span>& spans = t.Spans();
    std::vector<int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = static_cast<int64_t>(spans[i].end - spans[i].start);
    }
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= static_cast<int64_t>(s.end - s.start);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end != 0) {
        self_[spans[i].name][spans[i].lane].push_back(std::max<int64_t>(self[i], 0));
      }
    }
  }

  double Quantile(SpanName name, int lane, double q) const {
    return Percentile(self_[name][lane], q);
  }

 private:
  std::vector<int64_t> self_[kSpanNames][kLaneCount];
};

// A lane's throughput per round and its sampled latencies.
struct LaneRates {
  std::vector<double> rate;        // ops per second, one per untraced round
  std::vector<double> traced_rate;  // ops per second, one per traced round
  std::vector<uint32_t> lat_ns;     // sampled operation latencies
};

// In a traced run odd rounds record spans and even rounds do not, so the same process
// measures the tracing overhead; untraced runs never trace.
inline bool TracedRound(const Options& o, int round) { return o.trace && round % 2 == 1; }

// Writes a lane's end-to-end metrics and, in a traced run, its tracing overhead. The
// tail is the `tail_q` quantile of the sampled latencies.
inline void ReportLane(Result* r, int lane, const LaneRates& lr, double tail_q = 0.99) {
  const std::string b = kLanes[lane];
  const double rate = Median(lr.rate);
  r->Set("ops_per_s." + b, rate, "ops/s");
  r->Set("tail_us." + b, Percentile(lr.lat_ns, tail_q) / 1000.0, "us");
  if (!lr.traced_rate.empty() && rate > 0) {
    r->Set("trace.overhead_pct." + b, 100.0 * (1.0 - Median(lr.traced_rate) / rate), "%");
  }
}

// Runs `setup` `n` times and reports the median wall time as setup_s.
inline void TimeSetup(Result* r, int n, const std::function<void()>& setup) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(SecondsSince(t0));
  }
  r->Set("setup_s", Median(t), "s");
}

Result RunFileStore(const Options& o);
Result RunVmChurn(const Options& o);
Result RunMetisWrmem(const Options& o);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
